# CLI refusal gate, run as `cmake -P` so it needs no shell.
#
# Inputs (all -D):
#   CLI       path to tricount_cli
#   WORK_DIR  scratch directory for the generated graph and replay file
#
# The 1D baselines (aop, push, wedge) run no fault injection. A `count`
# that names one of them and arms chaos (--chaos-seed or --chaos-replay)
# must exit 1 and name the algorithm on stderr, not run fault-free. The
# replay file comes from a chaos-armed 2d run, which must succeed.

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(GRAPH ${WORK_DIR}/rmat_s6.mtx)
set(REPLAY ${WORK_DIR}/replay.json)

execute_process(
  COMMAND ${CLI} generate --type rmat --scale 6 --seed 1 --out ${GRAPH}
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "cli_gate: graph generation failed (${status})")
endif()

execute_process(
  COMMAND ${CLI} count --file ${GRAPH} --ranks 4 --chaos-seed 7
          --chaos-replay-out ${REPLAY}
  RESULT_VARIABLE status
  OUTPUT_QUIET)
if(NOT status EQUAL 0 OR NOT EXISTS ${REPLAY})
  message(FATAL_ERROR "cli_gate: chaos-armed 2d count failed (${status})")
endif()

foreach(algorithm aop push wedge)
  foreach(arm "--chaos-seed;7" "--chaos-replay;${REPLAY}")
    execute_process(
      COMMAND ${CLI} count --file ${GRAPH} --ranks 3 --algorithm ${algorithm}
              ${arm}
      RESULT_VARIABLE status
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err)
    if(NOT status EQUAL 1)
      message(FATAL_ERROR
              "cli_gate: ${algorithm} with ${arm} exited ${status}, not 1")
    endif()
    if(NOT err MATCHES "--algorithm ${algorithm}")
      message(FATAL_ERROR
              "cli_gate: ${algorithm} with ${arm}: stderr does not name the "
              "algorithm: ${err}")
    endif()
    if(out MATCHES "triangles:")
      message(FATAL_ERROR "cli_gate: ${algorithm} with ${arm} counted")
    endif()
  endforeach()
endforeach()
