# Perf regression gate, run as `cmake -P` so it needs no shell.
#
# Inputs (all -D):
#   MODE       check | selfdiff | perturb | chaosoff | overlapoff |
#              flightoff | msgtraceoff | msgtracesmoke | cetric
#   DATASET    rmat_s8 | ws_n512 (deterministic generator configs)
#   RANKS      simulated rank count
#   CLI        path to tricount_cli
#   PERF       path to tricount_perf
#   LINT       path to tricount_trace_lint
#   BASELINES  directory of checked-in baseline artifacts
#   WORK_DIR   scratch directory for generated graphs/artifacts
#
# Modes:
#   check     regenerate DATASET, re-run the counting config, lint both the
#             fresh artifact and the baseline, then `tricount_perf diff
#             baseline fresh` — must exit 0 (counts are deterministic, the
#             measured-time noise floor absorbs scheduler jitter).
#   selfdiff  run the same config twice and diff the two artifacts — must
#             exit 0.
#   perturb   re-run with alpha x10 and diff against the baseline — must
#             exit nonzero and explain the regression.
#   chaosoff  re-run with the chaos rate knobs spelled out but NO
#             --chaos-seed (so the injector stays null) and diff against
#             the baseline — must exit 0, proving the chaos interposer is
#             free when disarmed (docs/chaos.md).
#   overlapoff  re-run with --no-overlap spelled out and diff against the
#             baseline — must exit 0, proving the overlap accounting path
#             (hidden = 0 when off) reproduces the baseline, whose
#             tc.overlap.* metrics read zero (docs/overlap.md).
#   flightoff re-run with --flight off spelled out and diff against the
#             baseline — must exit 0, proving the flight recorder (on by
#             default) never leaks into the metrics artifact and turning
#             it off cannot change the run (docs/observability.md).
#   msgtraceoff  re-run with the msgtrace output knobs spelled out but NO
#             --msgtrace (capture stays uninstalled) — the message trace
#             must NOT be written and the metrics artifact must diff
#             clean against the baseline (docs/observability.md).
#   msgtracesmoke  re-run with --msgtrace, lint the captured message
#             trace with `tricount_trace_lint FILE`, and render the
#             causal section via `tricount_perf report --msgtrace` —
#             all must exit 0.
#   cetric    run the communication-avoiding counter (--algorithm cetric),
#             lint the fresh artifact and the checked-in cetric baseline
#             (cetric_<dataset>_r<ranks>.json), diff them, then run the 2D
#             algorithm on the same graph and require — via `tricount_perf
#             report --compare --require-less-comm` — that cetric moved
#             strictly fewer user bytes (docs/cetric.md).
#
# Baseline refresh (after an intentional perf-affecting change):
#   regenerate each artifact with the commands below and copy it over
#   results/baselines/<dataset>_r<ranks>.json (cetric baselines:
#   results/baselines/cetric_<dataset>_r<ranks>.json) — see
#   docs/observability.md.

file(MAKE_DIRECTORY ${WORK_DIR})
set(GRAPH ${WORK_DIR}/${DATASET}.mtx)

if(DATASET STREQUAL "rmat_s8")
  set(GEN_ARGS --type rmat --scale 8 --edge-factor 8 --seed 1)
elseif(DATASET STREQUAL "ws_n512")
  set(GEN_ARGS --type ws --n 512 --k 8 --beta 0.1 --seed 3)
else()
  message(FATAL_ERROR "perf_gate: unknown DATASET '${DATASET}'")
endif()

execute_process(
  COMMAND ${CLI} generate ${GEN_ARGS} --out ${GRAPH}
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "perf_gate: graph generation failed (${status})")
endif()

# Runs `tricount_cli count` for this dataset/ranks and writes the metrics
# artifact to `out`; extra args (e.g. --model) append verbatim.
function(run_count out)
  execute_process(
    COMMAND ${CLI} count --file ${GRAPH} --ranks ${RANKS}
            --metrics-out ${out} ${ARGN}
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "perf_gate: count run failed (${status})")
  endif()
endfunction()

set(BASELINE ${BASELINES}/${DATASET}_r${RANKS}.json)

if(MODE STREQUAL "check")
  if(NOT EXISTS ${BASELINE})
    message(FATAL_ERROR "perf_gate: missing baseline ${BASELINE}")
  endif()
  set(FRESH ${WORK_DIR}/${DATASET}_r${RANKS}_fresh.json)
  run_count(${FRESH})
  execute_process(
    COMMAND ${LINT} --metrics ${BASELINE} ${FRESH}
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "perf_gate: metrics lint failed (${status})")
  endif()
  execute_process(
    COMMAND ${PERF} diff ${BASELINE} ${FRESH}
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "perf_gate: fresh run regresses against ${BASELINE} (${status})")
  endif()
elseif(MODE STREQUAL "selfdiff")
  set(RUN_A ${WORK_DIR}/${DATASET}_r${RANKS}_a.json)
  set(RUN_B ${WORK_DIR}/${DATASET}_r${RANKS}_b.json)
  run_count(${RUN_A})
  run_count(${RUN_B})
  execute_process(
    COMMAND ${PERF} diff ${RUN_A} ${RUN_B}
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "perf_gate: two runs of the same config diff dirty (${status})")
  endif()
elseif(MODE STREQUAL "chaosoff")
  if(NOT EXISTS ${BASELINE})
    message(FATAL_ERROR "perf_gate: missing baseline ${BASELINE}")
  endif()
  set(CHAOSOFF ${WORK_DIR}/${DATASET}_r${RANKS}_chaosoff.json)
  # Rate knobs without --chaos-seed must leave the fault injector null and
  # the run bit-comparable (within the diff noise floor) to the baseline.
  run_count(${CHAOSOFF} --chaos-drop 0.5 --chaos-dup 0.5 --chaos-reorder 0.5
            --chaos-straggler 4.0)
  execute_process(
    COMMAND ${PERF} diff ${BASELINE} ${CHAOSOFF}
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "perf_gate: chaos-disabled run diffs dirty against ${BASELINE} "
            "(${status}) — the disarmed interposer is not free")
  endif()
elseif(MODE STREQUAL "overlapoff")
  if(NOT EXISTS ${BASELINE})
    message(FATAL_ERROR "perf_gate: missing baseline ${BASELINE}")
  endif()
  set(OVERLAPOFF ${WORK_DIR}/${DATASET}_r${RANKS}_overlapoff.json)
  # --no-overlap must reproduce the baseline: with overlap off the model
  # charges compute + network, and the tc.overlap.* counters stay zero.
  run_count(${OVERLAPOFF} --no-overlap)
  execute_process(
    COMMAND ${PERF} diff ${BASELINE} ${OVERLAPOFF}
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "perf_gate: overlap-disabled run diffs dirty against ${BASELINE} "
            "(${status}) — the overlap-off path is not baseline-identical")
  endif()
elseif(MODE STREQUAL "flightoff")
  if(NOT EXISTS ${BASELINE})
    message(FATAL_ERROR "perf_gate: missing baseline ${BASELINE}")
  endif()
  set(FLIGHTOFF ${WORK_DIR}/${DATASET}_r${RANKS}_flightoff.json)
  # --flight off skips the recorder install entirely; the artifact
  # must diff clean against the (default, flight-on) baseline.
  run_count(${FLIGHTOFF} --flight off)
  execute_process(
    COMMAND ${PERF} diff ${BASELINE} ${FLIGHTOFF}
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "perf_gate: flight-disabled run diffs dirty against ${BASELINE} "
            "(${status}) — the flight recorder leaks into the artifact")
  endif()
elseif(MODE STREQUAL "msgtraceoff")
  if(NOT EXISTS ${BASELINE})
    message(FATAL_ERROR "perf_gate: missing baseline ${BASELINE}")
  endif()
  set(MSGTRACEOFF ${WORK_DIR}/${DATASET}_r${RANKS}_msgtraceoff.json)
  set(MSGTRACE_OUT ${WORK_DIR}/${DATASET}_r${RANKS}_msgtrace.json)
  file(REMOVE ${MSGTRACE_OUT})
  # Output knobs without --msgtrace must leave the capture uninstalled:
  # no msgtrace artifact, and a metrics artifact that diffs clean.
  run_count(${MSGTRACEOFF} --msgtrace-out ${MSGTRACE_OUT}
            --msgtrace-capacity 4096)
  if(EXISTS ${MSGTRACE_OUT})
    message(FATAL_ERROR
            "perf_gate: msgtrace artifact written without --msgtrace")
  endif()
  execute_process(
    COMMAND ${PERF} diff ${BASELINE} ${MSGTRACEOFF}
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "perf_gate: msgtrace-disabled run diffs dirty against ${BASELINE} "
            "(${status}) — the msgtrace capture leaks into the artifact")
  endif()
elseif(MODE STREQUAL "msgtracesmoke")
  set(METRICS ${WORK_DIR}/${DATASET}_r${RANKS}_msgtrace_metrics.json)
  set(MSGTRACE_OUT ${WORK_DIR}/${DATASET}_r${RANKS}_msgtrace.json)
  run_count(${METRICS} --msgtrace --msgtrace-out ${MSGTRACE_OUT})
  if(NOT EXISTS ${MSGTRACE_OUT})
    message(FATAL_ERROR "perf_gate: --msgtrace wrote no artifact")
  endif()
  execute_process(
    COMMAND ${LINT} ${MSGTRACE_OUT}
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "perf_gate: msgtrace lint failed (${status})")
  endif()
  execute_process(
    COMMAND ${PERF} report ${METRICS} --msgtrace ${MSGTRACE_OUT}
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "perf_gate: causal report failed (${status})")
  endif()
elseif(MODE STREQUAL "cetric")
  set(CETRIC_BASELINE ${BASELINES}/cetric_${DATASET}_r${RANKS}.json)
  if(NOT EXISTS ${CETRIC_BASELINE})
    message(FATAL_ERROR "perf_gate: missing baseline ${CETRIC_BASELINE}")
  endif()
  set(CETRIC_FRESH ${WORK_DIR}/cetric_${DATASET}_r${RANKS}_fresh.json)
  run_count(${CETRIC_FRESH} --algorithm cetric)
  execute_process(
    COMMAND ${LINT} --metrics ${CETRIC_BASELINE} ${CETRIC_FRESH}
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "perf_gate: cetric metrics lint failed (${status})")
  endif()
  execute_process(
    COMMAND ${PERF} diff ${CETRIC_BASELINE} ${CETRIC_FRESH}
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "perf_gate: fresh cetric run regresses against "
            "${CETRIC_BASELINE} (${status})")
  endif()
  # The paper-level claim: on the same graph and rank count, cetric must
  # move strictly fewer point-to-point bytes than the 2D algorithm.
  set(FRESH_2D ${WORK_DIR}/${DATASET}_r${RANKS}_2d.json)
  run_count(${FRESH_2D})
  execute_process(
    COMMAND ${PERF} report ${CETRIC_FRESH} --compare ${FRESH_2D}
            --require-less-comm
    RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
            "perf_gate: cetric did not move strictly fewer user bytes than "
            "2d on ${DATASET} r${RANKS} (${status})")
  endif()
elseif(MODE STREQUAL "perturb")
  if(NOT EXISTS ${BASELINE})
    message(FATAL_ERROR "perf_gate: missing baseline ${BASELINE}")
  endif()
  set(PERTURBED ${WORK_DIR}/${DATASET}_r${RANKS}_alpha10.json)
  # Default model is alpha=1.5e-6, beta=1/3.5e9; perturb alpha x10.
  run_count(${PERTURBED} --model "1.5e-5,2.857142857142857e-10")
  execute_process(
    COMMAND ${PERF} diff ${BASELINE} ${PERTURBED}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out)
  message("${out}")
  if(status EQUAL 0)
    message(FATAL_ERROR "perf_gate: alpha x10 perturbation not caught")
  endif()
  if(NOT out MATCHES "REGRESS")
    message(FATAL_ERROR "perf_gate: diff output lacks a REGRESS explanation")
  endif()
else()
  message(FATAL_ERROR "perf_gate: unknown MODE '${MODE}'")
endif()
