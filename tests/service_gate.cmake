# Scripted daemon smoke gate, run as `cmake -P` so it needs no shell.
#
# Inputs (all -D):
#   CLI       path to tricount_cli
#   DAEMON    path to tricountd
#   LINT      path to tricount_trace_lint
#   CLIENT    path to tricount_client
#   WORK_DIR  scratch directory for the graph, script, and artifacts
#
# Part 1: generates rmat_s8, takes a reference count from the batch
# CLI, then runs a scripted mixed-query session through tricountd
# (--script frontend: count across all three algorithms, repeats for
# cache hits, clustering, per-vertex, approx, streaming verbs, shutdown).
# It asserts the daemon exits 0, every served triangle count equals the
# CLI's reference — including a 2d recount after a graph.apply insert
# and its reverting delete — the cache saw hits, and the session trace
# passes the plain `tricount_trace_lint FILE`, which runs the session
# checks on any trace with an `otherData.session`.
#
# Parts 2 and 3: socket-mode sessions through tricount_client, run as a
# concurrent execute_process pipeline (daemon + client side by side).
# A session containing a typed error response (bad 'kernel') must make
# the client exit nonzero while the daemon still exits 0; a clean
# session must leave the client at exit 0.

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
set(GRAPH ${WORK_DIR}/rmat_s8.mtx)

execute_process(
  COMMAND ${CLI} generate --type rmat --scale 8 --edge-factor 8 --seed 1
          --out ${GRAPH}
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "service_gate: graph generation failed (${status})")
endif()

# Reference count from the batch CLI ("triangles: N" on stdout).
execute_process(
  COMMAND ${CLI} count --file ${GRAPH} --ranks 4
  WORKING_DIRECTORY ${WORK_DIR}
  OUTPUT_VARIABLE cli_output
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "service_gate: reference CLI count failed (${status})")
endif()
string(REGEX MATCH "triangles: ([0-9]+)" _ ${cli_output})
if(NOT CMAKE_MATCH_1)
  message(FATAL_ERROR "service_gate: no triangle count in CLI output")
endif()
set(EXPECTED ${CMAKE_MATCH_1})

set(SCRIPT ${WORK_DIR}/session.jsonl)
file(WRITE ${SCRIPT} "{\"id\":1,\"verb\":\"hello\"}
{\"id\":2,\"verb\":\"count\",\"params\":{\"algo\":\"2d\"}}
{\"id\":3,\"verb\":\"count\",\"params\":{\"algo\":\"2d\"}}
{\"id\":4,\"verb\":\"count\",\"params\":{\"algo\":\"cetric\"}}
{\"id\":5,\"verb\":\"count\",\"params\":{\"algo\":\"summa\"}}
{\"id\":6,\"verb\":\"count\",\"params\":{\"algo\":\"2d\",\"kernel\":\"merge\"}}
{\"id\":7,\"verb\":\"clustering\"}
{\"id\":8,\"verb\":\"pervertex\",\"params\":{\"top\":5}}
{\"id\":9,\"verb\":\"approx\",\"params\":{\"retention\":0.5,\"seed\":7}}
{\"id\":10,\"verb\":\"cache.stats\"}
{\"id\":11,\"verb\":\"stats\"}
{\"id\":12,\"verb\":\"graph.apply\",\"params\":{\"ops\":[\"+239 240\"]}}
{\"id\":13,\"verb\":\"graph.apply\",\"params\":{\"ops\":[\"-239 240\"]}}
{\"id\":14,\"verb\":\"delta.stats\"}
{\"id\":15,\"verb\":\"graph.window\",\"params\":{\"capacity\":999999}}
{\"id\":16,\"verb\":\"stream.sample\",\"params\":{\"retention\":1.0,\"seed\":7}}
{\"id\":17,\"verb\":\"count\",\"params\":{\"algo\":\"2d\"}}
{\"id\":18,\"verb\":\"shutdown\"}
")

set(ARTIFACTS ${WORK_DIR}/artifacts)
execute_process(
  COMMAND ${DAEMON} --graph ${GRAPH} --ranks 4 --script ${SCRIPT}
          --artifacts-dir ${ARTIFACTS}
  WORKING_DIRECTORY ${WORK_DIR}
  OUTPUT_VARIABLE responses
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "service_gate: tricountd exited ${status}")
endif()

# Every count (ids 2-6, plus the id-17 recount after the insert and its
# reverting delete) must serve the CLI's reference number. Count results
# are the only ones shaped {"algo":...,"triangles":N} — the
# pervertex/clustering responses also carry "triangles" keys, with
# per-vertex numbers that must not be compared against the total.
string(REGEX MATCHALL "\"algo\":\"[a-z0-9]+\",\"triangles\":([0-9]+)" counts
       ${responses})
list(LENGTH counts n_counts)
if(NOT n_counts EQUAL 6)
  message(FATAL_ERROR
          "service_gate: expected 6 served counts, saw ${n_counts}:\n"
          "${responses}")
endif()
foreach(match IN LISTS counts)
  string(REGEX REPLACE ".*\"triangles\":" "" served ${match})
  if(NOT served EQUAL ${EXPECTED})
    message(FATAL_ERROR
            "service_gate: served count ${served} != CLI count ${EXPECTED}")
  endif()
endforeach()

# The duplicate 2d query (id 3) must have hit the cache.
string(REGEX MATCH "\"hits\":([0-9]+)" _ ${responses})
if(NOT CMAKE_MATCH_1 OR CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "service_gate: no cache hits in session:\n${responses}")
endif()

if(${responses} MATCHES "\"ok\":false")
  message(FATAL_ERROR "service_gate: error response in session:\n${responses}")
endif()

# The retention-1.0 sampled estimator keeps every edge, so its
# sparsified count is the exact triangle total.
if(NOT ${responses} MATCHES "\"sparsified_triangles\":${EXPECTED}")
  message(FATAL_ERROR
          "service_gate: retention-1.0 sample is not exact:\n${responses}")
endif()

execute_process(
  COMMAND ${LINT} ${ARTIFACTS}/service-session.json
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "service_gate: session trace failed lint (${status})")
endif()
message(STATUS "service_gate: OK (${EXPECTED} triangles across 6 served counts)")

# ---------------------------------------------------------------------------
# Part 2: socket mode, session with a typed error. The daemon and client
# run side by side as one execute_process pipeline (commands in a single
# execute_process start concurrently); the client retries the connect
# until the daemon's socket appears. The bad 'kernel' answer is a typed
# bad_params error: the client must exit nonzero, the daemon 0.
set(ERR_SCRIPT ${WORK_DIR}/error-session.jsonl)
file(WRITE ${ERR_SCRIPT} "{\"id\":1,\"verb\":\"hello\"}
{\"id\":2,\"verb\":\"count\",\"params\":{\"algo\":\"2d\",\"kernel\":\"nope\"}}
{\"id\":3,\"verb\":\"count\",\"params\":{\"algo\":\"2d\"}}
{\"id\":4,\"verb\":\"shutdown\"}
")
set(SOCK ${WORK_DIR}/gate.sock)
execute_process(
  COMMAND ${DAEMON} --graph ${GRAPH} --ranks 4 --socket ${SOCK}
          --artifacts-dir ${WORK_DIR}/artifacts-socket-error
  COMMAND ${CLIENT} --socket ${SOCK} --script ${ERR_SCRIPT}
          --retry-seconds 30
  WORKING_DIRECTORY ${WORK_DIR}
  TIMEOUT 120
  OUTPUT_VARIABLE socket_responses
  RESULTS_VARIABLE statuses)
list(GET statuses 0 daemon_status)
list(GET statuses 1 client_status)
if(NOT daemon_status EQUAL 0)
  message(FATAL_ERROR
          "service_gate: socket daemon exited ${daemon_status}")
endif()
if(client_status EQUAL 0)
  message(FATAL_ERROR
          "service_gate: client exited 0 despite a typed error response:\n"
          "${socket_responses}")
endif()
if(NOT ${socket_responses} MATCHES "\"ok\":false")
  message(FATAL_ERROR
          "service_gate: expected a typed error in the socket session:\n"
          "${socket_responses}")
endif()

# Part 3: socket mode, clean session — the client must exit 0, and the
# responses must include the served count (the in-flight drain fix: the
# daemon may not close the fd while a popped batch still owes answers).
set(OK_SCRIPT ${WORK_DIR}/ok-session.jsonl)
file(WRITE ${OK_SCRIPT} "{\"id\":1,\"verb\":\"hello\"}
{\"id\":2,\"verb\":\"count\",\"params\":{\"algo\":\"2d\"}}
{\"id\":3,\"verb\":\"shutdown\"}
")
execute_process(
  COMMAND ${DAEMON} --graph ${GRAPH} --ranks 4 --socket ${SOCK}
          --artifacts-dir ${WORK_DIR}/artifacts-socket-ok
  COMMAND ${CLIENT} --socket ${SOCK} --script ${OK_SCRIPT}
          --retry-seconds 30
  WORKING_DIRECTORY ${WORK_DIR}
  TIMEOUT 120
  OUTPUT_VARIABLE ok_responses
  RESULTS_VARIABLE statuses)
list(GET statuses 0 daemon_status)
list(GET statuses 1 client_status)
if(NOT daemon_status EQUAL 0)
  message(FATAL_ERROR
          "service_gate: clean socket daemon exited ${daemon_status}")
endif()
if(NOT client_status EQUAL 0)
  message(FATAL_ERROR
          "service_gate: clean socket client exited ${client_status}:\n"
          "${ok_responses}")
endif()
if(NOT ${ok_responses} MATCHES "\"triangles\":${EXPECTED}")
  message(FATAL_ERROR
          "service_gate: clean socket session missing the served count:\n"
          "${ok_responses}")
endif()
message(STATUS "service_gate: socket error/clean sessions OK")
