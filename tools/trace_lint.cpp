// tricount_trace_lint — validates a Chrome trace-event JSON file (a
// modeled run trace, a flight dump, a live view, a message trace or a
// service session) against the invariants obs::lint_trace checks:
// parseable JSON, known phase codes, named events, non-negative
// timestamps, per-timeline spans that nest or are disjoint (no partial
// overlap), for a message trace its `msg` spans' args, its rings' counts
// and its flow pairs, and for a service session its request spans and
// instants against the session tallies.
//
// Usage:
//   tricount_trace_lint FILE.json...            lint trace files; exit 1 on any violation
//   tricount_trace_lint --metrics FILE.json...  schema-validate tricount.metrics.v3 files
//   tricount_trace_lint --selftest              run the built-in good/bad fixtures
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "tricount/obs/analysis.hpp"
#include "tricount/obs/flight.hpp"
#include "tricount/obs/json.hpp"
#include "tricount/obs/trace.hpp"
#include "tricount/util/build.hpp"

namespace {

using namespace tricount;

/// Lints the JSON file `path` with `lint`, which returns the violations
/// and sets what an OK line reports; prints either. Returns 1 on a
/// violation or an unreadable file.
template <class Lint>
int lint_path(const std::string& path, Lint lint) {
  std::vector<std::string> violations;
  std::string summary;
  try {
    violations = lint(obs::json::read_file(path), summary);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 1;
  }
  for (const std::string& v : violations) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), v.c_str());
  }
  if (!violations.empty()) return 1;
  std::printf("%s: OK (%s)\n", path.c_str(), summary.c_str());
  return 0;
}

std::vector<std::string> lint_trace_file(const obs::json::Value& root,
                                         std::string& summary) {
  const obs::Trace trace = obs::Trace::from_json(root);
  summary = std::to_string(trace.events().size()) + " events";
  return obs::lint_trace(trace);
}

std::vector<std::string> lint_metrics_file(const obs::json::Value& root,
                                           std::string& summary) {
  summary = obs::analysis::kMetricsSchema;
  return obs::analysis::lint_metrics(root);
}

int selftest() {
  int failures = 0;

  // A well-formed trace: nested and disjoint spans plus an instant.
  obs::Trace good;
  good.set_thread_name(0, "rank 0");
  good.add_complete(0, "outer", "pre", 0.0, 100.0);
  good.add_complete(0, "inner", "pre", 10.0, 30.0);
  good.add_complete(0, "later", "tc", 200.0, 50.0);
  good.add_instant(0, "mark", "tc", 225.0);
  if (!obs::lint_trace(good).empty()) {
    std::fprintf(stderr, "selftest: clean trace reported violations\n");
    ++failures;
  }

  // Round-trip through JSON must preserve lint-cleanliness.
  try {
    const obs::Trace reparsed =
        obs::Trace::from_json(obs::json::Value::parse(good.to_json().dump()));
    if (reparsed.events().size() != good.events().size() ||
        !obs::lint_trace(reparsed).empty()) {
      std::fprintf(stderr, "selftest: JSON round-trip changed the trace\n");
      ++failures;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "selftest: round-trip threw: %s\n", e.what());
    ++failures;
  }

  // Partial overlap on one timeline must be flagged...
  obs::Trace overlap;
  overlap.add_complete(0, "a", "pre", 0.0, 100.0);
  overlap.add_complete(0, "b", "pre", 50.0, 100.0);
  if (obs::lint_trace(overlap).empty()) {
    std::fprintf(stderr, "selftest: partial overlap not flagged\n");
    ++failures;
  }

  // ...but the same pair on different timelines is fine.
  obs::Trace two_tids;
  two_tids.add_complete(0, "a", "pre", 0.0, 100.0);
  two_tids.add_complete(1, "b", "pre", 50.0, 100.0);
  if (!obs::lint_trace(two_tids).empty()) {
    std::fprintf(stderr, "selftest: cross-timeline overlap flagged\n");
    ++failures;
  }

  // Negative duration must be flagged.
  obs::Trace negative;
  negative.add_complete(0, "a", "pre", 0.0, -1.0);
  if (obs::lint_trace(negative).empty()) {
    std::fprintf(stderr, "selftest: negative duration not flagged\n");
    ++failures;
  }

  // A counter sample is a known phase; an unnamed one is flagged.
  obs::Trace counters;
  counters.add_counter(0, "superstep", "tc", 10.0, 3.0);
  if (!obs::lint_trace(counters).empty()) {
    std::fprintf(stderr, "selftest: clean counter event flagged\n");
    ++failures;
  }
  counters.add_counter(0, "", "tc", 20.0, 4.0);
  if (obs::lint_trace(counters).empty()) {
    std::fprintf(stderr, "selftest: unnamed counter event not flagged\n");
    ++failures;
  }

  // A phase the producers never write (here a begin half) is flagged.
  if (obs::lint_trace(obs::Trace::from_json(obs::json::Value::parse(
          R"({"traceEvents":[{"name":"a","ph":"B","tid":0,"ts":1}]})")))
          .empty()) {
    std::fprintf(stderr, "selftest: unknown phase code not flagged\n");
    ++failures;
  }

  // --- flight recorder snapshots -----------------------------------------
  // This thread is no rank, so both recorders write their world ring.

  // A ring that wrapped mid-span: the end whose begin was overwritten is
  // dropped, and what is left nests.
  {
    obs::FlightRecorder recorder(/*ranks=*/1, /*capacity=*/4);
    recorder.span_begin("outer", "pre");
    for (int i = 0; i < 4; ++i) recorder.counter("tick", "pre", i);
    recorder.span_begin("inner", "pre");
    recorder.span_end("inner");
    recorder.span_end("outer");
    const obs::Trace wrapped = recorder.trace();
    // Left: the last tick and the inner span; the outer end is dropped.
    if (wrapped.events().size() != 2 || !obs::lint_trace(wrapped).empty()) {
      std::fprintf(stderr, "selftest: wrapped flight ring not clean\n");
      ++failures;
    }
  }

  // A span still open at the snapshot ends there, around its children.
  {
    obs::FlightRecorder recorder(/*ranks=*/1, /*capacity=*/16);
    recorder.span_begin("open", "tc");
    recorder.span_begin("closed", "tc");
    recorder.span_end("closed");
    recorder.instant("mark", "tc", 1.0);
    const obs::Trace snapshot = recorder.trace();
    if (snapshot.events().size() != 3 || !obs::lint_trace(snapshot).empty()) {
      std::fprintf(stderr, "selftest: open flight span not clean\n");
      ++failures;
    }
  }

  // --- message traces (count --msgtrace) ---------------------------------

  // Parameterized minimal message trace: one send (rank 0, tid 1) and its
  // receive (rank 1, tid 2), joined by flow 1. The defaults are
  // lint-clean; each bad fixture swaps one field.
  auto message_fixture = [](const char* ranks, int peer, double send_dur,
                            int start_id) {
    const char* args = R"("tag":3,"step":0,"gen":0,"id":1,"seq":0,)"
                       R"("bytes":8,"collective":0,"dropped":0)";
    char buf[1536];
    std::snprintf(
        buf, sizeof buf,
        R"({"traceEvents":[)"
        R"({"name":"send","cat":"msg","ph":"X","tid":1,"ts":1,"dur":%g,)"
        R"("args":{"peer":%d,%s}},)"
        R"({"name":"msg","cat":"msg","ph":"s","tid":1,"ts":1,"id":%d},)"
        R"({"name":"recv","cat":"msg","ph":"X","tid":2,"ts":1.5,"dur":1,)"
        R"("args":{"peer":0,%s}},)"
        R"({"name":"msg","cat":"msg","ph":"f","bp":"e","tid":2,"ts":1.5,)"
        R"("id":1}],"otherData":{"ranks":%s,"capacity":16,"rings":[)"
        R"({"tid":1,"recorded":1,"dropped":0},)"
        R"({"tid":2,"recorded":1,"dropped":0},)"
        R"({"tid":0,"recorded":0,"dropped":0}]}})",
        send_dur, peer, args, start_id, args, ranks);
    return obs::Trace::from_json(obs::json::Value::parse(buf));
  };
  if (!obs::lint_trace(message_fixture("2", 1, 1.0, 1)).empty()) {
    std::fprintf(stderr, "selftest: clean message trace flagged\n");
    ++failures;
  }
  if (obs::lint_trace(message_fixture("2", 2, 1.0, 1)).empty()) {
    std::fprintf(stderr, "selftest: msg peer outside the world not flagged\n");
    ++failures;
  }
  // A delivery cannot precede the post of the call that recorded it.
  if (obs::lint_trace(message_fixture("2", 1, -0.5, 1)).empty()) {
    std::fprintf(stderr, "selftest: negative msg span not flagged\n");
    ++failures;
  }
  // The flow starts under another id, so flow 1 has an 'f' and no 's'.
  if (obs::lint_trace(message_fixture("2", 1, 1.0, 2)).empty()) {
    std::fprintf(stderr, "selftest: flow finish without start not flagged\n");
    ++failures;
  }
  // A world size with no int value must be flagged, not converted.
  if (obs::lint_trace(message_fixture("1e20", 1, 1.0, 1)).empty()) {
    std::fprintf(stderr, "selftest: msg world size 1e20 not flagged\n");
    ++failures;
  }

  if (failures == 0) std::printf("selftest: OK\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: tricount_trace_lint <FILE.json...|--metrics "
                 "FILE.json...|--selftest|--version>\n");
    return 2;
  }
  if (std::strcmp(argv[1], "--selftest") == 0) return selftest();
  if (std::strcmp(argv[1], "--version") == 0) {
    std::printf("tricount_trace_lint %s\n",
                tricount::util::build_summary().c_str());
    return 0;
  }
  const bool metrics_mode = std::strcmp(argv[1], "--metrics") == 0;
  if (metrics_mode && argc < 3) {
    std::fprintf(stderr, "usage: tricount_trace_lint %s FILE...\n", argv[1]);
    return 2;
  }
  int status = 0;
  for (int i = metrics_mode ? 2 : 1; i < argc; ++i) {
    status |= metrics_mode ? lint_path(argv[i], lint_metrics_file)
                           : lint_path(argv[i], lint_trace_file);
  }
  return status;
}
