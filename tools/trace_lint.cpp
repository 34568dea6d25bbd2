// tricount_trace_lint — validates a Chrome trace-event JSON file against
// the invariants obs::lint_trace checks: parseable JSON, known phase
// codes, non-negative timestamps, and per-timeline spans that nest or are
// disjoint (no partial overlap).
//
// Usage:
//   tricount_trace_lint FILE.json...            lint trace files; exit 1 on any violation
//   tricount_trace_lint --metrics FILE.json...  schema-validate tricount.metrics.v3 files
//   tricount_trace_lint --flight FILE.jsonl...  validate tricount.flight.v1 dumps
//   tricount_trace_lint --msgtrace FILE.json... validate tricount.msgtrace.v1 artifacts
//   tricount_trace_lint --service FILE.json...  validate tricount.service.v1 session artifacts
//   tricount_trace_lint --selftest              run the built-in good/bad fixtures
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "tricount/obs/analysis.hpp"
#include "tricount/obs/flight.hpp"
#include "tricount/obs/json.hpp"
#include "tricount/obs/msgtrace.hpp"
#include "tricount/obs/trace.hpp"
#include "tricount/service/artifact.hpp"
#include "tricount/util/build.hpp"

namespace {

using namespace tricount;

int lint_file(const std::string& path) {
  obs::Trace trace;
  try {
    trace = obs::Trace::from_json(obs::json::read_file(path));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 1;
  }
  const std::vector<std::string> violations = obs::lint_trace(trace);
  for (const std::string& v : violations) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), v.c_str());
  }
  if (violations.empty()) {
    std::printf("%s: OK (%zu events)\n", path.c_str(), trace.events().size());
    return 0;
  }
  return 1;
}

int lint_metrics_file(const std::string& path) {
  obs::json::Value root;
  try {
    root = obs::json::read_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 1;
  }
  const std::vector<std::string> violations =
      obs::analysis::lint_metrics(root);
  for (const std::string& v : violations) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), v.c_str());
  }
  if (violations.empty()) {
    std::printf("%s: OK (%s)\n", path.c_str(), obs::analysis::kMetricsSchema);
    return 0;
  }
  return 1;
}

int lint_flight_file(const std::string& path) {
  obs::FlightDump dump;
  try {
    dump = obs::read_flight_dump(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 1;
  }
  const std::vector<std::string> violations = obs::lint_flight(dump);
  for (const std::string& v : violations) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), v.c_str());
  }
  if (violations.empty()) {
    std::printf("%s: OK (%zu records)\n", path.c_str(), dump.records.size());
    return 0;
  }
  return 1;
}

int lint_msgtrace_file(const std::string& path) {
  obs::json::Value root;
  try {
    root = obs::json::read_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 1;
  }
  const std::vector<std::string> violations = obs::lint_msgtrace(root);
  for (const std::string& v : violations) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), v.c_str());
  }
  if (violations.empty()) {
    const obs::json::Value* recorded = root.find("recorded");
    std::printf("%s: OK (%.0f records)\n", path.c_str(),
                recorded != nullptr && recorded->is_number()
                    ? recorded->as_number()
                    : -1.0);
    return 0;
  }
  return 1;
}

int lint_service_file(const std::string& path) {
  obs::json::Value root;
  try {
    root = obs::json::read_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    return 1;
  }
  const std::vector<std::string> violations = service::lint_service(root);
  for (const std::string& v : violations) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), v.c_str());
  }
  if (violations.empty()) {
    const obs::json::Value* requests = root.find("requests");
    std::printf("%s: OK (%zu requests)\n", path.c_str(),
                requests != nullptr ? requests->size() : std::size_t{0});
    return 0;
  }
  return 1;
}

/// Builds a tricount.flight.v1 dump fixture in memory for the selftest:
/// the well-formed header plus `records` (already-parsed JSON lines).
obs::FlightDump flight_fixture(std::vector<obs::json::Value> records) {
  obs::FlightDump dump;
  dump.header = obs::json::Value::parse(
      R"({"schema":"tricount.flight.v1","stream":"rank","rank":0,)"
      R"("ranks":4,"capacity":16,"recorded":2,"dropped":0,)"
      R"("reason":"selftest","build":{}})");
  dump.records = std::move(records);
  return dump;
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

  // --- tricount.flight.v1 fixtures ---------------------------------------

  // Clean dump: monotonic timestamps, known kinds.
  {
    std::vector<obs::json::Value> records;
    records.push_back(obs::json::Value::parse(
        R"({"ts_us":1.0,"kind":"begin","name":"intersect","cat":"tc"})"));
    records.push_back(obs::json::Value::parse(
        R"({"ts_us":2.0,"kind":"counter","name":"superstep","cat":"tc",)"
        R"("value":3})"));
    if (!obs::lint_flight(flight_fixture(std::move(records))).empty()) {
      std::fprintf(stderr, "selftest: clean flight dump flagged\n");
      ++failures;
    }
  }

  // Decreasing timestamps must be flagged.
  {
    std::vector<obs::json::Value> records;
    records.push_back(obs::json::Value::parse(
        R"({"ts_us":5.0,"kind":"instant","name":"a","cat":"tc","value":0})"));
    records.push_back(obs::json::Value::parse(
        R"({"ts_us":1.0,"kind":"instant","name":"b","cat":"tc","value":0})"));
    if (obs::lint_flight(flight_fixture(std::move(records))).empty()) {
      std::fprintf(stderr, "selftest: flight ts regression not flagged\n");
      ++failures;
    }
  }

  // Unknown record kind and a broken header must both be flagged.
  {
    std::vector<obs::json::Value> records;
    records.push_back(obs::json::Value::parse(
        R"({"ts_us":1.0,"kind":"jump","name":"a","cat":"tc"})"));
    if (obs::lint_flight(flight_fixture(std::move(records))).empty()) {
      std::fprintf(stderr, "selftest: unknown flight kind not flagged\n");
      ++failures;
    }
    obs::FlightDump bad_header = flight_fixture({});
    bad_header.header.set("schema", "tricount.flight.v999");
    bad_header.header.set("rank", 7);  // >= ranks
    if (obs::lint_flight(bad_header).size() < 2) {
      std::fprintf(stderr, "selftest: bad flight header not fully flagged\n");
      ++failures;
    }
  }

  // --- tricount.msgtrace.v1 fixtures --------------------------------------

  // Parameterized minimal artifact: one send (rank 0) and one matched
  // recv (rank 1). The defaults are lint-clean; each bad fixture swaps
  // one field.
  auto msgtrace_fixture = [](const char* schema, const char* send_kind,
                             double send_wire_us) {
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        R"({"schema":"%s","capacity":16,"recorded":2,"dropped":0,)"
        R"("run":{"ranks":2},"ranks":[)"
        R"({"rank":0,"recorded":1,"dropped":0,"records":[)"
        R"({"kind":"%s","peer":1,"tag":3,"step":-1,"gen":0,"id":1,"seq":0,)"
        R"("bytes":8,"post_us":1.0,"wire_us":%g}]},)"
        R"({"rank":1,"recorded":1,"dropped":0,"records":[)"
        R"({"kind":"recv","peer":0,"tag":3,"step":0,"gen":0,"id":1,"seq":0,)"
        R"("bytes":8,"post_us":1.5,"wire_us":2.5}]}]})",
        schema, send_kind, send_wire_us);
    return obs::json::Value::parse(buf);
  };
  if (!obs::lint_msgtrace(msgtrace_fixture("tricount.msgtrace.v1", "send", 2.0))
           .empty()) {
    std::fprintf(stderr, "selftest: clean msgtrace flagged\n");
    ++failures;
  }
  // wire_us before post_us must be flagged (delivery cannot precede the
  // post of the very call that recorded it).
  if (obs::lint_msgtrace(msgtrace_fixture("tricount.msgtrace.v1", "send", 0.5))
          .empty()) {
    std::fprintf(stderr, "selftest: msgtrace wire<post not flagged\n");
    ++failures;
  }
  // Unknown record kind and a bad schema must both be flagged.
  if (obs::lint_msgtrace(
          msgtrace_fixture("tricount.msgtrace.v1", "teleport", 2.0))
          .empty()) {
    std::fprintf(stderr, "selftest: unknown msgtrace kind not flagged\n");
    ++failures;
  }
  if (obs::lint_msgtrace(
          msgtrace_fixture("tricount.msgtrace.v999", "send", 2.0))
          .empty()) {
    std::fprintf(stderr, "selftest: bad msgtrace schema not flagged\n");
    ++failures;
  }
  // A world size with no int value must be flagged, not converted.
  if (obs::lint_msgtrace(obs::json::Value::parse(
          R"({"schema":"tricount.msgtrace.v1","capacity":16,"recorded":0,)"
          R"("dropped":0,"run":{"ranks":1e20},"ranks":[]})"))
          .empty()) {
    std::fprintf(stderr, "selftest: msgtrace run.ranks 1e20 not flagged\n");
    ++failures;
  }

  // --- tricount.service.v1 fixtures ---------------------------------------

  // Parameterized minimal session artifact: one miss then one hit of the
  // same count query. The defaults are lint-clean; each bad fixture
  // swaps one field.
  auto service_fixture = [](const char* schema, std::uint64_t hits,
                            std::uint64_t hit_supersteps) {
    char buf[1536];
    std::snprintf(
        buf, sizeof buf,
        R"({"schema":"%s","build":{},"ranks":4,"session":{)"
        R"("requests":2,"admitted":2,"shed":0,"rejected":0,"errors":0,)"
        R"("jobs":2,"graph_version":1,)"
        R"("delta":{"batches":0,"edges_applied":0,"wedges_probed":0,)"
        R"("triangles_added":0,"triangles_removed":0},)"
        R"("cache":{"hits":%llu,"misses":1,"evictions":0,"invalidations":0,)"
        R"("size":1,"capacity":128},)"
        R"("latency_us":{"count":2,"p50":10.0,"p95":90.0,"p99":99.0,)"
        R"("max":100.0}},"metrics":{"counters":{},"gauges":{},)"
        R"("histograms":{}},"requests":[)"
        R"({"id":1,"verb":"count","graph_version":1,"cache":"miss",)"
        R"("batched":false,"ok":true,"latency_us":100.0,"supersteps":2},)"
        R"({"id":2,"verb":"count","graph_version":1,"cache":"hit",)"
        R"("batched":false,"ok":true,"latency_us":10.0,"supersteps":%llu}]})",
        schema, static_cast<unsigned long long>(hits),
        static_cast<unsigned long long>(hit_supersteps));
    return obs::json::Value::parse(buf);
  };
  if (!service::lint_service(service_fixture("tricount.service.v1", 1, 0))
           .empty()) {
    std::fprintf(stderr, "selftest: clean service artifact flagged\n");
    ++failures;
  }
  // A cache hit that ran counting supersteps violates the resident-
  // partition contract and must be flagged.
  if (service::lint_service(service_fixture("tricount.service.v1", 1, 2))
          .empty()) {
    std::fprintf(stderr, "selftest: service hit-with-supersteps not flagged\n");
    ++failures;
  }
  // Hit accounting that disagrees with the records must be flagged.
  if (service::lint_service(service_fixture("tricount.service.v1", 5, 0))
          .empty()) {
    std::fprintf(stderr, "selftest: service hit mismatch not flagged\n");
    ++failures;
  }
  if (service::lint_service(service_fixture("tricount.service.v999", 1, 0))
          .empty()) {
    std::fprintf(stderr, "selftest: bad service schema not flagged\n");
    ++failures;
  }
  // Delta tallies without any applied batch are unaccounted streaming
  // work and must be flagged (docs/streaming.md reconciliation).
  {
    std::string broken =
        service_fixture("tricount.service.v1", 1, 0).dump();
    const std::string zero = R"("delta":{"batches":0,"edges_applied":0)";
    const std::string bad = R"("delta":{"batches":0,"edges_applied":5)";
    broken.replace(broken.find(zero), zero.size(), bad);
    if (service::lint_service(obs::json::Value::parse(broken)).empty()) {
      std::fprintf(stderr,
                   "selftest: batchless delta tallies not flagged\n");
      ++failures;
    }
  }

  if (failures == 0) std::printf("selftest: OK\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: tricount_trace_lint <FILE.json...|--metrics "
                 "FILE.json...|--flight FILE.jsonl...|--msgtrace "
                 "FILE.json...|--service FILE.json...|--selftest|"
                 "--version>\n");
    return 2;
  }
  if (std::strcmp(argv[1], "--selftest") == 0) return selftest();
  if (std::strcmp(argv[1], "--version") == 0) {
    std::printf("tricount_trace_lint %s\n",
                tricount::util::build_summary().c_str());
    return 0;
  }
  const bool metrics_mode = std::strcmp(argv[1], "--metrics") == 0;
  const bool flight_mode = std::strcmp(argv[1], "--flight") == 0;
  const bool msgtrace_mode = std::strcmp(argv[1], "--msgtrace") == 0;
  const bool service_mode = std::strcmp(argv[1], "--service") == 0;
  const bool has_mode =
      metrics_mode || flight_mode || msgtrace_mode || service_mode;
  if (has_mode && argc < 3) {
    std::fprintf(stderr, "usage: tricount_trace_lint %s FILE...\n", argv[1]);
    return 2;
  }
  int status = 0;
  for (int i = has_mode ? 2 : 1; i < argc; ++i) {
    if (metrics_mode) {
      status |= lint_metrics_file(argv[i]);
    } else if (flight_mode) {
      status |= lint_flight_file(argv[i]);
    } else if (msgtrace_mode) {
      status |= lint_msgtrace_file(argv[i]);
    } else if (service_mode) {
      status |= lint_service_file(argv[i]);
    } else {
      status |= lint_file(argv[i]);
    }
  }
  return status;
}
