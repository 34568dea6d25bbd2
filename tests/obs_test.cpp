// Observability layer: JSON round-trips, the live tracer, the metrics
// registry, the mpisim communication matrix, and the exported run
// artifacts (trace + metrics) of a full 2D counting run.
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tricount/core/artifacts.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/mpisim/collectives.hpp"
#include "tricount/mpisim/runtime.hpp"
#include "tricount/obs/flight.hpp"
#include "tricount/obs/json.hpp"
#include "tricount/obs/metrics.hpp"
#include "tricount/obs/trace.hpp"

namespace {

using namespace tricount;

// ---------------------------------------------------------------------------
// json

TEST(Json, RoundTripsNestedValues) {
  obs::json::Value root = obs::json::Value::object();
  root.set("name", "run");
  root.set("count", std::uint64_t{12345678901234ULL});
  root.set("ratio", 0.375);
  root.set("ok", true);
  root.set("nothing", obs::json::Value());
  obs::json::Value list = obs::json::Value::array();
  list.push_back(1);
  list.push_back("two");
  root.set("list", std::move(list));

  const obs::json::Value parsed = obs::json::Value::parse(root.dump(2));
  EXPECT_EQ(parsed.get("name").as_string(), "run");
  EXPECT_EQ(parsed.get("count").as_uint(), 12345678901234ULL);
  EXPECT_DOUBLE_EQ(parsed.get("ratio").as_number(), 0.375);
  EXPECT_TRUE(parsed.get("ok").as_bool());
  EXPECT_TRUE(parsed.get("nothing").is_null());
  EXPECT_EQ(parsed.get("list").size(), 2u);
  EXPECT_EQ(parsed.get("list").at(1).as_string(), "two");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(obs::json::Value::parse("{\"a\": }"), std::runtime_error);
  EXPECT_THROW(obs::json::Value::parse("[1, 2"), std::runtime_error);
  EXPECT_THROW(obs::json::Value::parse("{} trailing"), std::runtime_error);
}

TEST(Json, AsUintRejectsValuesWithoutAUint64) {
  const auto as_uint = [](const char* text) {
    return obs::json::Value::parse(text).as_uint();
  };
  EXPECT_EQ(as_uint("0"), 0u);
  // 2^64 - 2048, the largest double below 2^64.
  EXPECT_EQ(as_uint("18446744073709549568"), 18446744073709549568ULL);
  EXPECT_THROW(as_uint("18446744073709551616"), std::runtime_error);  // 2^64
  EXPECT_THROW(as_uint("1e20"), std::runtime_error);
  EXPECT_THROW(as_uint("-1"), std::runtime_error);
  EXPECT_THROW(as_uint("1.5"), std::runtime_error);
  EXPECT_THROW(as_uint("\"7\""), std::runtime_error);
  // is_uint answers the same question without throwing.
  EXPECT_TRUE(obs::json::Value::parse("18446744073709549568").is_uint());
  EXPECT_FALSE(obs::json::Value::parse("1e20").is_uint());
  EXPECT_FALSE(obs::json::Value::parse("\"7\"").is_uint());
}

TEST(Json, AsIntRejectsValuesOutsideTheRange) {
  const auto parse = [](const char* text) {
    return obs::json::Value::parse(text);
  };
  EXPECT_EQ(parse("2147483647").as_int(), 2147483647);
  EXPECT_EQ(parse("-2147483648").as_int(), -2147483647 - 1);
  EXPECT_THROW(parse("2147483648").as_int(), std::runtime_error);
  EXPECT_THROW(parse("-2147483649").as_int(), std::runtime_error);
  EXPECT_THROW(parse("1e20").as_int(), std::runtime_error);
  EXPECT_THROW(parse("-1e20").as_int(), std::runtime_error);
  EXPECT_THROW(parse("1.5").as_int(), std::runtime_error);
  EXPECT_THROW(parse("\"7\"").as_int(), std::runtime_error);
  EXPECT_EQ(parse("-1").as_int(-1, 3), -1);
  EXPECT_THROW(parse("-2").as_int(-1, 3), std::runtime_error);
  EXPECT_THROW(parse("4").as_int(-1, 3), std::runtime_error);
  EXPECT_TRUE(parse("3").is_int(-1, 3));
  EXPECT_FALSE(parse("1e20").is_int());
}

TEST(Json, TraceReaderRejectsATidPastIntRange) {
  const auto trace = [](const char* tid) {
    return obs::json::Value::parse(
        std::string(R"({"traceEvents":[{"name":"s","ph":"X","tid":)") + tid +
        R"(,"ts":0,"dur":1}]})");
  };
  EXPECT_EQ(obs::Trace::from_json(trace("3")).events().at(0).tid, 3);
  EXPECT_THROW(obs::Trace::from_json(trace("1e20")), std::runtime_error);
}

// ---------------------------------------------------------------------------
// the flight recorder's trace snapshot

TEST(FlightTrace, ProducesValidParseableTrace) {
  constexpr int kRanks = 4;
  obs::FlightRecorder recorder(kRanks);
  recorder.install();
  mpisim::run_world(kRanks, [](mpisim::Comm& comm) {
    obs::ScopedSpan outer("superstep", "test");
    mpisim::barrier(comm);
    std::vector<std::uint64_t> data(8, static_cast<std::uint64_t>(comm.rank()));
    mpisim::allreduce(comm, data, std::plus<std::uint64_t>());
    if (comm.rank() == 0) {
      obs::FlightRecorder::current()->instant("checkpoint", "test");
    }
  });
  recorder.uninstall();

  const obs::Trace collected = recorder.trace();
  EXPECT_FALSE(collected.events().empty());

  // Export -> parse back -> same events and metadata, lint-clean.
  const std::string text = collected.to_json().dump(2);
  const obs::Trace reparsed =
      obs::Trace::from_json(obs::json::Value::parse(text));
  EXPECT_EQ(reparsed.events().size(), collected.events().size());
  EXPECT_EQ(reparsed.other_data().dump(), collected.other_data().dump());
  EXPECT_EQ(reparsed.other_data().get("ranks").as_int(), kRanks);
  EXPECT_TRUE(obs::lint_trace(reparsed).empty());

  // Every rank's timeline (tid = rank + 1) recorded its closed superstep
  // span, and rank 0's also the instant.
  std::set<int> tids_with_superstep;
  int checkpoints = 0;
  for (const obs::TraceEvent& e : reparsed.events()) {
    if (e.name == "superstep" && e.ph == 'X' && e.args.empty()) {
      tids_with_superstep.insert(e.tid);
    }
    if (e.name == "checkpoint" && e.ph == 'i' && e.tid == 1) ++checkpoints;
  }
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_TRUE(tids_with_superstep.count(r + 1)) << "rank " << r;
  }
  EXPECT_EQ(checkpoints, 1);
}

TEST(FlightTrace, OpenSpanIsClosedAtTheSnapshotAndMarkedOpen) {
  obs::FlightRecorder recorder(1);
  recorder.install();
  recorder.span_begin("never closed", "test");
  {
    obs::ScopedSpan inner("inner", "test");
  }
  recorder.uninstall();

  const obs::Trace trace = recorder.trace();
  EXPECT_TRUE(obs::lint_trace(trace).empty());
  ASSERT_EQ(trace.events().size(), 2u);
  const obs::TraceEvent& inner = trace.events().at(0);
  const obs::TraceEvent& open = trace.events().at(1);
  EXPECT_EQ(inner.name, "inner");
  EXPECT_TRUE(inner.args.empty());
  EXPECT_EQ(open.name, "never closed");
  EXPECT_EQ(open.args, (obs::TraceArgs{{"open", 1.0}}));
  // It encloses everything recorded after it.
  EXPECT_LE(open.ts_us, inner.ts_us);
  EXPECT_GE(open.ts_us + open.dur_us, inner.ts_us + inner.dur_us);
}

TEST(FlightTrace, NoRecorderRecordsNothing) {
  ASSERT_EQ(obs::FlightRecorder::current(), nullptr);
  // No recorder installed: spans must be no-ops, not crashes.
  obs::ScopedSpan span("ignored", "test");
}

// ---------------------------------------------------------------------------
// metrics registry

TEST(Metrics, SnapshotRoundTripsThroughJson) {
  obs::Registry registry;
  registry.counter("kernel.lookups").inc(42);
  registry.counter("comm.bytes_sent").inc(1 << 20);
  registry.gauge("phase.pre.modeled_seconds").set(0.125);
  obs::Histogram& h = registry.histogram("tc.shift_compute_seconds", 1e-6);
  h.observe(3e-6);
  h.observe(9e-6);
  h.observe(0.5e-6);

  const obs::Snapshot before = registry.snapshot();
  const obs::Snapshot after = obs::Snapshot::from_json(before.to_json());
  EXPECT_EQ(before, after);
  EXPECT_EQ(after.counters.at("kernel.lookups"), 42u);
  EXPECT_DOUBLE_EQ(after.gauges.at("phase.pre.modeled_seconds"), 0.125);
  EXPECT_EQ(after.histograms.at("tc.shift_compute_seconds").count, 3u);
}

TEST(Metrics, KindMismatchThrows) {
  obs::Registry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), std::logic_error);
  EXPECT_THROW(registry.histogram("x"), std::logic_error);
}

// ---------------------------------------------------------------------------
// communication matrix

TEST(CommMatrix, SumsMatchPerfCountersOnAlltoallv) {
  constexpr int kRanks = 4;
  const mpisim::WorldReport report =
      mpisim::run_world(kRanks, [](mpisim::Comm& comm) {
        // Collective traffic: an alltoallv with rank-dependent volumes.
        std::vector<std::vector<std::uint64_t>> out(kRanks);
        for (int d = 0; d < kRanks; ++d) {
          out[static_cast<std::size_t>(d)].assign(
              static_cast<std::size_t>(comm.rank() + d + 1),
              static_cast<std::uint64_t>(comm.rank()));
        }
        mpisim::alltoallv(comm, out);
        // Plus user point-to-point traffic on a ring.
        const int dest = (comm.rank() + 1) % kRanks;
        const int src = (comm.rank() + kRanks - 1) % kRanks;
        comm.send_value<std::uint64_t>(dest, /*tag=*/7, 99);
        (void)comm.recv_value<std::uint64_t>(src, /*tag=*/7);
      });

  const mpisim::CommMatrix& matrix = report.comm_matrix;
  ASSERT_EQ(matrix.size(), kRanks);

  for (int r = 0; r < kRanks; ++r) {
    const mpisim::PerfCounters& c =
        report.counters[static_cast<std::size_t>(r)];
    const mpisim::CommCell row = matrix.row_total(r);
    const mpisim::CommCell col = matrix.col_total(r);

    // Row r = everything rank r sent; column r = everything it received.
    EXPECT_EQ(row.messages(), c.messages_sent) << "rank " << r;
    EXPECT_EQ(row.bytes(), c.bytes_sent) << "rank " << r;
    EXPECT_EQ(col.messages(), c.messages_received) << "rank " << r;
    EXPECT_EQ(col.bytes(), c.bytes_received) << "rank " << r;

    // The tag-class split is consistent with the counters' split.
    EXPECT_EQ(row.collective_messages, c.collective_messages_sent);
    EXPECT_EQ(row.collective_bytes, c.collective_bytes_sent);
    EXPECT_EQ(row.user_messages, c.user_messages_sent());
    EXPECT_EQ(row.user_bytes, c.user_bytes_sent());

    // The ring send is user traffic and must land in the right cell.
    EXPECT_EQ(matrix.at(r, (r + 1) % kRanks).user_messages, 1u);
    EXPECT_EQ(matrix.at(r, (r + 1) % kRanks).user_bytes,
              sizeof(std::uint64_t));
  }
}

// ---------------------------------------------------------------------------
// run artifacts

class RunArtifactsTest : public ::testing::Test {
 protected:
  static core::RunResult run() {
    graph::RmatParams params;
    params.scale = 8;
    params.edge_factor = 8;
    params.seed = 7;
    const graph::EdgeList g = graph::rmat(params);
    return core::count_triangles_2d(g, /*ranks=*/16, {});
  }
};

TEST_F(RunArtifactsTest, TracePhaseSumsMatchPhaseBreakdown) {
  const core::RunResult result = run();
  const obs::Trace trace = core::build_run_trace(result);
  EXPECT_TRUE(obs::lint_trace(trace).empty());
  // The modeled trace writes an empty otherData object.
  EXPECT_EQ(trace.to_json().get("otherData").dump(), "{}");

  // One timeline per rank plus the modeled summary timeline.
  std::set<int> tids;
  for (const obs::TraceEvent& e : trace.events()) tids.insert(e.tid);
  for (int r = 0; r <= result.ranks; ++r) EXPECT_TRUE(tids.count(r));

  // The modeled timeline's per-phase span sums must agree with the
  // printed PhaseBreakdown within 1% (they are equal by construction).
  std::map<std::string, double> phase_us;
  for (const obs::TraceEvent& e : trace.events()) {
    if (e.tid == 0 && e.ph == 'X') phase_us[e.cat] += e.dur_us;
  }
  const double pre_us = result.pre_modeled_seconds() * 1e6;
  const double tc_us = result.tc_modeled_seconds() * 1e6;
  EXPECT_NEAR(phase_us["pre"], pre_us, 0.01 * pre_us);
  EXPECT_NEAR(phase_us["tc"], tc_us, 0.01 * tc_us);
}

TEST_F(RunArtifactsTest, MetricsJsonHasKernelCountersAndCommMatrix) {
  const core::RunResult result = run();
  const obs::json::Value metrics = core::build_run_metrics(result);

  // Round-trip through text, as a consumer would read the file.
  const obs::json::Value parsed = obs::json::Value::parse(metrics.dump(2));
  EXPECT_EQ(parsed.get("schema").as_string(), "tricount.metrics.v3");
  EXPECT_EQ(parsed.get("run").get("ranks").as_uint(),
            static_cast<std::uint64_t>(result.ranks));
  EXPECT_EQ(parsed.get("run").get("triangles").as_uint(),
            static_cast<std::uint64_t>(result.triangles));

  // Every KernelCounters field is present and matches the run's totals.
  const obs::json::Value& counters = parsed.get("metrics").get("counters");
  const core::KernelCounters kernel = result.total_kernel();
  const std::map<std::string, std::uint64_t> expected{
      {"kernel.intersection_tasks", kernel.intersection_tasks},
      {"kernel.lookups", kernel.lookups},
      {"kernel.hits", kernel.hits},
      {"kernel.probes", kernel.probes},
      {"kernel.hash_builds", kernel.hash_builds},
      {"kernel.direct_builds", kernel.direct_builds},
      {"kernel.rows_visited", kernel.rows_visited},
      {"kernel.early_exits", kernel.early_exits}};
  for (const auto& [name, value] : expected) {
    const obs::json::Value* field = counters.find(name);
    ASSERT_NE(field, nullptr) << name;
    EXPECT_EQ(field->as_uint(), value) << name;
  }

  // The p×p comm matrix rides along, with consistent dimensions; the
  // chaos classes are there on a fault-free run too.
  const obs::json::Value& matrix = parsed.get("comm_matrix");
  const std::uint64_t p = matrix.get("size").as_uint();
  EXPECT_EQ(p, static_cast<std::uint64_t>(result.ranks));
  for (const char* field :
       {"user_messages", "user_bytes", "collective_messages",
        "collective_bytes", "chaos_messages", "chaos_bytes"}) {
    const obs::json::Value& rows = matrix.get(field);
    ASSERT_EQ(rows.size(), p) << field;
    for (std::size_t s = 0; s < p; ++s) {
      ASSERT_EQ(rows.at(s).size(), p) << field << " row " << s;
    }
  }

  // The snapshot embedded in the artifact round-trips as a Snapshot.
  const obs::Snapshot snapshot = obs::Snapshot::from_json(parsed.get("metrics"));
  EXPECT_EQ(snapshot, core::build_run_snapshot(result));
}

}  // namespace
