// Flight-recorder + live-telemetry tests (docs/observability.md): the
// ring-buffer overwrite/dropped accounting, the trace() snapshot and its
// one-file Chrome trace dump, the spans of a real run's pipeline layers,
// the chaos instants, the two automatic dump triggers (chaos crash
// injection and the hang watchdog) against real runs, the telemetry
// snapshot/publish/render path, the memory-accounting gauges, and the
// quantile edge cases the telemetry views depend on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "test_seed.hpp"
#include "tricount/chaos/fault_plan.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/serial_count.hpp"
#include "tricount/mpisim/runtime.hpp"
#include "tricount/obs/build_info.hpp"
#include "tricount/obs/flight.hpp"
#include "tricount/obs/json.hpp"
#include "tricount/obs/metrics.hpp"
#include "tricount/obs/telemetry.hpp"
#include "tricount/util/build.hpp"

namespace tricount {
namespace {

namespace fs = std::filesystem;

/// A fresh empty directory under the test temp root; dumps from earlier
/// runs of the same test must not satisfy this run's assertions.
std::string fresh_dump_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("flight_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<std::string> dump_files(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Reads back the one file a flight dump writes.
obs::Trace read_dump(const std::string& dir) {
  return obs::Trace::from_json(obs::json::read_file(dir + "/flight.json"));
}

/// The `otherData.rings` entry of ring `tid`.
const obs::json::Value& ring_info(const obs::Trace& trace, int tid) {
  const obs::json::Value& rings = trace.other_data().get("rings");
  for (std::size_t i = 0; i < rings.size(); ++i) {
    if (rings.at(i).get("tid").as_int() == tid) return rings.at(i);
  }
  throw std::runtime_error("no ring with tid " + std::to_string(tid));
}

/// The args value of every `ph` event named `name` on `tid`, in order.
std::vector<double> values(const obs::Trace& trace, int tid, char ph,
                           const std::string& name) {
  std::vector<double> out;
  for (const obs::TraceEvent& e : trace.events()) {
    if (e.tid == tid && e.ph == ph && e.name == name) {
      out.push_back(e.args.empty() ? 0.0 : e.args.front().second);
    }
  }
  return out;
}

double last_value(const obs::Trace& trace, int tid, char ph,
                  const std::string& name) {
  const std::vector<double> all = values(trace, tid, ph, name);
  return all.empty() ? -1.0 : all.back();
}

// --- ring accounting -------------------------------------------------------

TEST(FlightRecorder, RingOverwritesOldestAndCountsDrops) {
  const std::string dir = fresh_dump_dir("ring");
  obs::FlightRecorder recorder(/*ranks=*/1, /*capacity=*/8);
  // The test thread is not a rank thread, so these land in the trailing
  // "world" ring, tid 0.
  for (int i = 0; i < 20; ++i) {
    recorder.counter("tick", "test", static_cast<double>(i));
  }
  EXPECT_EQ(recorder.dump(dir, "unit-test"), dir + "/flight.json");
  ASSERT_EQ(dump_files(dir).size(), 1u);

  const obs::Trace trace = read_dump(dir);
  EXPECT_TRUE(obs::lint_trace(trace).empty());
  EXPECT_EQ(trace.other_data().get("reason").as_string(), "unit-test");
  EXPECT_EQ(ring_info(trace, 0).get("recorded").as_number(), 20.0);
  EXPECT_EQ(ring_info(trace, 0).get("dropped").as_number(), 12.0);
  // The surviving ticks are 12 to 19, oldest first.
  EXPECT_EQ(values(trace, 0, 'C', "tick"),
            (std::vector<double>{12, 13, 14, 15, 16, 17, 18, 19}));

  // The rank ring (tid 1) never recorded: named, counted, no events.
  EXPECT_EQ(ring_info(trace, 1).get("recorded").as_number(), 0.0);
  EXPECT_EQ(trace.events().size(), 8u);
  EXPECT_EQ(trace.thread_names(),
            (std::vector<std::pair<int, std::string>>{{1, "rank 0"},
                                                      {0, "world"}}));
}

TEST(FlightRecorder, ScopedSpansFeedTheInstalledRecorder) {
  obs::FlightRecorder recorder(1, 32);
  recorder.install();
  {
    obs::ScopedSpan span("unit.work", "test");
  }
  recorder.uninstall();
  const obs::Trace trace = recorder.trace();
  ASSERT_EQ(trace.events().size(), 1u);
  const obs::TraceEvent& span = trace.events().front();
  EXPECT_EQ(span.name, "unit.work");
  EXPECT_EQ(span.cat, "test");
  EXPECT_EQ(span.ph, 'X');
  EXPECT_EQ(span.tid, 0);
  EXPECT_GE(span.dur_us, 0.0);
  EXPECT_TRUE(span.args.empty());  // closed, so not marked open
}

TEST(FlightRecorder, AutoDumpFiresOnceAndOnlyWhenArmed) {
  const std::string dir = fresh_dump_dir("auto");
  obs::FlightRecorder recorder(1, 8);
  // Unarmed: no directory, no dump.
  recorder.try_auto_dump("too-early");
  EXPECT_FALSE(recorder.auto_dumped());
  EXPECT_TRUE(dump_files(dir).empty());

  recorder.set_auto_dump_dir(dir);
  recorder.counter("tick", "test", 1.0);
  recorder.try_auto_dump("first");
  EXPECT_TRUE(recorder.auto_dumped());
  // Second trigger must not overwrite the first (most informative) dump.
  recorder.try_auto_dump("second");
  EXPECT_EQ(read_dump(dir).other_data().get("reason").as_string(), "first");
}

// --- spans and instants of real runs ---------------------------------------

TEST(FlightRecorder, TraceHoldsEachPreprocessingLayerAndTheCount) {
  const int ranks = 4;  // q = 2
  const graph::EdgeList g =
      graph::simplify(graph::watts_strogatz(96, 6, 0.2, 5));
  obs::FlightRecorder recorder(ranks);
  recorder.install();
  core::count_triangles_2d(g, ranks);
  recorder.uninstall();

  const obs::Trace trace = recorder.trace();
  EXPECT_TRUE(obs::lint_trace(trace).empty());
  const std::vector<std::string> layers = {"slice", "redistribute",
                                           "degree_order", "scatter_2d",
                                           "intersect"};
  for (int r = 0; r < ranks; ++r) {
    // Each layer's first span on this rank starts after the last layer's.
    double previous = -1.0;
    for (const std::string& layer : layers) {
      double start = -1.0;
      for (const obs::TraceEvent& e : trace.events()) {
        if (e.tid == r + 1 && e.ph == 'X' && e.name == layer &&
            (start < 0.0 || e.ts_us < start)) {
          start = e.ts_us;
        }
      }
      ASSERT_GE(start, 0.0) << layer << " span missing on rank " << r;
      EXPECT_GT(start, previous) << layer << " out of order on rank " << r;
      previous = start;
    }
  }
}

TEST(FlightRecorder, ChaosDropsAreInstantsOnTheSendersRing) {
  const int ranks = 4;  // q = 2
  const graph::EdgeList g =
      graph::simplify(graph::watts_strogatz(96, 6, 0.2, 7));
  chaos::FaultSpec spec;
  spec.seed = test_support::chaos_seed();
  spec.drop_rate = 0.2;
  core::RunOptions options;
  options.chaos = std::make_shared<const chaos::FaultPlan>(spec, ranks);

  // Large enough that no ring wraps, so every drop is still there.
  obs::FlightRecorder recorder(ranks, 1 << 16);
  recorder.install();
  const core::RunResult r = core::count_triangles_2d(g, ranks, options);
  recorder.uninstall();

  EXPECT_EQ(r.triangles,
            graph::count_triangles_serial(graph::Csr::from_edges(g)));
  ASSERT_GT(r.total_chaos().drops_injected, 0u);
  const obs::Trace trace = recorder.trace();
  EXPECT_TRUE(obs::lint_trace(trace).empty());
  for (int rank = 0; rank < ranks; ++rank) {
    ASSERT_EQ(ring_info(trace, rank + 1).get("dropped").as_number(), 0.0);
    EXPECT_EQ(values(trace, rank + 1, 'i', "chaos.drop").size(),
              r.per_rank_chaos[static_cast<std::size_t>(rank)].drops_injected)
        << "rank " << rank;
  }
}

// --- automatic dumps against real runs -------------------------------------

TEST(FlightRecorder, ChaosCrashDumpEndsAtTheCrashSuperstep) {
  const std::string dir = fresh_dump_dir("crash");
  const int ranks = 4;  // q = 2
  const int crash_step = 1;
  const graph::EdgeList g =
      graph::simplify(graph::watts_strogatz(96, 6, 0.2, 7));

  chaos::FaultSpec spec;
  spec.seed = test_support::chaos_seed();
  spec.crash_superstep = crash_step;
  const auto plan = std::make_shared<const chaos::FaultPlan>(spec, ranks);

  obs::FlightRecorder recorder(ranks);
  recorder.set_auto_dump_dir(dir);
  recorder.install();
  core::RunOptions options;
  options.chaos = plan;
  const core::RunResult r = core::count_triangles_2d(g, ranks, options);
  recorder.uninstall();

  // The run still recovers and produces the exact count...
  EXPECT_EQ(r.triangles,
            graph::count_triangles_serial(graph::Csr::from_edges(g)));
  EXPECT_EQ(r.total_chaos().crashes, 1u);
  // ...but the crash armed an automatic dump at the moment of failure.
  ASSERT_TRUE(recorder.auto_dumped());
  ASSERT_EQ(dump_files(dir).size(), 1u);

  const obs::Trace trace = read_dump(dir);
  EXPECT_TRUE(obs::lint_trace(trace).empty());
  EXPECT_EQ(trace.other_data().get("reason").as_string(), "chaos-crash");
  // The crashing rank's ring ends at the failed superstep: its last
  // superstep counter and the chaos.crash marker both carry the step.
  const int tid = plan->crash_rank() + 1;
  EXPECT_EQ(last_value(trace, tid, 'C', "superstep"),
            static_cast<double>(crash_step));
  EXPECT_EQ(last_value(trace, tid, 'i', "chaos.crash"),
            static_cast<double>(crash_step));
}

TEST(FlightRecorder, WatchdogStallDumpsBeforeFailingTheWorld) {
  const std::string dir = fresh_dump_dir("stall");
  obs::FlightRecorder recorder(2);
  recorder.set_auto_dump_dir(dir);
  recorder.install();
  try {
    mpisim::WorldOptions options;
    options.watchdog_seconds = 0.2;
    mpisim::run_world(
        2,
        [](mpisim::Comm& comm) {
          // Classic deadlock: both ranks receive first.
          comm.recv_value<int>(1 - comm.rank(), 42);
        },
        options);
    FAIL() << "expected ChaosError";
  } catch (const mpisim::ChaosError& e) {
    EXPECT_EQ(e.kind(), mpisim::ChaosError::Kind::kWatchdogStall);
  }
  recorder.uninstall();

  ASSERT_TRUE(recorder.auto_dumped());
  const obs::Trace trace = read_dump(dir);
  EXPECT_TRUE(obs::lint_trace(trace).empty());
  EXPECT_EQ(trace.other_data().get("reason").as_string(), "watchdog-stall");
  // The watchdog thread marks the stall on the world tid before failing
  // the blocked ranks.
  EXPECT_FALSE(values(trace, 0, 'i', "watchdog.stall").empty());
}

// --- live telemetry --------------------------------------------------------

TEST(Telemetry, SnapshotPublishesAndRendersAtomically) {
  obs::Telemetry telemetry(2);
  telemetry.rank(0).phase.store("tc", std::memory_order_relaxed);
  telemetry.rank(0).superstep.store(1, std::memory_order_relaxed);
  telemetry.rank(0).total_supersteps.store(2, std::memory_order_relaxed);
  telemetry.rank(0).triangles.store(42, std::memory_order_relaxed);
  telemetry.rank(1).graph_bytes.store(1024, std::memory_order_relaxed);

  const obs::json::Value snapshot = telemetry.snapshot_json();
  EXPECT_EQ(snapshot.get("schema").as_string(), "tricount.telemetry.v1");
  EXPECT_EQ(snapshot.get("ranks").as_number(), 2.0);
  EXPECT_EQ(snapshot.get("per_rank").size(), 2u);
  EXPECT_EQ(snapshot.get("totals").get("triangles").as_number(), 42.0);
  ASSERT_TRUE(snapshot.find("build") != nullptr);

  // publish() must round-trip through the filesystem with no tmp file
  // left behind.
  const std::string dir = fresh_dump_dir("telemetry");
  const std::string path = dir + "/live.json";
  telemetry.publish(path);
  const obs::json::Value reread = obs::json::read_file(path);
  EXPECT_EQ(reread.get("schema").as_string(), "tricount.telemetry.v1");
  EXPECT_EQ(dump_files(dir).size(), 1u);

  // The rendered table carries the per-rank rows; a wrong schema throws.
  const std::string rendered = obs::render_telemetry(reread);
  EXPECT_NE(rendered.find("tc"), std::string::npos);
  EXPECT_NE(rendered.find("1/2"), std::string::npos);
  obs::json::Value wrong;
  wrong.set("schema", "tricount.metrics.v2");
  EXPECT_THROW(obs::render_telemetry(wrong), std::runtime_error);
}

TEST(Telemetry, TracksALiveRunThroughCompletion) {
  const int ranks = 4;  // q = 2
  const graph::EdgeList g =
      graph::simplify(graph::watts_strogatz(96, 6, 0.2, 11));
  obs::Telemetry telemetry(ranks);
  telemetry.install();
  const core::RunResult r = core::count_triangles_2d(g, ranks);
  telemetry.uninstall();

  std::uint64_t triangles = 0;
  for (int rank = 0; rank < ranks; ++rank) {
    const obs::RankTelemetry& t = telemetry.rank(rank);
    EXPECT_STREQ(t.phase.load(std::memory_order_relaxed), "done");
    // The final update parks superstep at total_supersteps.
    EXPECT_EQ(t.superstep.load(std::memory_order_relaxed), r.grid_q);
    EXPECT_EQ(t.total_supersteps.load(std::memory_order_relaxed), r.grid_q);
    EXPECT_GT(t.graph_bytes.load(std::memory_order_relaxed), 0u);
    EXPECT_GT(t.scratch_bytes.load(std::memory_order_relaxed), 0u);
    triangles += t.triangles.load(std::memory_order_relaxed);
  }
  EXPECT_EQ(triangles, static_cast<std::uint64_t>(r.triangles));
}

TEST(Telemetry, ExportsMemoryGaugesThatRoundTripThroughSnapshots) {
  obs::Telemetry telemetry(2);
  telemetry.rank(0).graph_bytes.store(100, std::memory_order_relaxed);
  telemetry.rank(1).graph_bytes.store(28, std::memory_order_relaxed);
  telemetry.rank(0).partition_bytes.store(64, std::memory_order_relaxed);
  telemetry.rank(1).scratch_bytes.store(32, std::memory_order_relaxed);
  telemetry.rank(0).mailbox_bytes.store(16, std::memory_order_relaxed);

  obs::Registry registry;
  registry.counter("tc.triangles").inc(9);
  telemetry.export_memory_gauges(registry);

  // The gauges survive a JSON round trip alongside ordinary metrics —
  // the contract ad-hoc consumers (not the run artifact) rely on.
  const obs::Snapshot before = registry.snapshot();
  const obs::Snapshot after = obs::Snapshot::from_json(before.to_json());
  EXPECT_EQ(after, before);
  EXPECT_DOUBLE_EQ(after.gauges.at("obs.mem.graph_bytes"), 128.0);
  EXPECT_DOUBLE_EQ(after.gauges.at("obs.mem.partition_bytes"), 64.0);
  EXPECT_DOUBLE_EQ(after.gauges.at("obs.mem.scratch_bytes"), 32.0);
  EXPECT_DOUBLE_EQ(after.gauges.at("obs.mem.mailbox_bytes"), 16.0);
  EXPECT_EQ(after.counters.at("tc.triangles"), 9u);
}

// --- quantile edge cases (feeds tricount_top / the perf report) ------------

TEST(Metrics, QuantileEdgeCases) {
  const double nan = std::numeric_limits<double>::quiet_NaN();

  obs::Snapshot::HistogramValue empty;
  EXPECT_EQ(empty.quantile(0.5), 0.0);

  obs::Registry registry;
  obs::Histogram& h = registry.histogram("lat");
  h.observe(3.0);
  const obs::Snapshot::HistogramValue single =
      registry.snapshot().histograms.at("lat");
  EXPECT_EQ(single.quantile(0.0), 3.0);
  EXPECT_EQ(single.quantile(0.5), 3.0);
  EXPECT_EQ(single.quantile(1.0), 3.0);

  h.observe(1.0);
  h.observe(100.0);
  const obs::Snapshot::HistogramValue spread =
      registry.snapshot().histograms.at("lat");
  // q outside [0, 1] clamps to the exact extremes.
  EXPECT_EQ(spread.quantile(-0.5), 1.0);
  EXPECT_EQ(spread.quantile(0.0), 1.0);
  EXPECT_EQ(spread.quantile(1.0), 100.0);
  EXPECT_EQ(spread.quantile(1.5), 100.0);
  // Interior quantiles stay within the observed range.
  const double p50 = spread.quantile(0.5);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 100.0);
  // A NaN q propagates instead of picking an arbitrary bucket.
  EXPECT_TRUE(std::isnan(spread.quantile(nan)));

  // NaN samples are rejected: count and extremes are unchanged.
  h.observe(nan);
  const obs::Snapshot::HistogramValue after =
      registry.snapshot().histograms.at("lat");
  EXPECT_EQ(after.count, 3u);
  EXPECT_EQ(after.min, 1.0);
  EXPECT_EQ(after.max, 100.0);
}

// --- build provenance ------------------------------------------------------

TEST(BuildInfo, CarriesVersionCompilerAndOptions) {
  const obs::json::Value info = obs::build_info_json();
  for (const char* key :
       {"version", "git", "build_type", "compiler", "options"}) {
    const obs::json::Value* v = info.find(key);
    ASSERT_TRUE(v != nullptr) << key;
    EXPECT_TRUE(v->is_string()) << key;
  }
  EXPECT_FALSE(info.get("version").as_string().empty());
  EXPECT_FALSE(info.get("compiler").as_string().empty());

  const std::string summary = util::build_summary();
  EXPECT_NE(summary.find(info.get("version").as_string()),
            std::string::npos);
}

}  // namespace
}  // namespace tricount
