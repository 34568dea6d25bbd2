// Flight-recorder + live-telemetry tests (docs/observability.md): the
// ring-buffer overwrite/dropped accounting, the trace() snapshot and its
// one-file Chrome trace dump, the spans of a real run's pipeline layers,
// the chaos instants, the two automatic dump triggers (chaos crash
// injection and the hang watchdog) against real runs, the live view's
// publish/render path and its reading of every counting loop, and the
// quantile edge cases the live views depend on.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "test_seed.hpp"
#include "tricount/baselines/aop1d.hpp"
#include "tricount/baselines/push_based1d.hpp"
#include "tricount/baselines/wedge_counting.hpp"
#include "tricount/cetric/cetric.hpp"
#include "tricount/chaos/fault_plan.hpp"
#include "tricount/core/artifacts.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/core/summa2d.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/serial_count.hpp"
#include "tricount/mpisim/runtime.hpp"
#include "tricount/obs/build_info.hpp"
#include "tricount/obs/flight.hpp"
#include "tricount/obs/json.hpp"
#include "tricount/obs/metrics.hpp"
#include "tricount/service/service.hpp"
#include "tricount/util/build.hpp"
#include "tricount/util/log.hpp"

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
  const graph::EdgeList g =
      graph::simplify(graph::watts_strogatz(96, 6, 0.2, 5));
  const auto check = [&](int ranks, const auto& count,
                         const std::vector<std::string>& layers) {
    obs::FlightRecorder recorder(ranks);
    recorder.install();
    count();
    recorder.uninstall();

    const obs::Trace trace = recorder.trace();
    EXPECT_TRUE(obs::lint_trace(trace).empty());
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
  };
  check(4, [&] { return core::count_triangles_2d(g, 4); },  // q = 2
        {"slice", "redistribute", "degree_order", "scatter_2d", "intersect"});
  // SUMMA shares the first three layers, then scatters its panels and
  // intersects them once per panel step.
  core::SummaOptions summa;
  summa.grid_rows = 2;
  summa.grid_cols = 3;
  check(6, [&] { return core::count_triangles_summa(g, summa); },
        {"slice", "redistribute", "degree_order", "scatter_summa",
         "intersect"});
  // cetric slices, splits the vertices into ranges, pulls its ghost rows
  // and then counts.
  check(3, [&] { return cetric::count_triangles_cetric(g, 3); },
        {"slice", "partition", "ghost", "intersect"});
  // The 1D baselines slice, then run their pre steps; their one counting
  // superstep opens no span.
  check(3, [&] { return baselines::count_triangles_aop1d(g, 3); },
        {"slice", "preprocess", "overlap"});
  check(3, [&] { return baselines::count_triangles_push1d(g, 3); },
        {"slice", "preprocess"});
  check(3, [&] { return baselines::count_triangles_wedge(g, 3); },
        {"slice", "twocore"});
}

TEST(FlightRecorder, EveryAlgorithmSpansItsPreStepsAndCountsItsSupersteps) {
  // One marker makes every modeled step: each pre step of the metrics
  // artifact is a span of the same name on every rank, and each rank's
  // last superstep counter reads the run's counting supersteps.
  const graph::EdgeList g =
      graph::simplify(graph::watts_strogatz(96, 6, 0.2, 9));
  const auto check = [&](int ranks, const auto& count) {
    obs::FlightRecorder recorder(ranks);
    recorder.install();
    const core::RunResult r = count();
    recorder.uninstall();

    const obs::Trace trace = recorder.trace();
    ASSERT_TRUE(obs::lint_trace(trace).empty()) << r.algorithm;
    const obs::json::Value metrics = core::build_run_metrics(r);
    const obs::json::Value& steps = metrics.get("steps");
    std::size_t pre_steps = 0;
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const obs::json::Value& step = steps.at(i);
      if (step.get("phase").as_string() != "pre") continue;
      ++pre_steps;
      const std::string name = step.get("name").as_string();
      for (int rank = 0; rank < ranks; ++rank) {
        EXPECT_FALSE(values(trace, rank + 1, 'X', name).empty())
            << r.algorithm << ": no '" << name << "' span on rank " << rank;
      }
    }
    EXPECT_EQ(pre_steps, r.num_steps()) << r.algorithm;
    ASSERT_GT(r.num_shifts(), 0u) << r.algorithm;
    for (int rank = 0; rank < ranks; ++rank) {
      EXPECT_EQ(last_value(trace, rank + 1, 'C', "superstep"),
                static_cast<double>(r.num_shifts()))
          << r.algorithm << ", rank " << rank;
    }
  };
  check(4, [&] { return core::count_triangles_2d(g, 4); });
  core::SummaOptions summa;
  summa.grid_rows = 2;
  summa.grid_cols = 3;
  check(6, [&] { return core::count_triangles_summa(g, summa); });
  check(3, [&] { return cetric::count_triangles_cetric(g, 3); });
  check(3, [&] { return baselines::count_triangles_aop1d(g, 3); });
  check(3, [&] { return baselines::count_triangles_push1d(g, 3); });
  check(3, [&] { return baselines::count_triangles_wedge(g, 3); });
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

/// The events of `ph` on `tid` whose args carry "open".
std::size_t open_spans(const obs::Trace& trace, int tid) {
  std::size_t open = 0;
  for (const obs::TraceEvent& e : trace.events()) {
    if (e.tid == tid && e.ph == 'X' && e.arg("open") != nullptr) ++open;
  }
  return open;
}

TEST(Telemetry, SnapshotPublishesAndRendersAtomically) {
  obs::FlightRecorder recorder(2, 64);
  // Rank 0 is inside its intersection of superstep 1 of 2.
  util::set_current_rank(0);
  recorder.span_begin("intersect", "tc");
  recorder.counter("superstep", "tc", 1.0);
  util::set_current_rank(-1);
  recorder.gauges(0).total_supersteps.store(2, std::memory_order_relaxed);
  recorder.gauges(0).triangles.store(42, std::memory_order_relaxed);
  recorder.gauges(1).graph_bytes.store(1024, std::memory_order_relaxed);

  const obs::Trace live = recorder.live_trace();
  EXPECT_EQ(live.other_data().get("ranks").as_number(), 2.0);
  EXPECT_EQ(ring_info(live, 1).get("recorded").as_number(), 2.0);
  EXPECT_EQ(ring_info(live, 2).get("recorded").as_number(), 0.0);
  EXPECT_EQ(last_value(live, 1, 'C', "triangles") +
                std::max(0.0, last_value(live, 2, 'C', "triangles")),
            42.0);
  ASSERT_TRUE(live.other_data().find("build") != nullptr);
  EXPECT_EQ(open_spans(live, 1), 1u);
  EXPECT_TRUE(obs::lint_trace(live).empty());

  // publish() must round-trip through the filesystem with no tmp file
  // left behind.
  const std::string dir = fresh_dump_dir("telemetry");
  const std::string path = dir + "/live.json";
  live.publish(path);
  const obs::Trace reread = obs::Trace::from_json(obs::json::read_file(path));
  EXPECT_EQ(reread.other_data().get("ranks").as_number(), 2.0);
  EXPECT_EQ(dump_files(dir).size(), 1u);

  // The rendered table carries the per-rank rows: the open span is the
  // phase and the superstep counter the progress. A trace that is no
  // live view throws.
  const std::string rendered = obs::render_telemetry(reread);
  EXPECT_NE(rendered.find("intersect"), std::string::npos);
  EXPECT_NE(rendered.find("1/2"), std::string::npos);
  EXPECT_THROW(obs::render_telemetry(obs::Trace{}), std::runtime_error);
}

TEST(Telemetry, ConcurrentPublishersNeverTearTheFile) {
  // A publisher thread and a signal flush may publish one path at once;
  // a reader must only ever see whole files, and no publish may fail.
  obs::FlightRecorder recorder(16, 64);
  for (int r = 0; r < 16; ++r) {
    recorder.gauges(r).graph_bytes.store(1024u * static_cast<unsigned>(r + 1),
                                         std::memory_order_relaxed);
  }
  const obs::Trace live = recorder.live_trace();
  const std::string dir = fresh_dump_dir("publishers");
  const std::string path = dir + "/live.json";
  live.publish(path);

  constexpr int kPublishes = 3000;
  std::atomic<int> failed_publishes{0};
  std::atomic<int> writers{2};
  const auto publisher = [&] {
    for (int i = 0; i < kPublishes; ++i) {
      try {
        live.publish(path);
      } catch (const std::exception&) {
        ++failed_publishes;
      }
    }
    --writers;
  };
  int reads = 0;
  int torn_reads = 0;
  std::thread a(publisher);
  std::thread b(publisher);
  while (writers.load() > 0) {
    ++reads;
    try {
      const obs::Trace seen = obs::Trace::from_json(obs::json::read_file(path));
      if (seen.events().size() != live.events().size()) ++torn_reads;
    } catch (const std::exception&) {
      ++torn_reads;
    }
  }
  a.join();
  b.join();
  EXPECT_GT(reads, 0);
  EXPECT_EQ(torn_reads, 0) << "of " << reads << " reads";
  EXPECT_EQ(failed_publishes.load(), 0) << "of " << 2 * kPublishes;
  EXPECT_EQ(dump_files(dir).size(), 1u);  // no temporary left behind
}

TEST(Telemetry, TracksALiveRunThroughCompletion) {
  const graph::EdgeList g =
      graph::simplify(graph::watts_strogatz(96, 6, 0.2, 11));
  // `count` runs one count with the recorder installed and returns its
  // triangles and steps.
  const auto check = [&](int ranks, const auto& count, const char* where) {
    obs::FlightRecorder recorder(ranks);
    recorder.install();
    const auto [triangles, steps] = count();
    recorder.uninstall();

    const obs::Trace live = recorder.live_trace();
    EXPECT_TRUE(obs::lint_trace(live).empty()) << where;
    double sum = 0.0;
    for (int rank = 0; rank < ranks; ++rank) {
      const int tid = rank + 1;
      EXPECT_EQ(open_spans(live, tid), 0u) << where << ", rank " << rank;
      // The last superstep counter reads the step count: "done".
      EXPECT_EQ(last_value(live, tid, 'C', "superstep"), steps) << where;
      EXPECT_EQ(last_value(live, tid, 'C', "total_supersteps"), steps)
          << where;
      EXPECT_GT(last_value(live, tid, 'C', "graph_bytes"), 0.0) << where;
      EXPECT_GT(last_value(live, tid, 'C', "scratch_bytes"), 0.0) << where;
      sum += std::max(0.0, last_value(live, tid, 'C', "triangles"));
    }
    EXPECT_EQ(sum, triangles) << where;
    EXPECT_NE(obs::render_telemetry(live).find(
                  std::to_string(static_cast<int>(steps)) + "/" +
                  std::to_string(static_cast<int>(steps))),
              std::string::npos)
        << where;
  };
  const auto run = [](const core::RunResult& r) {
    return std::pair{static_cast<double>(r.triangles),
                     static_cast<double>(r.num_shifts())};
  };
  check(4, [&] { return run(core::count_triangles_2d(g, 4)); }, "2d, q = 2");
  core::SummaOptions summa;
  summa.grid_rows = 2;
  summa.grid_cols = 3;
  check(6, [&] { return run(core::count_triangles_summa(g, summa)); },
        "summa 2x3");
  check(3, [&] { return run(cetric::count_triangles_cetric(g, 3)); },
        "cetric, 3 ranks");
  // A served 2D count: the daemon's path through the resident partition.
  check(
      4,
      [&] {
        service::ServiceOptions options;
        options.manual_dispatch = true;
        std::vector<std::string> responses;
        service::Service svc(options, [&](const std::string& line) {
          responses.push_back(line);
        });
        svc.load_graph(g, "ws96");
        svc.submit(R"({"id":1,"verb":"count","params":{"algo":"2d"}})");
        svc.drain();
        const obs::json::Value response =
            obs::json::Value::parse(responses.back());
        return std::pair{
            response.get("result").get("triangles").as_number(),
            static_cast<double>(svc.records().back().supersteps)};
      },
      "served 2d");
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
