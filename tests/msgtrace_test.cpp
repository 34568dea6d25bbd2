// Causal message-trace tests (docs/observability.md): capture around
// real 2D and SUMMA runs, the message trace's JSON round trip and lint,
// the measured critical path's telescoping reconciliation against the
// observed makespan, wait-state sanity, causal edges surviving chaos
// drop/reorder/duplicate faults (with retransmissions attributed, not
// double-counted), measured-vs-modeled overlap bounds under --overlap,
// the chaos columns of the p x p comm matrix, and the off-mode /
// capacity-drop accounting the byte-stability gate relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tricount/chaos/fault_plan.hpp"
#include "tricount/core/artifacts.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/core/summa2d.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/serial_count.hpp"
#include "tricount/obs/analysis.hpp"
#include "tricount/obs/flight.hpp"
#include "tricount/obs/json.hpp"
#include "tricount/obs/msgtrace.hpp"
#include "tricount/obs/trace.hpp"

namespace tricount {
namespace {

namespace analysis = obs::analysis;

graph::EdgeList test_graph() {
  return graph::simplify(graph::watts_strogatz(120, 6, 0.2, 7));
}

struct TracedRun {
  core::RunResult result;
  obs::Trace artifact;
};

/// Runs `count` on `ranks` ranks with a MsgTrace installed for its
/// duration and returns both the run and its message trace.
template <typename Count>
TracedRun capture(int ranks, Count&& count,
                  std::size_t capacity = std::size_t{1} << 16) {
  obs::MsgTrace trace(ranks, capacity);
  trace.install();
  core::RunResult result = count();
  trace.uninstall();
  obs::Trace artifact = core::build_run_msgtrace(result, trace);
  return {std::move(result), std::move(artifact)};
}

/// The same around the 2D pipeline.
TracedRun traced_run(const graph::EdgeList& g, int ranks,
                     const core::RunOptions& options,
                     std::size_t capacity = std::size_t{1} << 16) {
  return capture(
      ranks, [&] { return core::count_triangles_2d(g, ranks, options); },
      capacity);
}

chaos::FaultSpec faulty_spec() {
  chaos::FaultSpec spec;
  spec.seed = 0xCA05;
  spec.drop_rate = 0.08;
  spec.duplicate_rate = 0.08;
  spec.reorder_rate = 0.10;
  spec.retry_timeout_seconds = 2e-3;
  return spec;
}

// ---------------------------------------------------------------------------
// clean path

TEST(MsgTrace, CleanRunCriticalPathReconcilesWithMakespan) {
  const graph::EdgeList g = test_graph();
  const TracedRun run = traced_run(g, 4, {});

  EXPECT_TRUE(obs::lint_trace(run.artifact).empty());
  const analysis::MsgTraceReport report =
      analysis::MsgTraceReport::from_trace(run.artifact);
  EXPECT_EQ(report.ranks, 4);
  EXPECT_FALSE(report.chaos);
  EXPECT_EQ(report.dropped, 0u);

  const analysis::CausalAnalysis causal = analysis::analyze_msgtrace(report);
  EXPECT_GT(causal.sends, 0u);
  EXPECT_EQ(causal.send_attempts, causal.sends);  // no retransmits
  EXPECT_EQ(causal.retransmit_attempts, 0u);
  EXPECT_EQ(causal.dropped_attempts, 0u);
  EXPECT_EQ(causal.acks, 0u);
  EXPECT_EQ(causal.unmatched_recvs, 0u);
  EXPECT_EQ(causal.matched, causal.recvs);
  EXPECT_FALSE(causal.truncated);

  // The backward walk telescopes: extracted path length equals the
  // observed makespan up to float conversion noise.
  EXPECT_GT(causal.makespan_seconds, 0.0);
  EXPECT_FALSE(causal.path.empty());
  EXPECT_NEAR(causal.path_seconds, causal.makespan_seconds, 1e-9);

  // Path segments are contiguous in time and alternate causally.
  for (std::size_t i = 0; i < causal.path.size(); ++i) {
    EXPECT_LE(causal.path[i].begin_us, causal.path[i].end_us);
    if (i > 0) {
      EXPECT_DOUBLE_EQ(causal.path[i - 1].end_us, causal.path[i].begin_us);
    }
  }

  // Wait states are non-negative and the totals roll up the steps.
  double late_sender = 0.0;
  for (const analysis::CausalStep& step : causal.steps) {
    EXPECT_GE(step.late_sender_seconds, 0.0);
    EXPECT_GE(step.late_receiver_seconds, 0.0);
    EXPECT_GE(step.transfer_seconds, 0.0);
    EXPECT_GT(step.pairs, 0u);
    late_sender += step.late_sender_seconds;
  }
  EXPECT_DOUBLE_EQ(causal.late_sender_seconds, late_sender);

  // Measured overlap on the clean (non-overlapped) path: capped at the
  // modeled hidden time, which is zero when nothing is overlapped.
  for (const analysis::CausalStep& step : causal.steps) {
    EXPECT_GE(step.concurrent_seconds, 0.0);
    EXPECT_GE(step.measured_hidden_seconds, 0.0);
    EXPECT_LE(step.measured_hidden_seconds,
              step.modeled_hidden_seconds + 1e-12);
  }
}

TEST(MsgTrace, ArtifactRoundTripPreservesRecords) {
  const graph::EdgeList g = test_graph();
  const TracedRun run = traced_run(g, 4, {});

  const analysis::MsgTraceReport a =
      analysis::MsgTraceReport::from_trace(run.artifact);
  const analysis::MsgTraceReport b = analysis::MsgTraceReport::from_trace(
      obs::Trace::from_json(obs::json::Value::parse(
          run.artifact.to_json().dump())));
  ASSERT_EQ(a.records.size(), b.records.size());
  std::size_t total = 0;
  for (std::size_t r = 0; r < a.records.size(); ++r) {
    ASSERT_EQ(a.records[r].size(), b.records[r].size());
    total += a.records[r].size();
    for (std::size_t i = 0; i < a.records[r].size(); ++i) {
      const obs::MsgRecord& x = a.records[r][i];
      const obs::MsgRecord& y = b.records[r][i];
      EXPECT_EQ(x.kind, y.kind);
      EXPECT_EQ(x.collective, y.collective);
      EXPECT_EQ(x.dropped, y.dropped);
      EXPECT_EQ(x.peer, y.peer);
      EXPECT_EQ(x.tag, y.tag);
      EXPECT_EQ(x.step, y.step);
      EXPECT_EQ(x.gen, y.gen);
      EXPECT_EQ(x.id, y.id);
      EXPECT_EQ(x.seq, y.seq);
      EXPECT_EQ(x.bytes, y.bytes);
      EXPECT_EQ(x.post_us, y.post_us);
      EXPECT_EQ(x.wire_us, y.wire_us);
    }
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(a.ranks, b.ranks);
  EXPECT_EQ(a.dropped, b.dropped);

  // One flow per message: its 's' on the send, its 'f' on the receive,
  // under the trace id both records carry.
  std::size_t starts = 0;
  std::size_t finishes = 0;
  for (const obs::TraceEvent& e : run.artifact.events()) {
    starts += e.ph == 's';
    finishes += e.ph == 'f';
  }
  std::size_t recvs = 0;
  for (const auto& records : a.records) {
    for (const obs::MsgRecord& m : records) {
      recvs += m.kind == obs::MsgRecord::kRecv;
    }
  }
  EXPECT_EQ(starts, recvs);
  EXPECT_EQ(finishes, recvs);

  // The modeled step table carries every superstep with its phase; the
  // tc entries line up 1:1 with the counting loop's shifts, which is
  // what maps record.step to a modeled prediction.
  ASSERT_FALSE(a.steps.empty());
  std::size_t tc_steps = 0;
  for (const analysis::MsgTraceStep& step : a.steps) {
    EXPECT_TRUE(step.phase == "pre" || step.phase == "tc") << step.phase;
    if (step.phase == "tc") ++tc_steps;
  }
  EXPECT_EQ(tc_steps, run.result.num_shifts());
}

// A SUMMA run writes the same message trace: on a rectangular grid, with
// its panels broadcast or prefetched point to point, the capture lints
// clean and reads back with one modeled tc step per panel step.
TEST(MsgTrace, SummaCaptureLintsCleanAndReadsBack) {
  const graph::EdgeList g = test_graph();
  for (const bool overlap : {false, true}) {
    core::SummaOptions options;
    options.grid_rows = 2;
    options.grid_cols = 3;
    options.config.overlap = overlap;
    const TracedRun run =
        capture(6, [&] { return core::count_triangles_summa(g, options); });
    const std::string where = overlap ? "overlap" : "broadcast";
    for (const std::string& violation : obs::lint_trace(run.artifact)) {
      ADD_FAILURE() << where << ": " << violation;
    }

    const analysis::MsgTraceReport report =
        analysis::MsgTraceReport::from_trace(run.artifact);
    EXPECT_EQ(report.ranks, 6) << where;
    EXPECT_EQ(report.overlap, overlap) << where;
    EXPECT_EQ(report.dropped, 0u) << where;
    std::size_t tc_steps = 0;
    for (const analysis::MsgTraceStep& step : report.steps) {
      tc_steps += step.phase == "tc";
    }
    EXPECT_EQ(tc_steps, run.result.num_shifts()) << where;

    const analysis::CausalAnalysis causal = analysis::analyze_msgtrace(report);
    EXPECT_GT(causal.sends, 0u) << where;
    EXPECT_EQ(causal.unmatched_recvs, 0u) << where;
    EXPECT_EQ(causal.matched, causal.recvs) << where;
    EXPECT_NEAR(causal.path_seconds, causal.makespan_seconds, 1e-9) << where;
  }
}

// ---------------------------------------------------------------------------
// chaos path

TEST(MsgTrace, CausalEdgesSurviveChaosFaults) {
  const graph::EdgeList g = test_graph();
  const graph::TriangleCount expected =
      graph::count_triangles_serial(graph::Csr::from_edges(g));
  const int ranks = 4;

  core::RunOptions options;
  options.chaos = std::make_shared<const chaos::FaultPlan>(faulty_spec(), ranks);
  const TracedRun run = traced_run(g, ranks, options);
  EXPECT_EQ(run.result.triangles, expected);
  EXPECT_TRUE(run.result.chaos_enabled);
  EXPECT_TRUE(obs::lint_trace(run.artifact).empty());

  const analysis::MsgTraceReport report =
      analysis::MsgTraceReport::from_trace(run.artifact);
  EXPECT_TRUE(report.chaos);
  const analysis::CausalAnalysis causal = analysis::analyze_msgtrace(report);

  // Reliable delivery means every application-level receive still joins
  // to a surviving wire attempt — matched pairs survive the faults.
  EXPECT_EQ(causal.unmatched_recvs, 0u);
  EXPECT_EQ(causal.matched, causal.recvs);
  EXPECT_GT(causal.matched, 0u);

  // Retransmissions appear as extra attempts on the same trace id, not
  // as extra logical messages, and the tallies agree with the chaos
  // subsystem's own counters.
  EXPECT_GE(causal.send_attempts, causal.sends);
  const mpisim::ChaosCounters totals = run.result.total_chaos();
  EXPECT_GT(totals.drops_injected, 0u);
  EXPECT_EQ(causal.retransmit_attempts, totals.retransmits);
  EXPECT_EQ(causal.dropped_attempts, totals.drops_injected);
  EXPECT_GT(causal.acks, 0u);

  // The critical path still telescopes under faults.
  EXPECT_NEAR(causal.path_seconds, causal.makespan_seconds, 1e-9);
}

TEST(MsgTrace, ChaosCommMatrixColumnsReconcileWithCounters) {
  const graph::EdgeList g = test_graph();
  const int ranks = 4;
  core::RunOptions options;
  options.chaos = std::make_shared<const chaos::FaultPlan>(faulty_spec(), ranks);
  const core::RunResult result = core::count_triangles_2d(g, ranks, options);
  ASSERT_TRUE(result.chaos_enabled);

  std::uint64_t total_chaos_messages = 0;
  for (int r = 0; r < ranks; ++r) {
    const mpisim::PerfCounters& c =
        result.per_rank_counters[static_cast<std::size_t>(r)];
    const mpisim::CommCell row = result.comm_matrix.row_total(r);
    // user/collective cells exclude retransmissions; messages_sent still
    // counts every data wire attempt.
    EXPECT_EQ(row.messages() + c.chaos_messages_sent, c.messages_sent)
        << "rank " << r;
    EXPECT_EQ(row.bytes() + c.chaos_bytes_sent, c.bytes_sent) << "rank " << r;
    // The chaos columns attribute retransmissions plus (zero-byte) acks.
    EXPECT_EQ(row.chaos_messages, c.chaos_messages_sent + c.chaos_acks_sent)
        << "rank " << r;
    EXPECT_EQ(row.chaos_bytes, c.chaos_bytes_sent) << "rank " << r;
    total_chaos_messages += row.chaos_messages;
  }
  EXPECT_GT(total_chaos_messages, 0u);

  // The artifact's chaos columns carry that overhead and pass the lint
  // reconciliation.
  const obs::json::Value metrics = core::build_run_metrics(result);
  ASSERT_NE(metrics.get("comm_matrix").find("chaos_messages"), nullptr);
  ASSERT_NE(metrics.get("comm_matrix").find("chaos_bytes"), nullptr);
  EXPECT_TRUE(analysis::lint_metrics(metrics).empty());
}

TEST(MsgTrace, CleanRunChaosColumnsAreZero) {
  const graph::EdgeList g = test_graph();
  const core::RunResult result = core::count_triangles_2d(g, 4, {});
  ASSERT_FALSE(result.chaos_enabled);

  // Clean-run invariants are untouched: chaos cells stay zero and the
  // row-sum identity holds with nothing to net out.
  for (int r = 0; r < 4; ++r) {
    const mpisim::PerfCounters& c =
        result.per_rank_counters[static_cast<std::size_t>(r)];
    const mpisim::CommCell row = result.comm_matrix.row_total(r);
    EXPECT_EQ(row.chaos_messages, 0u);
    EXPECT_EQ(row.chaos_bytes, 0u);
    EXPECT_EQ(row.messages(), c.messages_sent);
  }
  // The artifact still carries the chaos columns, all zero.
  const obs::json::Value metrics = core::build_run_metrics(result);
  for (const char* field : {"chaos_messages", "chaos_bytes"}) {
    const obs::json::Value& rows = metrics.get("comm_matrix").get(field);
    ASSERT_EQ(rows.size(), 4u) << field;
    for (std::size_t s = 0; s < rows.size(); ++s) {
      for (std::size_t d = 0; d < rows.at(s).size(); ++d) {
        EXPECT_EQ(rows.at(s).at(d).as_uint(), 0u) << field;
      }
    }
  }
  EXPECT_TRUE(analysis::lint_metrics(metrics).empty());
}

// ---------------------------------------------------------------------------
// overlap path

TEST(MsgTrace, OverlapMeasuredHiddenBoundedByModel) {
  const graph::EdgeList g = test_graph();
  core::RunOptions options;
  options.config.overlap = true;
  const TracedRun run = traced_run(g, 4, options);
  ASSERT_TRUE(run.result.overlap_enabled);
  EXPECT_TRUE(obs::lint_trace(run.artifact).empty());

  const analysis::MsgTraceReport report =
      analysis::MsgTraceReport::from_trace(run.artifact);
  EXPECT_TRUE(report.overlap);
  const analysis::CausalAnalysis causal = analysis::analyze_msgtrace(report);

  // Some tc superstep must carry a modeled hidden-time prediction.
  double modeled_hidden = 0.0;
  for (const analysis::MsgTraceStep& step : report.steps) {
    modeled_hidden += step.hidden_seconds;
  }
  EXPECT_GT(modeled_hidden, 0.0);

  // Measured overlap is non-negative and never exceeds the modeled
  // hidden time (capped per step by construction; the raw concurrent
  // wall time is reported separately and unbounded).
  EXPECT_GE(causal.measured_hidden_seconds, 0.0);
  EXPECT_LE(causal.measured_hidden_seconds,
            causal.modeled_hidden_seconds + 1e-12);
  for (const analysis::CausalStep& step : causal.steps) {
    EXPECT_GE(step.measured_hidden_seconds, 0.0);
    EXPECT_LE(step.measured_hidden_seconds,
              step.modeled_hidden_seconds + 1e-12);
    EXPECT_GE(step.concurrent_seconds, step.measured_hidden_seconds - 1e-12);
  }
  EXPECT_NEAR(causal.path_seconds, causal.makespan_seconds, 1e-9);
}

// ---------------------------------------------------------------------------
// capture accounting + diff

TEST(MsgTrace, OffModeCapturesNothing) {
  ASSERT_EQ(obs::MsgTrace::current(), nullptr);
  const graph::EdgeList g = test_graph();
  obs::MsgTrace trace(4, 64);  // constructed but never installed
  const core::RunResult result = core::count_triangles_2d(g, 4, {});
  (void)result;
  const obs::Trace captured = trace.trace();
  EXPECT_TRUE(captured.events().empty());
  const obs::json::Value& rings = captured.other_data().get("rings");
  ASSERT_EQ(rings.size(), 5u);
  for (std::size_t i = 0; i < rings.size(); ++i) {
    EXPECT_EQ(rings.at(i).get("recorded").as_uint(), 0u);
    EXPECT_EQ(rings.at(i).get("dropped").as_uint(), 0u);
  }
}

TEST(MsgTrace, TinyCapacityDropsAreAccounted) {
  const graph::EdgeList g = test_graph();
  const TracedRun run = traced_run(g, 4, {}, /*capacity=*/4);
  EXPECT_TRUE(obs::lint_trace(run.artifact).empty());
  const analysis::MsgTraceReport report =
      analysis::MsgTraceReport::from_trace(run.artifact);
  EXPECT_GT(report.dropped, 0u);
  // A truncated capture still analyzes (partial results, flagged).
  const analysis::CausalAnalysis causal = analysis::analyze_msgtrace(report);
  EXPECT_TRUE(causal.truncated);
}

TEST(MsgTrace, IntegerFieldsOutsideIntRangeAreRejected) {
  // A value with no int (1e20) or past the world must be flagged by the
  // lint and refused by the reader, never converted. The trace holds one
  // rank's ring plus the world ring, and one message to itself.
  const auto message_trace = [](const std::string& ranks,
                                const std::string& peer) {
    const std::string args = R"("tag":3,"step":0,"gen":0,"id":1,"seq":0,)"
                             R"("bytes":8,"collective":0,"dropped":0})";
    return obs::Trace::from_json(obs::json::Value::parse(
        R"({"traceEvents":[)"
        R"({"name":"send","cat":"msg","ph":"X","tid":1,"ts":1,"dur":1,)"
        R"("args":{"peer":)" + peer + "," + args + "},"
        R"({"name":"msg","cat":"msg","ph":"s","tid":1,"ts":1,"id":1},)"
        R"({"name":"recv","cat":"msg","ph":"X","tid":1,"ts":3,"dur":1,)"
        R"("args":{"peer":0,)" + args + "},"
        R"({"name":"msg","cat":"msg","ph":"f","bp":"e","tid":1,"ts":3,)"
        R"("id":1}],"otherData":{"ranks":)" + ranks +
        R"(,"capacity":16,"rings":[{"tid":1,"recorded":2,"dropped":0},)"
        R"({"tid":0,"recorded":0,"dropped":0}],"run":{"overlap":false,)"
        R"("chaos":false,"model":{"alpha_seconds":1e-6,)"
        R"("beta_seconds_per_byte":1e-9}},"steps":[]}})"));
  };
  const obs::Trace clean = message_trace("1", "0");
  EXPECT_TRUE(obs::lint_trace(clean).empty());
  EXPECT_EQ(analysis::MsgTraceReport::from_trace(clean).records.at(0).size(),
            2u);
  for (const auto& [ranks, peer] :
       std::vector<std::pair<std::string, std::string>>{
           {"1e20", "0"}, {"2147483648", "0"}, {"1", "1e20"}, {"2", "0"}}) {
    const obs::Trace bad = message_trace(ranks, peer);
    EXPECT_FALSE(obs::lint_trace(bad).empty()) << ranks << " " << peer;
    EXPECT_THROW(analysis::MsgTraceReport::from_trace(bad),
                 std::runtime_error)
        << ranks << " " << peer;
  }
  // The trace with no records at all, too.
  const obs::Trace empty = obs::Trace::from_json(obs::json::Value::parse(
      R"({"traceEvents":[],"otherData":{"ranks":1e20,"capacity":16,)"
      R"("rings":[],"run":{"overlap":false,"chaos":false,"model":)"
      R"({"alpha_seconds":1e-6,"beta_seconds_per_byte":1e-9}},)"
      R"("steps":[]}})"));
  EXPECT_FALSE(obs::lint_trace(empty).empty());
  EXPECT_THROW(analysis::MsgTraceReport::from_trace(empty),
               std::runtime_error);
}

TEST(MsgTrace, DiffDispatchesOnSchemaAndSelfDiffsClean) {
  const graph::EdgeList g = test_graph();
  const TracedRun run = traced_run(g, 4, {});
  const analysis::DiffResult self = analysis::diff_artifacts(
      run.artifact.to_json(), run.artifact.to_json());
  EXPECT_TRUE(self.ok);

  // Two runs of the same config: counts identical, measured times and
  // the overlap divergence within the default noise floor.
  const TracedRun again = traced_run(g, 4, {});
  const analysis::DiffResult rerun = analysis::diff_artifacts(
      run.artifact.to_json(), again.artifact.to_json());
  EXPECT_TRUE(rerun.ok);
}

TEST(MsgTrace, DiffRefusesTracesWithoutARunHeader) {
  // A flight dump is a Chrome trace too, but it has no run header to
  // pair measurements with the model: the diff names what it reads.
  obs::FlightRecorder recorder(/*ranks=*/1);
  recorder.span_begin("slice", "pre");
  recorder.span_end("slice");
  const obs::json::Value dump = recorder.trace().to_json();
  try {
    analysis::diff_artifacts(dump, dump);
    ADD_FAILURE() << "a flight dump diffed as a message trace";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("count --msgtrace"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace tricount
