// Tests for the instrumentation layer: RunResult's derived metrics, the
// per-shift samples Table 3 needs, Table 4's task counters, and §7.3's
// ablation expectations (directionally, at small scale).
#include <gtest/gtest.h>

#include "tricount/core/driver.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/serial_count.hpp"
#include "tricount/util/stats.hpp"

namespace tricount::core {
namespace {

using graph::EdgeList;

EdgeList bench_graph() {
  graph::RmatParams params;
  params.scale = 10;
  params.edge_factor = 10;
  params.seed = 500;
  return graph::rmat(params);
}

TEST(Metrics, ShiftCountEqualsGridDimension) {
  const EdgeList g = bench_graph();
  for (const int ranks : {1, 4, 9, 16}) {
    const RunResult r = count_triangles_2d(g, ranks);
    EXPECT_EQ(r.num_shifts(),
              static_cast<std::size_t>(mpisim::perfect_square_root(ranks)));
    for (const RankStats& stats : r.per_rank) {
      EXPECT_EQ(stats.shifts.size(), r.num_shifts());
    }
  }
}

TEST(Metrics, ModeledTimesArePositiveAndDecomposable) {
  const RunResult r = count_triangles_2d(bench_graph(), 9);
  EXPECT_GT(r.pre_modeled_seconds(), 0.0);
  EXPECT_GT(r.tc_modeled_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(r.total_modeled_seconds(),
                   r.pre_modeled_seconds() + r.tc_modeled_seconds());
  EXPECT_GT(r.pre_modeled_comm_seconds(), 0.0);
  EXPECT_LT(r.pre_modeled_comm_seconds(), r.pre_modeled_seconds());
  EXPECT_LT(r.tc_modeled_comm_seconds(), r.tc_modeled_seconds());
}

TEST(Metrics, SingleRankHasNoCommunicationModelCost) {
  const RunResult r = count_triangles_2d(bench_graph(), 1);
  // One rank sends itself nothing during shifts (q == 1, no shift).
  EXPECT_EQ(r.num_shifts(), 1u);
  const auto samples = r.shift_samples(0);
  EXPECT_EQ(samples[0].messages, 0u);
}

TEST(Metrics, KernelCountersAreConsistent) {
  const EdgeList g = bench_graph();
  // The hash kernel, so the build counters below have builds to count:
  // kAuto sends every row of this graph to the bitmap.
  RunOptions options;
  options.config.kernel = kernels::KernelPolicy::kHash;
  const RunResult r = count_triangles_2d(g, 9, options);
  const KernelCounters k = r.total_kernel();
  // Hits count exactly the triangles.
  EXPECT_EQ(k.hits, r.triangles);
  EXPECT_GE(k.lookups, k.hits);
  EXPECT_GT(k.intersection_tasks, 0u);
  EXPECT_GT(k.hash_builds, 0u);
  EXPECT_GE(k.hash_builds, k.direct_builds);
  EXPECT_GT(k.rows_visited, 0u);
}

TEST(Metrics, TaskCountGrowsWithRanks) {
  // Table 4's redundant-work effect: map-intersection task volume grows
  // as the grid refines.
  const EdgeList g = bench_graph();
  const std::uint64_t tasks_p4 =
      count_triangles_2d(g, 4).total_kernel().intersection_tasks;
  const std::uint64_t tasks_p16 =
      count_triangles_2d(g, 16).total_kernel().intersection_tasks;
  const std::uint64_t tasks_p36 =
      count_triangles_2d(g, 36).total_kernel().intersection_tasks;
  EXPECT_GE(tasks_p16, tasks_p4);
  EXPECT_GE(tasks_p36, tasks_p16);
}

TEST(Metrics, ListKernelPerformsNoHashBuilds) {
  RunOptions options;
  options.config.kernel = kernels::KernelPolicy::kMerge;
  const RunResult r = count_triangles_2d(bench_graph(), 4, options);
  EXPECT_EQ(r.total_kernel().hash_builds, 0u);
  EXPECT_EQ(r.total_kernel().probes, 0u);
}

TEST(Metrics, ModifiedHashingProducesDirectBuilds) {
  const EdgeList g = bench_graph();
  // Modified hashing changes only the hash kernel's builds, and kAuto
  // sends every row of this graph to the bitmap.
  RunOptions with;
  with.config.kernel = kernels::KernelPolicy::kHash;
  with.config.modified_hashing = true;
  const RunResult yes = count_triangles_2d(g, 16, with);
  EXPECT_GT(yes.total_kernel().direct_builds, 0u);

  RunOptions without;
  without.config.kernel = kernels::KernelPolicy::kHash;
  without.config.modified_hashing = false;
  const RunResult no = count_triangles_2d(g, 16, without);
  EXPECT_EQ(no.total_kernel().direct_builds, 0u);
  // Exactness is independent of the heuristic.
  EXPECT_EQ(yes.triangles, no.triangles);
  // Probing-only runs probe at least as much as the direct-mode runs.
  EXPECT_GE(no.total_kernel().probes, yes.total_kernel().probes);
}

TEST(Metrics, BackwardEarlyExitReducesLookups) {
  const EdgeList g = bench_graph();
  RunOptions with;
  with.config.backward_early_exit = true;
  RunOptions without;
  without.config.backward_early_exit = false;
  const auto k_with = count_triangles_2d(g, 9, with).total_kernel();
  const auto k_without = count_triangles_2d(g, 9, without).total_kernel();
  EXPECT_LT(k_with.lookups, k_without.lookups);
  EXPECT_GT(k_with.early_exits, 0u);
  EXPECT_EQ(k_without.early_exits, 0u);
}

TEST(Metrics, DoublySparseVisitsFewerRows) {
  const EdgeList g = bench_graph();
  RunOptions on;
  on.config.doubly_sparse = true;
  RunOptions off;
  off.config.doubly_sparse = false;
  const auto k_on = count_triangles_2d(g, 16, on).total_kernel();
  const auto k_off = count_triangles_2d(g, 16, off).total_kernel();
  EXPECT_LT(k_on.rows_visited, k_off.rows_visited);
}

TEST(Metrics, JikDoesFewerLookupsThanIjk) {
  // §7.3: the ⟨j,i,k⟩ scheme looks up the *smaller* endpoint's lists,
  // so its lookup volume is lower — that is the mechanism behind the
  // paper's 72.8% runtime reduction.
  const EdgeList g = bench_graph();
  RunOptions jik;
  jik.config.enumeration = Enumeration::kJIK;
  RunOptions ijk;
  ijk.config.enumeration = Enumeration::kIJK;
  const auto k_jik = count_triangles_2d(g, 9, jik).total_kernel();
  const auto k_ijk = count_triangles_2d(g, 9, ijk).total_kernel();
  EXPECT_LT(k_jik.lookups + k_jik.probes, k_ijk.lookups + k_ijk.probes);
}

TEST(Metrics, BlobCommSendsFewerMessages) {
  const EdgeList g = bench_graph();
  RunOptions blob;
  blob.config.blob_comm = true;
  RunOptions arrays;
  arrays.config.blob_comm = false;
  const RunResult with = count_triangles_2d(g, 9, blob);
  const RunResult without = count_triangles_2d(g, 9, arrays);
  std::uint64_t msgs_with = 0;
  std::uint64_t msgs_without = 0;
  for (std::size_t s = 0; s < with.num_shifts(); ++s) {
    for (const auto& sample : with.shift_samples(s)) msgs_with += sample.messages;
  }
  for (std::size_t s = 0; s < without.num_shifts(); ++s) {
    for (const auto& sample : without.shift_samples(s)) {
      msgs_without += sample.messages;
    }
  }
  EXPECT_LT(msgs_with, msgs_without);
  EXPECT_EQ(with.triangles, without.triangles);
}

TEST(Metrics, PerShiftLoadImbalanceIsComputable) {
  const EdgeList g = bench_graph();
  const RunResult r = count_triangles_2d(g, 25);
  for (std::size_t s = 0; s < r.num_shifts(); ++s) {
    const double max = r.shift_max_compute(s);
    const double avg = r.shift_avg_compute(s);
    EXPECT_GE(max, avg);
    if (avg > 0) {
      EXPECT_GE(max / avg, 1.0);
    }
  }
}

TEST(Metrics, OpsCountersFeedFigure2) {
  const RunResult r = count_triangles_2d(bench_graph(), 9);
  EXPECT_GT(r.pre_ops(), 0u);
  EXPECT_GT(r.tc_ops(), 0u);
  // tc ops are the kernel lookups.
  EXPECT_EQ(r.tc_ops(), r.total_kernel().lookups);
}

TEST(Metrics, PhaseSampleArithmetic) {
  PhaseSample a;
  a.compute_cpu_seconds = 1.0;
  a.messages = 3;
  a.bytes = 100;
  a.ops = 7;
  PhaseSample b;
  b.compute_cpu_seconds = 0.5;
  b.messages = 1;
  b.bytes = 50;
  b.ops = 3;
  a += b;
  EXPECT_DOUBLE_EQ(a.compute_cpu_seconds, 1.5);
  EXPECT_EQ(a.messages, 4u);
  EXPECT_EQ(a.bytes, 150u);
  EXPECT_EQ(a.ops, 10u);
}

TEST(Metrics, BreakdownAggregates) {
  std::vector<PhaseSample> samples(3);
  samples[0].compute_cpu_seconds = 1.0;
  samples[1].compute_cpu_seconds = 3.0;
  samples[2].compute_cpu_seconds = 2.0;
  samples[0].messages = 5;
  samples[1].bytes = 1000;
  const PhaseBreakdown b = breakdown(samples);
  EXPECT_DOUBLE_EQ(b.max_compute_seconds, 3.0);
  EXPECT_DOUBLE_EQ(b.avg_compute_seconds, 2.0);
  EXPECT_EQ(b.max_messages, 5u);
  EXPECT_EQ(b.max_bytes, 1000u);
  util::AlphaBetaModel model;
  model.alpha_seconds = 1e-3;
  model.beta_seconds_per_byte = 1e-6;
  EXPECT_NEAR(b.modeled_seconds(model), 3.0 + 5e-3 + 1e-3, 1e-9);
}

}  // namespace
}  // namespace tricount::core
