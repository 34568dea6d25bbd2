// Cross-algorithm equivalence matrix: every counting path in the
// repository — serial, the three 1D baselines (AOP, push, wedge), 2D
// Cannon, SUMMA, and the communication-avoiding cetric counter — must
// report the exact same triangle count on a shared randomized corpus,
// under every kernel policy, with overlap on and off, across a sweep of
// rank counts, and under injected faults. Where per-vertex tallies are
// supported (the 2D path), the full vectors must agree across grids.
//
// This is the project's strongest invariant; any disagreement fails
// loudly with the generating seed and the full algorithm coordinates.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "test_corpus.hpp"
#include "test_seed.hpp"
#include "tricount/baselines/aop1d.hpp"
#include "tricount/baselines/push_based1d.hpp"
#include "tricount/baselines/wedge_counting.hpp"
#include "tricount/cetric/cetric.hpp"
#include "tricount/chaos/fault_plan.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/core/per_vertex.hpp"
#include "tricount/core/summa2d.hpp"

namespace tricount {
namespace {

using test_support::CorpusEntry;
using test_support::corpus;
using test_support::kPolicies;

TEST(AlgoEquivalence, KernelMatrix) {
  // algorithm x kernel policy x overlap, on every corpus graph. The
  // kernel layer is shared across algorithms, so a policy-specific bug
  // in any consumer breaks exactly one cell of this matrix.
  for (std::size_t gi = 0; gi < corpus().size(); ++gi) {
    const CorpusEntry& entry = corpus()[gi];
    for (std::size_t ki = 0; ki < 5; ++ki) {
      const kernels::KernelPolicy policy = kPolicies[ki];
      SCOPED_TRACE(::testing::Message()
                   << "graph=" << gi << " n=" << entry.graph.num_vertices
                   << " kernel=" << static_cast<int>(policy)
                   << " expected=" << entry.expected);

      core::RunOptions options;
      options.config.kernel = policy;
      options.config.overlap = (ki % 2) == 0;
      EXPECT_EQ(core::count_triangles_2d(entry.graph, 4, options).triangles,
                entry.expected)
          << "2d overlap=" << options.config.overlap;

      core::SummaOptions summa;
      summa.config = options.config;
      summa.grid_rows = 2;
      summa.grid_cols = 3;
      EXPECT_EQ(core::count_triangles_summa(entry.graph, summa).triangles,
                entry.expected)
          << "summa 2x3";

      EXPECT_EQ(cetric::count_triangles_cetric(entry.graph, 5, options)
                    .triangles,
                entry.expected)
          << "cetric p=5";

      baselines::AopOptions aop;
      aop.kernel = policy;
      EXPECT_EQ(baselines::count_triangles_aop1d(entry.graph, 3, aop).triangles,
                entry.expected)
          << "aop p=3";

      baselines::PushOptions push;
      push.kernel = policy;
      EXPECT_EQ(
          baselines::count_triangles_push1d(entry.graph, 3, push).triangles,
          entry.expected)
          << "push p=3";
    }
    // The wedge baseline has no kernel knob; one run per graph.
    EXPECT_EQ(baselines::count_triangles_wedge(entry.graph, 3).triangles,
              entry.expected)
        << "wedge p=3 graph=" << gi;
  }
}

TEST(AlgoEquivalence, RankCountSweep) {
  // Every algorithm across its admissible rank counts on the corpus:
  // perfect squares for Cannon, arbitrary rectangles for SUMMA,
  // arbitrary counts for cetric and the 1D baselines.
  for (std::size_t gi = 0; gi < corpus().size(); ++gi) {
    const CorpusEntry& entry = corpus()[gi];
    SCOPED_TRACE(::testing::Message() << "graph=" << gi);
    for (const int grid : {1, 4, 9, 16}) {
      EXPECT_EQ(core::count_triangles_2d(entry.graph, grid).triangles,
                entry.expected)
          << "2d ranks=" << grid;
    }
    for (const auto& [rows, cols] :
         {std::pair{1, 3}, std::pair{3, 2}, std::pair{4, 3}}) {
      core::SummaOptions summa;
      summa.grid_rows = rows;
      summa.grid_cols = cols;
      EXPECT_EQ(core::count_triangles_summa(entry.graph, summa).triangles,
                entry.expected)
          << "summa " << rows << "x" << cols;
    }
    for (const int p : {1, 2, 3, 4, 6, 7, 12}) {
      EXPECT_EQ(cetric::count_triangles_cetric(entry.graph, p).triangles,
                entry.expected)
          << "cetric p=" << p;
    }
    for (const int p : {1, 2, 5, 8}) {
      EXPECT_EQ(baselines::count_triangles_aop1d(entry.graph, p).triangles,
                entry.expected)
          << "aop p=" << p;
      EXPECT_EQ(baselines::count_triangles_push1d(entry.graph, p).triangles,
                entry.expected)
          << "push p=" << p;
      EXPECT_EQ(baselines::count_triangles_wedge(entry.graph, p).triangles,
                entry.expected)
          << "wedge p=" << p;
    }
  }
}

TEST(AlgoEquivalence, PerVertexTalliesAgreeWhereSupported) {
  // The 2D path supports per-vertex tallies; the full vectors (not just
  // the totals) must be identical across grid sizes, and a ranks=1 run
  // is the serial reference.
  for (std::size_t gi = 0; gi < corpus().size(); ++gi) {
    const CorpusEntry& entry = corpus()[gi];
    const core::PerVertexResult serial =
        core::count_per_vertex_2d(entry.graph, 1);
    ASSERT_EQ(serial.total_triangles, entry.expected) << "graph=" << gi;
    for (const int grid : {4, 9}) {
      const core::PerVertexResult dist =
          core::count_per_vertex_2d(entry.graph, grid);
      EXPECT_EQ(dist.total_triangles, entry.expected);
      ASSERT_EQ(dist.counts.size(), serial.counts.size());
      EXPECT_EQ(dist.counts, serial.counts)
          << "per-vertex tallies diverge, graph=" << gi << " grid=" << grid;
    }
  }
}

TEST(AlgoEquivalence, ChaosDimension) {
  // The fault-tolerant paths (2D Cannon, SUMMA, cetric) stay exact under
  // a mixed drop/dup/reorder/delay plan; twelve seeded rounds on
  // rotating corpus graphs.
  for (int i = 0; i < 12; ++i) {
    const std::uint64_t seed = util::stream_seed(
        util::stream_seed(test_support::chaos_seed(), 0xecbad),
        static_cast<std::uint64_t>(i));
    const CorpusEntry& entry = corpus()[static_cast<std::size_t>(i) %
                                        corpus().size()];
    chaos::FaultSpec spec;
    spec.seed = seed;
    spec.drop_rate = 0.05;
    spec.duplicate_rate = 0.05;
    spec.reorder_rate = 0.10;
    spec.delay_rate = 0.05;
    spec.straggler_factor = 3.0;
    spec.retry_timeout_seconds = 2e-3;
    SCOPED_TRACE(::testing::Message() << "round=" << i << " seed=" << seed);

    core::RunOptions options;
    options.chaos = std::make_shared<const chaos::FaultPlan>(spec, 4);
    EXPECT_EQ(core::count_triangles_2d(entry.graph, 4, options).triangles,
              entry.expected)
        << "2d under chaos";

    core::SummaOptions summa;
    summa.grid_rows = 2;
    summa.grid_cols = 2;
    summa.chaos = std::make_shared<const chaos::FaultPlan>(spec, 4);
    EXPECT_EQ(core::count_triangles_summa(entry.graph, summa).triangles,
              entry.expected)
        << "summa under chaos";

    core::RunOptions cetric_options;
    cetric_options.chaos = std::make_shared<const chaos::FaultPlan>(spec, 5);
    EXPECT_EQ(
        cetric::count_triangles_cetric(entry.graph, 5, cetric_options)
            .triangles,
        entry.expected)
        << "cetric under chaos";
  }
}

}  // namespace
}  // namespace tricount
