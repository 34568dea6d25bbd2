// Tests for distributed per-vertex triangle counting and the derived
// clustering statistics: exact agreement with the serial per-vertex
// reference on every graph family and grid size.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <stdexcept>
#include <tuple>

#include "tricount/core/counter2d.hpp"
#include "tricount/core/dist_graph.hpp"
#include "tricount/core/per_vertex.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/serial_count.hpp"
#include "tricount/mpisim/cart2d.hpp"
#include "tricount/mpisim/runtime.hpp"

namespace tricount::core {
namespace {

using graph::EdgeList;

class PerVertexSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};  // (graph, p)

const std::vector<EdgeList>& sweep_graphs() {
  static const std::vector<EdgeList>* graphs = [] {
    auto* v = new std::vector<EdgeList>;
    graph::RmatParams params;
    params.scale = 8;
    params.edge_factor = 7;
    params.seed = 303;
    v->push_back(graph::rmat(params));
    v->push_back(graph::simplify(graph::erdos_renyi(200, 1500, 5)));
    v->push_back(graph::simplify(graph::complete_graph(20)));
    v->push_back(graph::simplify(graph::wheel_graph(25)));
    v->push_back(graph::simplify(graph::watts_strogatz(150, 6, 0.2, 4)));
    return v;
  }();
  return *graphs;
}

TEST_P(PerVertexSweep, MatchesSerialReferenceExactly) {
  const auto [gi, ranks] = GetParam();
  const EdgeList& g = sweep_graphs()[static_cast<std::size_t>(gi)];
  const auto expected =
      graph::per_vertex_triangles(graph::Csr::from_edges(g));
  const PerVertexResult result = count_per_vertex_2d(g, ranks);
  ASSERT_EQ(result.counts.size(), expected.size());
  for (graph::VertexId v = 0; v < g.num_vertices; ++v) {
    ASSERT_EQ(result.counts[v], expected[v]) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(GraphsByRanks, PerVertexSweep,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Values(1, 4, 9, 16)));

TEST(PerVertex, TotalsAndSumsAreConsistent) {
  const EdgeList& g = sweep_graphs()[0];
  const PerVertexResult result = count_per_vertex_2d(g, 9);
  graph::TriangleCount sum = 0;
  for (const auto c : result.counts) sum += c;
  EXPECT_EQ(sum, 3 * result.total_triangles);
  EXPECT_EQ(result.total_triangles,
            graph::count_triangles_serial(graph::Csr::from_edges(g)));
}

TEST(PerVertex, ListKernelAgrees) {
  const EdgeList& g = sweep_graphs()[0];
  RunOptions options;
  options.config.kernel = kernels::KernelPolicy::kMerge;
  const PerVertexResult map_result = count_per_vertex_2d(g, 4);
  const PerVertexResult list_result = count_per_vertex_2d(g, 4, options);
  EXPECT_EQ(map_result.counts, list_result.counts);
}

TEST(PerVertex, OptimizationTogglesStayExact) {
  const EdgeList& g = sweep_graphs()[4];
  const auto expected =
      graph::per_vertex_triangles(graph::Csr::from_edges(g));
  for (const bool doubly : {true, false}) {
    for (const bool backward : {true, false}) {
      RunOptions options;
      options.config.doubly_sparse = doubly;
      options.config.backward_early_exit = backward;
      const PerVertexResult result = count_per_vertex_2d(g, 9, options);
      EXPECT_EQ(result.counts, expected);
    }
  }
}

TEST(PerVertex, WheelCountsExactPerVertex) {
  const EdgeList g = graph::simplify(graph::wheel_graph(6));
  const PerVertexResult result = count_per_vertex_2d(g, 4);
  EXPECT_EQ(result.counts[0], 6u);  // hub
  for (graph::VertexId v = 1; v <= 6; ++v) EXPECT_EQ(result.counts[v], 2u);
}

TEST(PerVertex, EmptyAndIsolated) {
  EdgeList g;
  g.num_vertices = 7;
  const PerVertexResult result = count_per_vertex_2d(g, 4);
  EXPECT_EQ(result.total_triangles, 0u);
  for (const auto c : result.counts) EXPECT_EQ(c, 0u);
}

TEST(CannonCount, CreditingTallyRejectsAVertexCountThatMissesTheBlocks) {
  // The credits are indexed by block-local rows, so a vertex count that
  // does not size the blocks' rows would write out of bounds (0 sizes no
  // credit at all). Every rank must throw before the first superstep,
  // also the ranks whose own rows it happens to size (39 and 41 size rank
  // (0,0)'s on this 2x2 grid). Each rank catches and returns, so the
  // world finishes only when all of them agree; the watchdog fails a
  // rank left waiting for a shift.
  const EdgeList g = graph::simplify(graph::complete_graph(40));
  mpisim::WorldOptions options;
  options.watchdog_seconds = 10.0;
  for (const Tally tally : {Tally::kPerVertex, Tally::kEdgeSupport}) {
    for (const VertexId wrong : {VertexId{41}, VertexId{39}, VertexId{0}}) {
      SCOPED_TRACE(::testing::Message()
                   << "tally=" << static_cast<int>(tally)
                   << " num_vertices=" << wrong);
      std::array<std::atomic<bool>, 4> threw{};
      mpisim::run_world(
          4,
          [&](mpisim::Comm& comm) {
            mpisim::Cart2D grid(comm);
            PreprocessOutput pre = preprocess(
                grid, block_slice_from_edges(g, comm.rank(), 4), Config{});
            ASSERT_EQ(pre.num_vertices, 40u);
            try {
              (void)cannon_count(grid, std::move(pre.blocks), Config{}, tally,
                                 wrong);
            } catch (const std::invalid_argument&) {
              threw[static_cast<std::size_t>(comm.rank())] = true;
            }
          },
          options);
      for (std::size_t rank = 0; rank < threw.size(); ++rank) {
        EXPECT_TRUE(threw[rank]) << "rank " << rank;
      }
    }
  }
}

TEST(PerVertex, NonSquareRanksThrow) {
  EXPECT_THROW(count_per_vertex_2d(sweep_graphs()[0], 6),
               std::invalid_argument);
}

TEST(ClusteringStats, MatchesSerialHelpers) {
  const EdgeList& g = sweep_graphs()[1];
  const graph::Csr csr = graph::Csr::from_edges(g);
  const ClusteringStats stats = clustering_stats_2d(g, 9);
  EXPECT_EQ(stats.triangles,
            graph::count_triangles_serial(csr));
  EXPECT_EQ(stats.wedges, graph::count_wedges(csr));
  EXPECT_NEAR(stats.transitivity, graph::transitivity(csr), 1e-12);
  EXPECT_NEAR(stats.average_local_clustering,
              graph::average_local_clustering(csr), 1e-12);
}

TEST(ClusteringStats, CompleteGraphBounds) {
  const EdgeList g = graph::simplify(graph::complete_graph(12));
  const ClusteringStats stats = clustering_stats_2d(g, 4);
  EXPECT_DOUBLE_EQ(stats.transitivity, 1.0);
  EXPECT_DOUBLE_EQ(stats.average_local_clustering, 1.0);
}

TEST(PerVertex, LocalClusteringHelper) {
  PerVertexResult result;
  result.counts = {3, 0};
  EXPECT_DOUBLE_EQ(result.local_clustering(0, 3), 1.0);
  EXPECT_DOUBLE_EQ(result.local_clustering(1, 1), 0.0);  // degree < 2
}

}  // namespace
}  // namespace tricount::core
