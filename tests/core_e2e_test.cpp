// End-to-end correctness of the 2D distributed algorithm: for every graph
// family, every grid size, and every optimization configuration, the
// distributed count must equal the serial reference exactly.
#include <gtest/gtest.h>

#include <stdexcept>

#include "tricount/core/driver.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/serial_count.hpp"

namespace tricount {
namespace {

using graph::EdgeList;
using graph::TriangleCount;

TriangleCount reference(const EdgeList& graph) {
  return graph::count_triangles_serial(graph::Csr::from_edges(graph));
}

core::RunResult run(const EdgeList& graph, int ranks,
                    core::Config config = {}) {
  core::RunOptions options;
  options.config = config;
  options.validate_blocks = true;
  return core::count_triangles_2d(graph, ranks, options);
}

TEST(CoreE2E, CompleteGraphSingleRank) {
  const EdgeList g = graph::complete_graph(16);
  EXPECT_EQ(run(g, 1).triangles, graph::complete_graph_triangles(16));
}

TEST(CoreE2E, CompleteGraphManyGrids) {
  const EdgeList g = graph::complete_graph(23);
  const TriangleCount expected = graph::complete_graph_triangles(23);
  for (const int ranks : {1, 4, 9, 16, 25, 36}) {
    EXPECT_EQ(run(g, ranks).triangles, expected) << "ranks=" << ranks;
  }
}

TEST(CoreE2E, TriangleFreeGraphs) {
  for (const int ranks : {1, 4, 9}) {
    EXPECT_EQ(run(graph::star_graph(40), ranks).triangles, 0u);
    EXPECT_EQ(run(graph::cycle_graph(41), ranks).triangles, 0u);
    EXPECT_EQ(run(graph::grid_graph(7, 9), ranks).triangles, 0u);
    EXPECT_EQ(run(graph::complete_bipartite(9, 13), ranks).triangles, 0u);
    EXPECT_EQ(run(graph::petersen_graph(), ranks).triangles, 0u);
  }
}

TEST(CoreE2E, WheelGraph) {
  for (const int ranks : {1, 4, 16}) {
    EXPECT_EQ(run(graph::wheel_graph(17), ranks).triangles, 17u);
  }
}

TEST(CoreE2E, EmptyAndTinyGraphs) {
  EdgeList empty;
  empty.num_vertices = 0;
  EXPECT_EQ(run(empty, 4).triangles, 0u);

  EdgeList isolated;
  isolated.num_vertices = 12;  // vertices but no edges
  EXPECT_EQ(run(isolated, 9).triangles, 0u);

  EXPECT_EQ(run(graph::complete_graph(3), 16).triangles, 1u);
  // Fewer vertices than ranks.
  EXPECT_EQ(run(graph::complete_graph(3), 25).triangles, 1u);
}

TEST(CoreE2E, RmatMatchesSerialAcrossGrids) {
  graph::RmatParams params;
  params.scale = 10;
  params.edge_factor = 8;
  params.seed = 42;
  const EdgeList g = graph::rmat(params);
  const TriangleCount expected = reference(g);
  ASSERT_GT(expected, 0u);
  for (const int ranks : {1, 4, 9, 16, 25}) {
    EXPECT_EQ(run(g, ranks).triangles, expected) << "ranks=" << ranks;
  }
}

TEST(CoreE2E, ErdosRenyiMatchesSerial) {
  const EdgeList g = graph::erdos_renyi(600, 4000, 7);
  const TriangleCount expected = reference(g);
  for (const int ranks : {1, 9, 16}) {
    EXPECT_EQ(run(g, ranks).triangles, expected) << "ranks=" << ranks;
  }
}

TEST(CoreE2E, WattsStrogatzMatchesSerial) {
  const EdgeList g = graph::watts_strogatz(500, 8, 0.2, 3);
  const TriangleCount expected = reference(g);
  ASSERT_GT(expected, 0u);
  for (const int ranks : {1, 4, 25}) {
    EXPECT_EQ(run(g, ranks).triangles, expected) << "ranks=" << ranks;
  }
}

TEST(CoreE2E, DistributedRmatGenerationMatchesReplicatedGraph) {
  // The distributed generator must produce exactly the same simple graph
  // as the replicated rmat() path, so the counts agree.
  graph::RmatParams params;
  params.scale = 9;
  params.edge_factor = 10;
  params.seed = 5;
  const TriangleCount expected = reference(graph::rmat(params));
  for (const int ranks : {1, 4, 16}) {
    const auto result = core::count_triangles_2d_rmat(params, ranks);
    EXPECT_EQ(result.triangles, expected) << "ranks=" << ranks;
  }
}

TEST(CoreE2E, NonSquareRankCountThrows) {
  const EdgeList g = graph::complete_graph(5);
  EXPECT_THROW(run(g, 2), std::invalid_argument);
  EXPECT_THROW(run(g, 12), std::invalid_argument);
}

TEST(CoreE2E, NeighbourIdOutOfRangeThrows) {
  // An unsimplified edge list with an endpoint >= num_vertices: the
  // degree relabel must reject the neighbour id, not index with it.
  EdgeList g = graph::complete_graph(6);
  g.edges.push_back(graph::Edge{2, 6});
  for (const int ranks : {1, 4}) {
    EXPECT_THROW(run(g, ranks), std::out_of_range) << "ranks=" << ranks;
  }
}

TEST(CoreE2E, ReportsGraphStatistics) {
  const EdgeList g = graph::complete_graph(10);
  const auto result = run(g, 4);
  EXPECT_EQ(result.num_vertices, 10u);
  EXPECT_EQ(result.num_edges, 45u);
  EXPECT_EQ(result.grid_q, 2);
  EXPECT_EQ(result.ranks, 4);
}

}  // namespace
}  // namespace tricount
