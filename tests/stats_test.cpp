// Tests for the structural statistics module: degree summaries,
// assortativity, connected components, and 2-core size.
#include <gtest/gtest.h>

#include "tricount/graph/generators.hpp"
#include "tricount/graph/stats.hpp"

namespace tricount::graph {
namespace {

Csr csr_of(EdgeList g) { return Csr::from_edges(simplify(std::move(g))); }

TEST(DegreeStatsTest, RegularGraph) {
  const DegreeStats stats = degree_stats(csr_of(cycle_graph(20)));
  EXPECT_EQ(stats.min_degree, 2u);
  EXPECT_EQ(stats.max_degree, 2u);
  EXPECT_DOUBLE_EQ(stats.mean_degree, 2.0);
  EXPECT_DOUBLE_EQ(stats.median_degree, 2.0);
  EXPECT_DOUBLE_EQ(stats.coefficient_of_variation, 0.0);
  EXPECT_EQ(stats.isolated_vertices, 0u);
}

TEST(DegreeStatsTest, StarGraphSkew) {
  const DegreeStats stats = degree_stats(csr_of(star_graph(20)));
  EXPECT_EQ(stats.min_degree, 1u);
  EXPECT_EQ(stats.max_degree, 20u);
  EXPECT_GT(stats.coefficient_of_variation, 1.0);
}

TEST(DegreeStatsTest, EmptyAndIsolated) {
  EdgeList g;
  g.num_vertices = 0;
  EXPECT_EQ(degree_stats(Csr::from_edges(g)).max_degree, 0u);
  g.num_vertices = 5;
  g.edges = {{0, 1}};
  const DegreeStats stats = degree_stats(Csr::from_edges(g));
  EXPECT_EQ(stats.isolated_vertices, 3u);
}

TEST(Assortativity, RegularGraphIsDegenerate) {
  // Zero degree variance -> defined as 0.
  EXPECT_DOUBLE_EQ(degree_assortativity(csr_of(cycle_graph(15))), 0.0);
}

TEST(Assortativity, StarIsPerfectlyDisassortative) {
  EXPECT_NEAR(degree_assortativity(csr_of(star_graph(10))), -1.0, 1e-9);
}

TEST(Assortativity, RmatIsDisassortative) {
  const double r = degree_assortativity(csr_of(rmat([] {
    RmatParams p;
    p.scale = 10;
    p.edge_factor = 8;
    p.seed = 5;
    return p;
  }())));
  EXPECT_LT(r, 0.0);
  EXPECT_GE(r, -1.0);
}

TEST(ConnectedComponentsTest, SingleComponent) {
  const ComponentStats stats = connected_components(csr_of(cycle_graph(12)));
  EXPECT_EQ(stats.num_components, 1u);
  EXPECT_EQ(stats.largest_component, 12u);
}

TEST(ConnectedComponentsTest, DisjointPieces) {
  // Two cliques of 5 and 7 plus 3 isolated vertices.
  EdgeList g;
  g.num_vertices = 15;
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) g.edges.push_back({u, v});
  }
  for (VertexId u = 5; u < 12; ++u) {
    for (VertexId v = u + 1; v < 12; ++v) g.edges.push_back({u, v});
  }
  const ComponentStats stats = connected_components(csr_of(std::move(g)));
  EXPECT_EQ(stats.num_components, 5u);  // 2 cliques + 3 isolated
  EXPECT_EQ(stats.largest_component, 7u);
  EXPECT_EQ(stats.component[0], stats.component[4]);
  EXPECT_NE(stats.component[0], stats.component[5]);
}

TEST(TwoCoreTest, TreesDisappear) {
  EXPECT_EQ(two_core_size(simplify(path_graph(30))), 0u);
  EXPECT_EQ(two_core_size(simplify(star_graph(10))), 0u);
}

TEST(TwoCoreTest, CyclesSurvive) {
  EXPECT_EQ(two_core_size(simplify(cycle_graph(9))), 9u);
  EXPECT_EQ(two_core_size(simplify(complete_graph(6))), 6u);
}

TEST(TwoCoreTest, CycleWithPendantTail) {
  // 5-cycle with a 4-vertex tail: the tail peels away.
  EdgeList g;
  g.num_vertices = 9;
  for (VertexId u = 0; u < 5; ++u) {
    g.edges.push_back({u, static_cast<VertexId>((u + 1) % 5)});
  }
  g.edges.push_back({0, 5});
  g.edges.push_back({5, 6});
  g.edges.push_back({6, 7});
  g.edges.push_back({7, 8});
  EXPECT_EQ(two_core_size(simplify(std::move(g))), 5u);
}

}  // namespace
}  // namespace tricount::graph
