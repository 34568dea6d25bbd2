// Tests for the distributed analytics built on the triangle machinery:
// distributed k-truss support counting and decomposition, validated
// against their serial references.
#include <gtest/gtest.h>

#include <tuple>

#include "tricount/core/dist_truss.hpp"
#include "tricount/graph/generators.hpp"

namespace tricount::core {
namespace {

using graph::EdgeList;

class DistTrussSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};  // (graph, p)

const std::vector<EdgeList>& truss_graphs() {
  static const std::vector<EdgeList>* graphs = [] {
    auto* v = new std::vector<EdgeList>;
    graph::RmatParams params;
    params.scale = 8;
    params.edge_factor = 6;
    params.seed = 99;
    v->push_back(graph::rmat(params));
    v->push_back(graph::simplify(graph::erdos_renyi(150, 900, 3)));
    v->push_back(graph::simplify(graph::complete_graph(15)));
    v->push_back(graph::simplify(graph::wheel_graph(20)));
    return v;
  }();
  return *graphs;
}

TEST_P(DistTrussSweep, SupportsMatchSerial) {
  const auto [gi, p] = GetParam();
  const EdgeList& g = truss_graphs()[static_cast<std::size_t>(gi)];
  const auto expected = graph::edge_supports(g);
  const auto actual = edge_supports_2d(g, p);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t e = 0; e < expected.size(); ++e) {
    ASSERT_EQ(actual[e], expected[e]) << "edge " << e;
  }
}

TEST_P(DistTrussSweep, DecompositionMatchesSerial) {
  const auto [gi, p] = GetParam();
  const EdgeList& g = truss_graphs()[static_cast<std::size_t>(gi)];
  const graph::KtrussResult serial = graph::ktruss_decomposition(g);
  const graph::KtrussResult dist = ktruss_2d(g, p);
  EXPECT_EQ(dist.max_k, serial.max_k);
  EXPECT_EQ(dist.trussness, serial.trussness);
}

INSTANTIATE_TEST_SUITE_P(GraphsByRanks, DistTrussSweep,
                         ::testing::Combine(::testing::Range(0, 4),
                                            ::testing::Values(1, 4, 9, 16)));

TEST(DistTruss, EmptyAndTriangleFree) {
  EdgeList empty;
  empty.num_vertices = 6;
  EXPECT_TRUE(edge_supports_2d(empty, 4).empty());
  const EdgeList grid = graph::simplify(graph::grid_graph(4, 4));
  for (const auto s : edge_supports_2d(grid, 4)) EXPECT_EQ(s, 0u);
  EXPECT_EQ(ktruss_2d(grid, 4).max_k, 2);
}

TEST(DistTruss, NonSquareRanksThrow) {
  EXPECT_THROW(edge_supports_2d(truss_graphs()[0], 8),
               std::invalid_argument);
}

}  // namespace
}  // namespace tricount::core
