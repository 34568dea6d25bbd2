// Tests for the k-truss decomposition: closed-form trussness on known
// families, invariants (support sums, monotone subgraphs), and
// cross-validation of supports against per-vertex triangle counts.
#include <gtest/gtest.h>

#include "tricount/graph/generators.hpp"
#include "tricount/graph/ktruss.hpp"
#include "tricount/graph/serial_count.hpp"

namespace tricount::graph {
namespace {

TEST(EdgeSupports, SumEqualsThreeTimesTriangles) {
  const EdgeList g = simplify(erdos_renyi(150, 1200, 7));
  const auto support = edge_supports(g);
  TriangleCount sum = 0;
  for (const TriangleCount s : support) sum += s;
  EXPECT_EQ(sum, 3 * count_triangles_serial(Csr::from_edges(g)));
}

TEST(EdgeSupports, CompleteGraphUniform) {
  const EdgeList g = simplify(complete_graph(8));
  for (const TriangleCount s : edge_supports(g)) {
    EXPECT_EQ(s, 6u);  // every edge of K8 is in n-2 triangles
  }
}

TEST(EdgeSupports, RequiresSimplifiedInput) {
  EdgeList g;
  g.num_vertices = 3;
  g.edges = {{1, 0}};  // wrong orientation
  EXPECT_THROW(edge_supports(g), std::invalid_argument);
}

TEST(Ktruss, CompleteGraphIsItsOwnTruss) {
  // Every edge of K_n has trussness n.
  for (const VertexId n : {4u, 6u, 9u}) {
    const EdgeList g = simplify(complete_graph(n));
    const KtrussResult result = ktruss_decomposition(g);
    EXPECT_EQ(result.max_k, static_cast<int>(n));
    for (const int t : result.trussness) EXPECT_EQ(t, static_cast<int>(n));
  }
}

TEST(Ktruss, TriangleFreeGraphsHaveTrussnessTwo) {
  for (const EdgeList& g :
       {simplify(cycle_graph(12)), simplify(star_graph(9)),
        simplify(grid_graph(4, 5)), simplify(petersen_graph())}) {
    const KtrussResult result = ktruss_decomposition(g);
    EXPECT_EQ(result.max_k, 2);
    for (const int t : result.trussness) EXPECT_EQ(t, 2);
  }
}

TEST(Ktruss, EmptyGraph) {
  EdgeList g;
  g.num_vertices = 5;
  const KtrussResult result = ktruss_decomposition(g);
  EXPECT_EQ(result.max_k, 0);
  EXPECT_TRUE(result.trussness.empty());
}

TEST(Ktruss, WheelGraphIsAThreeTruss) {
  // Rim edges sit in one triangle, spokes in two; peeling at k=4 removes
  // the rim and then everything, so all edges have trussness 3.
  const EdgeList g = simplify(wheel_graph(8));
  const KtrussResult result = ktruss_decomposition(g);
  EXPECT_EQ(result.max_k, 3);
  for (const int t : result.trussness) EXPECT_EQ(t, 3);
}

TEST(Ktruss, PlantedCliqueSurvivesPeeling) {
  // A K6 planted in a sparse cycle: the clique's 15 edges must have
  // trussness 6; the cycle edges 2.
  EdgeList g;
  g.num_vertices = 40;
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = u + 1; v < 6; ++v) g.edges.push_back(Edge{u, v});
  }
  for (VertexId v = 6; v < 40; ++v) {
    g.edges.push_back(Edge{v, static_cast<VertexId>(v + 1 == 40 ? 6 : v + 1)});
  }
  g = simplify(std::move(g));
  const KtrussResult result = ktruss_decomposition(g);
  EXPECT_EQ(result.max_k, 6);
  int six_count = 0;
  for (std::size_t e = 0; e < g.edges.size(); ++e) {
    if (g.edges[e].v < 6) {
      EXPECT_EQ(result.trussness[e], 6);
      ++six_count;
    } else {
      EXPECT_EQ(result.trussness[e], 2);
    }
  }
  EXPECT_EQ(six_count, 15);
  EXPECT_EQ(result.truss_edges(g, 6).size(), 15u);
  EXPECT_EQ(result.truss_edges(g, 3).size(), 15u);
  EXPECT_EQ(result.truss_edges(g, 2).size(), g.edges.size());
}

TEST(Ktruss, TrussSubgraphEdgesAreNested) {
  const EdgeList g = simplify(rmat([] {
    RmatParams p;
    p.scale = 9;
    p.edge_factor = 8;
    p.seed = 17;
    return p;
  }()));
  const KtrussResult result = ktruss_decomposition(g);
  std::size_t previous = g.edges.size() + 1;
  for (int k = 2; k <= result.max_k; ++k) {
    const std::size_t size = result.truss_edges(g, k).size();
    EXPECT_LE(size, previous);
    previous = size;
  }
  EXPECT_GT(result.max_k, 2);  // RMAT graphs have dense cores
}

TEST(Ktruss, KtrussDefinitionHoldsOnRandomGraph) {
  // Brute-force check of the defining property: within the k-truss
  // subgraph, every edge has >= k-2 triangles (for the max k).
  const EdgeList g = simplify(erdos_renyi(80, 600, 11));
  const KtrussResult result = ktruss_decomposition(g);
  if (result.max_k < 3) return;
  EdgeList truss;
  truss.num_vertices = g.num_vertices;
  truss.edges = result.truss_edges(g, result.max_k);
  ASSERT_FALSE(truss.edges.empty());
  const auto supports = edge_supports(truss);
  for (const TriangleCount s : supports) {
    EXPECT_GE(s, static_cast<TriangleCount>(result.max_k - 2));
  }
}

TEST(Ktruss, MaxTrussIsMaximal) {
  // There must be no non-empty (max_k + 1)-truss.
  const EdgeList g = simplify(erdos_renyi(60, 400, 13));
  const KtrussResult result = ktruss_decomposition(g);
  EXPECT_TRUE(result.truss_edges(g, result.max_k + 1).empty());
}

/// The k-truss by its definition: repeatedly drop every edge whose
/// support within the remaining subgraph is below k - 2.
std::vector<Edge> brute_force_truss(const EdgeList& g, int k) {
  EdgeList left = g;
  for (;;) {
    const std::vector<TriangleCount> supports = edge_supports(left);
    std::vector<Edge> kept;
    for (std::size_t e = 0; e < left.edges.size(); ++e) {
      if (static_cast<int>(supports[e]) >= k - 2) {
        kept.push_back(left.edges[e]);
      }
    }
    if (kept.size() == left.edges.size()) return kept;
    left.edges = std::move(kept);
  }
}

TEST(Ktruss, TrussAtEveryKMatchesBruteForcePeeling) {
  // A K9 planted in a sparse random graph, so the peel meets both the
  // clique's core and the fringe that touches it.
  EdgeList planted = erdos_renyi(120, 500, 23);
  for (VertexId u = 0; u < 9; ++u) {
    for (VertexId v = u + 1; v < 9; ++v) {
      planted.edges.push_back(Edge{u * 13, v * 13});
    }
  }
  const std::vector<std::pair<const char*, EdgeList>> graphs = {
      {"erdos-renyi", simplify(erdos_renyi(150, 1400, 31))},
      {"rmat", simplify(rmat([] {
         RmatParams p;
         p.scale = 8;
         p.edge_factor = 8;
         p.seed = 5;
         return p;
       }()))},
      {"planted-clique", simplify(std::move(planted))},
  };
  for (const auto& [name, g] : graphs) {
    const KtrussResult result = ktruss_decomposition(g);
    EXPECT_GE(result.max_k, 4) << name;
    for (int k = 3; k <= result.max_k + 1; ++k) {
      EXPECT_EQ(result.truss_edges(g, k), brute_force_truss(g, k))
          << name << " k=" << k;
    }
  }
}

}  // namespace
}  // namespace tricount::graph
