// Tests for the graph substrate: edge-list simplification, CSR/DCSR
// invariants, degree ordering, and every generator's structural
// guarantees.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "test_seed.hpp"
#include "tricount/graph/csr.hpp"
#include "tricount/graph/degree_order.hpp"
#include "tricount/graph/edge_list.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/util/rng.hpp"

namespace tricount::graph {
namespace {

/// simplify's contract by the plain route: orient, drop self-loops, sort
/// by (u, v), drop repeats.
std::vector<Edge> reference_simplify(std::vector<Edge> edges) {
  std::vector<Edge> out;
  for (Edge e : edges) {
    if (e.u > e.v) std::swap(e.u, e.v);
    if (e.u != e.v) out.push_back(e);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// A multigraph soup of `m` edges on [0, n), n >= 1: ids come from the
/// lowest and the highest 300 ids, so they sit near both ends of the key,
/// and the soup holds both orientations, repeats and self-loops.
std::vector<Edge> random_soup(VertexId n, std::size_t m, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const VertexId window = std::min<VertexId>(n, 300);
  const auto id = [&]() -> VertexId {
    const auto offset = static_cast<VertexId>(rng.bounded(window));
    return rng.bounded(2) == 0 ? offset : n - 1 - offset;
  };
  std::vector<Edge> edges;
  while (edges.size() < m) {
    const std::uint64_t roll = rng.bounded(8);
    if (roll == 0) {
      const VertexId v = id();
      edges.push_back({v, v});
    } else if (roll <= 2 && !edges.empty()) {
      const Edge e = edges[rng.bounded(edges.size())];
      edges.push_back(roll == 1 ? e : Edge{e.v, e.u});
    } else {
      edges.push_back({id(), id()});
    }
  }
  return edges;
}

/// Requires simplify to return exactly the reference's edges, in order.
void expect_simplify_matches_reference(VertexId n, std::vector<Edge> edges) {
  const std::vector<Edge> expected = reference_simplify(edges);
  const EdgeList s = simplify(EdgeList{n, std::move(edges)});
  EXPECT_EQ(s.num_vertices, n);
  EXPECT_EQ(s.edges, expected) << "n=" << n;
}

TEST(EdgeListTest, SimplifyRemovesLoopsAndDuplicates) {
  EdgeList g;
  g.num_vertices = 5;
  g.edges = {{1, 2}, {2, 1}, {3, 3}, {0, 4}, {4, 0}, {1, 2}};
  const EdgeList s = simplify(std::move(g));
  EXPECT_EQ(s.edges.size(), 2u);
  EXPECT_EQ(s.edges[0], (Edge{0, 4}));
  EXPECT_EQ(s.edges[1], (Edge{1, 2}));
}

TEST(EdgeListTest, SimplifyIsIdempotent) {
  EdgeList g;
  g.num_vertices = 4;
  g.edges = {{0, 1}, {1, 2}, {2, 3}};
  const EdgeList once = simplify(g);
  const EdgeList twice = simplify(once);
  EXPECT_EQ(once.edges, twice.edges);

  // A large input: a 2^17-vertex small world's edges, reversed, after a
  // reversed copy of each.
  EdgeList large = watts_strogatz(1u << 17, 8, 0.1, 5);
  const std::size_t m = large.edges.size();
  for (std::size_t i = 0; i < m; ++i) {
    large.edges.push_back({large.edges[i].v, large.edges[i].u});
  }
  std::reverse(large.edges.begin(), large.edges.end());
  const EdgeList large_once = simplify(large);
  const EdgeList large_twice = simplify(large_once);
  EXPECT_EQ(large_once.edges.size(), m);
  EXPECT_EQ(large_once.edges, large_twice.edges);
}

// simplify sorts by radix on the packed key (u << b) | v, 8-bit digits
// from the top, insertion-sorting buckets below 64 edges. The vertex
// counts straddle the digit boundaries (b = 1, 8, 9, 17 and 32, the last a
// 64-bit key); the edge counts straddle the insertion cut-off and the
// 256-way fan-out.
TEST(EdgeListTest, SimplifyMatchesSortReference) {
  const VertexId kVertexCounts[] = {1,   2,         255,       256,
                                    257, 65536 + 1, 0xFFFFFFFFu};
  const std::size_t kEdgeCounts[] = {0,   1,   2,   63,   64,   65,
                                     255, 256, 257, 4096, 70000};
  std::uint64_t seed = test_support::fuzz_seed();
  for (const VertexId n : kVertexCounts) {
    for (const std::size_t m : kEdgeCounts) {
      expect_simplify_matches_reference(n, random_soup(n, m, ++seed));
    }
  }
  const EdgeList empty = simplify(EdgeList{0, {}});
  EXPECT_EQ(empty.num_vertices, 0u);
  EXPECT_TRUE(empty.edges.empty());
  EXPECT_THROW(simplify(EdgeList{0, {{0, 0}}}), std::out_of_range);
}

TEST(EdgeListTest, SimplifyOrdersAHubRowAcrossDigitBuckets) {
  // The hub's row runs both ways from the middle of the id range, so its
  // edges fall into many buckets of every digit below the top one.
  const VertexId n = 65536 + 1;
  const VertexId hub = 40000;
  std::vector<Edge> edges;
  for (VertexId leaf = 0; leaf < n; ++leaf) {
    edges.push_back({hub, leaf});  // (hub, hub) is a self-loop
    if (leaf % 3 == 0) edges.push_back({leaf, hub});
  }
  util::Xoshiro256 rng(test_support::fuzz_seed());
  for (std::size_t i = edges.size() - 1; i > 0; --i) {
    std::swap(edges[i], edges[rng.bounded(i + 1)]);
  }
  expect_simplify_matches_reference(n, edges);
  EXPECT_EQ(simplify(EdgeList{n, edges}).edges.size(), n - 1);
}

TEST(EdgeListTest, SimplifyCollapsesTwoMillionCopiesOfOneEdge) {
  // Every key is equal, so each digit level finds one full bucket; a pass
  // quadratic in a bucket's size would not finish.
  std::vector<Edge> edges(2'000'000, Edge{7, 3});
  for (std::size_t i = 0; i < edges.size(); i += 2) edges[i] = Edge{3, 7};
  const EdgeList s = simplify(EdgeList{1u << 18, std::move(edges)});
  EXPECT_EQ(s.edges, (std::vector<Edge>{{3, 7}}));
}

TEST(EdgeListTest, SimplifyOfOnlySelfLoopsIsEmpty) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v < 1000; ++v) edges.push_back({v % 300, v % 300});
  EXPECT_TRUE(simplify(EdgeList{300, std::move(edges)}).edges.empty());
}

TEST(EdgeListTest, SimplifyRejectsOutOfRange) {
  EdgeList g;
  g.num_vertices = 2;
  g.edges = {{0, 5}};
  EXPECT_THROW(simplify(std::move(g)), std::out_of_range);
}

TEST(EdgeListTest, DegreesCountBothEndpoints) {
  EdgeList g;
  g.num_vertices = 4;
  g.edges = {{0, 1}, {0, 2}, {0, 3}};
  const auto deg = degrees(g);
  EXPECT_EQ(deg, (std::vector<EdgeIndex>{3, 1, 1, 1}));
  EXPECT_EQ(max_degree(g), 3u);
}

TEST(EdgeListTest, RelabelPermutesEndpoints) {
  EdgeList g;
  g.num_vertices = 3;
  g.edges = {{0, 1}, {1, 2}};
  const EdgeList r = relabel(g, {2, 0, 1});
  // (0,1)->(2,0)->(0,2); (1,2)->(0,1).
  EXPECT_EQ(r.edges[0], (Edge{0, 1}));
  EXPECT_EQ(r.edges[1], (Edge{0, 2}));
}

TEST(EdgeListTest, RelabelSizeMismatchThrows) {
  EdgeList g;
  g.num_vertices = 3;
  EXPECT_THROW(relabel(g, {0, 1}), std::invalid_argument);
  g.edges = {{0, 1}};
  EXPECT_THROW(relabel(g, {0, 3, 1}), std::invalid_argument);
}

TEST(EdgeListTest, RelabelSortsLikeTheReference) {
  const VertexId n = 70001;
  const EdgeList g{n, reference_simplify(random_soup(n, 50000, 17))};
  std::vector<VertexId> perm(n);
  for (VertexId v = 0; v < n; ++v) perm[v] = (v * 7919u + 11u) % n;
  ASSERT_TRUE(is_permutation(perm));
  std::vector<Edge> mapped;
  for (const Edge& e : g.edges) mapped.push_back({perm[e.u], perm[e.v]});
  EXPECT_EQ(relabel(g, perm).edges, reference_simplify(mapped));
}

TEST(EdgeListTest, IsPermutation) {
  EXPECT_TRUE(is_permutation({2, 0, 1}));
  EXPECT_FALSE(is_permutation({0, 0, 1}));
  EXPECT_FALSE(is_permutation({0, 3, 1}));
  EXPECT_TRUE(is_permutation({}));
}

TEST(CsrTest, FromEdgesBuildsSymmetricSortedLists) {
  EdgeList g;
  g.num_vertices = 4;
  g.edges = {{0, 2}, {0, 1}, {2, 3}};
  const Csr csr = Csr::from_edges(simplify(std::move(g)));
  csr.validate();
  EXPECT_EQ(csr.num_vertices(), 4u);
  EXPECT_EQ(csr.num_edges(), 3u);
  EXPECT_EQ(csr.num_directed_edges(), 6u);
  EXPECT_EQ(csr.degree(0), 2u);
  const auto n0 = csr.neighbors(0);
  EXPECT_EQ(std::vector<VertexId>(n0.begin(), n0.end()),
            (std::vector<VertexId>{1, 2}));
  EXPECT_TRUE(csr.has_edge(2, 3));
  EXPECT_TRUE(csr.has_edge(3, 2));
  EXPECT_FALSE(csr.has_edge(1, 3));
  EXPECT_EQ(csr.max_degree(), 2u);
}

TEST(CsrTest, RowsThatDoNotAscendAreSorted) {
  // An unsimplified list: reversed, repeated and out-of-order edges. The
  // build sorts every row that does not ascend and keeps the repeats.
  EdgeList g;
  g.num_vertices = 5;
  g.edges = {{3, 0}, {0, 2}, {1, 0}, {2, 0}, {4, 1}, {1, 4}, {2, 3}};
  const Csr csr = Csr::from_edges(g);
  csr.validate();
  const auto row = [&](VertexId v) {
    const auto nbrs = csr.neighbors(v);
    return std::vector<VertexId>(nbrs.begin(), nbrs.end());
  };
  EXPECT_EQ(row(0), (std::vector<VertexId>{1, 2, 2, 3}));
  EXPECT_EQ(row(1), (std::vector<VertexId>{0, 4, 4}));
  EXPECT_EQ(row(2), (std::vector<VertexId>{0, 0, 3}));
  EXPECT_EQ(row(3), (std::vector<VertexId>{0, 2}));
  EXPECT_EQ(row(4), (std::vector<VertexId>{1, 1}));
  EXPECT_EQ(csr.num_directed_edges(), 14u);
}

TEST(CsrTest, EmptyGraph) {
  EdgeList g;
  g.num_vertices = 0;
  const Csr csr = Csr::from_edges(g);
  csr.validate();
  EXPECT_EQ(csr.num_vertices(), 0u);
  EXPECT_EQ(csr.num_edges(), 0u);
}

TEST(CsrTest, IsolatedVertices) {
  EdgeList g;
  g.num_vertices = 6;
  g.edges = {{1, 4}};
  const Csr csr = Csr::from_edges(g);
  csr.validate();
  EXPECT_EQ(csr.degree(0), 0u);
  EXPECT_EQ(csr.degree(1), 1u);
  EXPECT_EQ(nonempty_rows(csr), (std::vector<VertexId>{1, 4}));
}

TEST(DegreeOrderTest, PositionsAreNonDecreasingDegreePermutation) {
  const EdgeList g = simplify(star_graph(5));  // hub degree 5, leaves 1
  const auto pos = degree_order_positions(g);
  ASSERT_TRUE(is_permutation(pos));
  // The hub (vertex 0) must come last.
  EXPECT_EQ(pos[0], 5u);
  // Leaves keep id order among ties.
  for (VertexId leaf = 1; leaf <= 5; ++leaf) {
    EXPECT_EQ(pos[leaf], leaf - 1);
  }
}

TEST(DegreeOrderTest, ApplyDegreeOrderSortsDegrees) {
  const EdgeList g = rmat([] {
    RmatParams p;
    p.scale = 8;
    p.edge_factor = 6;
    p.seed = 3;
    return p;
  }());
  const EdgeList ordered = apply_degree_order(g);
  const auto deg = degrees(ordered);
  for (std::size_t v = 1; v < deg.size(); ++v) {
    EXPECT_LE(deg[v - 1], deg[v]) << "degree order violated at " << v;
  }
  // Relabeling preserves edge count.
  EXPECT_EQ(ordered.edges.size(), g.edges.size());
}

// --- generators -----------------------------------------------------------

TEST(GeneratorsTest, CompleteGraph) {
  const EdgeList g = complete_graph(7);
  EXPECT_EQ(g.edges.size(), 21u);
  EXPECT_EQ(complete_graph_triangles(7), 35u);
  EXPECT_EQ(complete_graph_triangles(2), 0u);
}

TEST(GeneratorsTest, CycleAndPath) {
  EXPECT_EQ(cycle_graph(10).edges.size(), 10u);
  EXPECT_EQ(cycle_graph(2).edges.size(), 0u);
  EXPECT_EQ(path_graph(10).edges.size(), 9u);
  EXPECT_EQ(path_graph(1).edges.size(), 0u);
}

TEST(GeneratorsTest, StarWheelGridBipartite) {
  EXPECT_EQ(star_graph(6).edges.size(), 6u);
  EXPECT_EQ(wheel_graph(5).edges.size(), 10u);  // 5 rim + 5 spokes
  EXPECT_THROW(wheel_graph(2), std::invalid_argument);
  EXPECT_EQ(grid_graph(3, 4).edges.size(), 17u);  // 3*3 + 2*4
  EXPECT_EQ(complete_bipartite(3, 4).edges.size(), 12u);
}

TEST(GeneratorsTest, PetersenGraphShape) {
  const EdgeList g = petersen_graph();
  EXPECT_EQ(g.num_vertices, 10u);
  EXPECT_EQ(g.edges.size(), 15u);
  const auto deg = degrees(g);
  for (const auto d : deg) EXPECT_EQ(d, 3u);  // 3-regular
}

TEST(GeneratorsTest, RmatDeterministicPerSeed) {
  RmatParams params;
  params.scale = 8;
  params.edge_factor = 4;
  params.seed = 11;
  const EdgeList a = rmat(params);
  const EdgeList b = rmat(params);
  EXPECT_EQ(a.edges, b.edges);
  params.seed = 12;
  const EdgeList c = rmat(params);
  EXPECT_NE(a.edges, c.edges);
}

TEST(GeneratorsTest, RmatSliceConsistency) {
  // Generating [0, m) must equal concatenating sub-slices: the property
  // the distributed generator depends on.
  RmatParams params;
  params.scale = 7;
  params.edge_factor = 5;
  params.seed = 2;
  const auto all = rmat_edge_slice(params, 0, 100);
  auto stitched = rmat_edge_slice(params, 0, 37);
  const auto mid = rmat_edge_slice(params, 37, 70);
  const auto tail = rmat_edge_slice(params, 70, 100);
  stitched.insert(stitched.end(), mid.begin(), mid.end());
  stitched.insert(stitched.end(), tail.begin(), tail.end());
  EXPECT_EQ(all, stitched);
}

TEST(GeneratorsTest, RmatIdsInRange) {
  RmatParams params;
  params.scale = 6;
  params.seed = 9;
  const EdgeList g = rmat(params);
  EXPECT_EQ(g.num_vertices, 64u);
  for (const Edge& e : g.edges) {
    EXPECT_LT(e.u, 64u);
    EXPECT_LT(e.v, 64u);
    EXPECT_LT(e.u, e.v);  // simplified orientation
  }
}

TEST(GeneratorsTest, RmatSkewProducesHubs) {
  RmatParams params;
  params.scale = 10;
  params.edge_factor = 8;
  params.seed = 4;
  const EdgeList g = rmat(params);
  const auto deg = degrees(g);
  const EdgeIndex dmax = max_degree(g);
  const double davg =
      2.0 * static_cast<double>(g.edges.size()) / static_cast<double>(g.num_vertices);
  EXPECT_GT(static_cast<double>(dmax), 5.0 * davg)
      << "RMAT should be heavy-tailed";
  (void)deg;
}

TEST(GeneratorsTest, RmatValidatesParameters) {
  RmatParams params;
  params.scale = 0;
  EXPECT_THROW(rmat(params), std::invalid_argument);
  params.scale = 8;
  params.a = 0.9;  // probabilities no longer sum to 1
  EXPECT_THROW(rmat(params), std::invalid_argument);
}

TEST(GeneratorsTest, SurrogatePresetsDiffer) {
  const RmatParams tw = twitter_like_params(10);
  const RmatParams fr = friendster_like_params(10);
  EXPECT_GT(tw.a, fr.a);  // twitter-like is more skewed
  EXPECT_GT(tw.edge_factor, fr.edge_factor);
  EXPECT_NEAR(tw.a + tw.b + tw.c + tw.d, 1.0, 1e-12);
  EXPECT_NEAR(fr.a + fr.b + fr.c + fr.d, 1.0, 1e-12);
}

TEST(GeneratorsTest, ErdosRenyiBasicShape) {
  const EdgeList g = erdos_renyi(100, 300, 5);
  EXPECT_EQ(g.num_vertices, 100u);
  EXPECT_LE(g.edges.size(), 300u);
  EXPECT_GT(g.edges.size(), 200u);  // few duplicates at this density
  for (const Edge& e : g.edges) EXPECT_LT(e.u, e.v);
}

TEST(GeneratorsTest, WattsStrogatzShape) {
  const EdgeList g = watts_strogatz(60, 6, 0.1, 8);
  EXPECT_EQ(g.num_vertices, 60u);
  EXPECT_LE(g.edges.size(), 180u);
  EXPECT_GT(g.edges.size(), 150u);
  EXPECT_THROW(watts_strogatz(10, 3, 0.1, 1), std::invalid_argument);
}

TEST(GeneratorsTest, WattsStrogatzZeroBetaIsRingLattice) {
  const EdgeList g = watts_strogatz(20, 4, 0.0, 1);
  EXPECT_EQ(g.edges.size(), 40u);
  const auto deg = degrees(g);
  for (const auto d : deg) EXPECT_EQ(d, 4u);
}

}  // namespace
}  // namespace tricount::graph
