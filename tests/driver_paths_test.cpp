// Tests for the driver's input paths: CSR-based slicing must agree with
// edge-list slicing, an unsimplified edge list must slice and count (its
// triangles and its edges, on every algorithm) like its simplification,
// and the CSR driver overload must produce identical
// runs (it is the path the bench harness uses).
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "tricount/cetric/cetric.hpp"
#include "tricount/core/dist_graph.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/core/summa2d.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/serial_count.hpp"
#include "tricount/util/rng.hpp"

namespace tricount::core {
namespace {

using graph::EdgeList;

EdgeList sweep_graph() {
  graph::RmatParams params;
  params.scale = 9;
  params.edge_factor = 8;
  params.seed = 1234;
  return graph::rmat(params);
}

TEST(SlicePaths, CsrSliceEqualsEdgeListSlice) {
  const EdgeList g = sweep_graph();
  const graph::Csr csr = graph::Csr::from_edges(g);
  for (const int p : {1, 3, 7, 16}) {
    for (int r = 0; r < p; ++r) {
      const LocalSlice a = block_slice_from_edges(g, r, p);
      const LocalSlice b = block_slice_from_csr(csr, r, p);
      ASSERT_EQ(a.begin, b.begin);
      ASSERT_EQ(a.end, b.end);
      ASSERT_EQ(a.adj, b.adj) << "p=" << p << " rank=" << r;
    }
  }
}

TEST(SlicePaths, UnsimplifiedListsCountAsTheirSimplification) {
  // Two triangles, {0,1,2} and {1,2,3}; then the list with a repeated
  // edge, a reversed repeat, a self-loop, and all three shuffled in.
  const EdgeList base{4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {1, 3}}};
  std::vector<EdgeList> variants;
  for (const graph::Edge extra : {graph::Edge{0, 1}, graph::Edge{1, 0},
                                  graph::Edge{2, 2}}) {
    variants.push_back(base);
    variants.back().edges.push_back(extra);
  }
  EdgeList shuffled = base;
  shuffled.edges.insert(shuffled.edges.end(), {{0, 1}, {1, 0}, {2, 2}});
  std::shuffle(shuffled.edges.begin(), shuffled.edges.end(),
               util::Xoshiro256(7));
  variants.push_back(shuffled);

  for (const EdgeList& g : variants) {
    const EdgeList simple = graph::simplify(g);
    ASSERT_EQ(graph::count_triangles_serial(graph::Csr::from_edges(simple)),
              2);
    for (const int p : {1, 2, 3, 4}) {
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(block_slice_from_edges(g, r, p).adj,
                  block_slice_from_edges(simple, r, p).adj)
            << "p=" << p << " rank=" << r;
      }
      const RunResult cetric = cetric::count_triangles_cetric(g, p);
      EXPECT_EQ(cetric.triangles, 2) << "p=" << p;
      EXPECT_EQ(cetric.num_edges, simple.edges.size()) << "p=" << p;
    }
    for (const int ranks : {1, 4}) {
      const RunResult two_d = count_triangles_2d(g, ranks);
      EXPECT_EQ(two_d.triangles, 2) << "ranks=" << ranks;
      EXPECT_EQ(two_d.num_edges, simple.edges.size()) << "ranks=" << ranks;
    }
    for (const auto& [rows, cols] : {std::pair{2, 2}, std::pair{2, 3}}) {
      SummaOptions options;
      options.grid_rows = rows;
      options.grid_cols = cols;
      const RunResult summa = count_triangles_summa(g, options);
      EXPECT_EQ(summa.triangles, 2) << rows << "x" << cols;
      EXPECT_EQ(summa.num_edges, simple.edges.size()) << rows << "x" << cols;
    }
  }
}

TEST(SlicePaths, OwnedEdgesSumToTotal) {
  const EdgeList g = sweep_graph();
  const graph::Csr csr = graph::Csr::from_edges(g);
  for (const int p : {1, 4, 9}) {
    graph::EdgeIndex total = 0;
    for (int r = 0; r < p; ++r) {
      total += block_slice_from_csr(csr, r, p).owned_edges();
    }
    EXPECT_EQ(total, g.edges.size());
  }
}

TEST(DriverPaths, CsrOverloadMatchesEdgeListOverload) {
  const EdgeList g = sweep_graph();
  const graph::Csr csr = graph::Csr::from_edges(g);
  for (const int ranks : {1, 4, 16}) {
    const RunResult from_edges = count_triangles_2d(g, ranks);
    const RunResult from_csr = count_triangles_2d(csr, ranks);
    EXPECT_EQ(from_edges.triangles, from_csr.triangles);
    EXPECT_EQ(from_edges.num_edges, from_csr.num_edges);
    EXPECT_EQ(from_csr.triangles,
              graph::count_triangles_serial(csr));
    // Deterministic structural counters agree between the two paths.
    EXPECT_EQ(from_edges.total_kernel().intersection_tasks,
              from_csr.total_kernel().intersection_tasks);
    EXPECT_EQ(from_edges.total_kernel().lookups,
              from_csr.total_kernel().lookups);
  }
}

TEST(DriverPaths, RepeatedRunsAreDeterministic) {
  const EdgeList g = sweep_graph();
  const RunResult a = count_triangles_2d(g, 9);
  const RunResult b = count_triangles_2d(g, 9);
  EXPECT_EQ(a.triangles, b.triangles);
  EXPECT_EQ(a.total_kernel().lookups, b.total_kernel().lookups);
  EXPECT_EQ(a.total_kernel().hits, b.total_kernel().hits);
  EXPECT_EQ(a.total_kernel().intersection_tasks,
            b.total_kernel().intersection_tasks);
  // Traffic is deterministic too (same blocks, same blobs).
  for (std::size_t s = 0; s < a.num_shifts(); ++s) {
    const auto sa = a.shift_samples(s);
    const auto sb = b.shift_samples(s);
    for (std::size_t r = 0; r < sa.size(); ++r) {
      EXPECT_EQ(sa[r].bytes, sb[r].bytes);
      EXPECT_EQ(sa[r].messages, sb[r].messages);
    }
  }
}

}  // namespace
}  // namespace tricount::core
