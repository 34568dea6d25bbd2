// Distributed per-vertex triangle counting — the natural extension of the
// 2D algorithm that the paper's motivating applications (clustering
// coefficients, transitivity, k-truss support, community detection) need.
//
// The Cannon sweep runs under its per-vertex tally (counter2d.hpp): every
// closed triangle (i, j, k) credits all three endpoints. Because the
// kernel works in block-local coordinates, the rank's grid position
// (x, y) and the current shift's column block z recover the global ids:
//   row r    -> j = r*q + x,
//   entry e  -> i = e*q + y,
//   closer t -> k = t*q + z.
// Per-rank credits are then reduced to the cyclic owners of the *new*
// (degree-ordered) ids, which translate them back to the caller's
// original vertex ids through the resident id map (core/resident.hpp).
#pragma once

#include <vector>

#include "tricount/core/config.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/graph/edge_list.hpp"
#include "tricount/graph/types.hpp"

namespace tricount::core {

struct PerVertexResult {
  graph::TriangleCount total_triangles = 0;
  /// counts[v] = triangles containing v, in the caller's original ids.
  /// Sums to 3 * total_triangles.
  std::vector<graph::TriangleCount> counts;
  int ranks = 0;

  /// Local clustering coefficient of v given its degree.
  double local_clustering(graph::VertexId v, graph::EdgeIndex degree) const;
};

/// Distributed per-vertex triangle counting on a simulated world of
/// `ranks` ranks (perfect square): preprocess once, run the per-vertex
/// tally once.
PerVertexResult count_per_vertex_2d(const graph::EdgeList& graph, int ranks,
                                    const RunOptions& options = {});

/// Network-level clustering statistics computed distributedly: global
/// triangle count, wedge count, transitivity, and the average local
/// clustering coefficient.
struct ClusteringStats {
  graph::TriangleCount triangles = 0;
  graph::TriangleCount wedges = 0;
  double transitivity = 0.0;
  double average_local_clustering = 0.0;
};

ClusteringStats clustering_stats_2d(const graph::EdgeList& graph, int ranks,
                                    const RunOptions& options = {});

/// The same statistics from per-vertex counts already computed on `graph`.
ClusteringStats clustering_stats(const graph::EdgeList& graph,
                                 const PerVertexResult& per_vertex);

}  // namespace tricount::core
