// Structural graph statistics: degree-distribution summaries, log-binned
// histograms (the standard way to inspect power-law degree tails, which
// drive the paper's load-balance story), connected components, and
//2-core size. Used by the CLI's `stats` subcommand and the dataset
// characterization bench.
#pragma once

#include <vector>

#include "tricount/graph/csr.hpp"
#include "tricount/graph/edge_list.hpp"

namespace tricount::graph {

struct DegreeStats {
  EdgeIndex min_degree = 0;
  EdgeIndex max_degree = 0;
  double mean_degree = 0.0;
  double median_degree = 0.0;
  /// Coefficient of variation (stddev / mean): ~0 for regular graphs,
  /// large for power-law graphs — a one-number skew indicator.
  double coefficient_of_variation = 0.0;
  VertexId isolated_vertices = 0;
};

DegreeStats degree_stats(const Csr& csr);

/// Degree assortativity coefficient (Newman): Pearson correlation of the
/// degrees at the two ends of each edge, in [-1, 1]. Social networks are
/// typically assortative (> 0), RMAT graphs disassortative (< 0).
/// Returns 0 for graphs with fewer than 2 edges or zero variance.
double degree_assortativity(const Csr& csr);

struct ComponentStats {
  VertexId num_components = 0;
  VertexId largest_component = 0;
  /// component[v] = representative id of v's component.
  std::vector<VertexId> component;
};

/// Connected components via BFS (serial reference; the distributed
/// version lives in core/components2d).
ComponentStats connected_components(const Csr& csr);

/// Number of vertices surviving the 2-core peel (degree >= 2 closure) —
/// the vertices that can participate in any triangle. Mirrors the peel
/// the Havoq-like baseline performs distributedly.
VertexId two_core_size(const EdgeList& simplified);

}  // namespace tricount::graph
