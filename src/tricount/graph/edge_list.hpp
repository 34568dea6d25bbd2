// Edge-list graph representation and simplification.
//
// Generators and file readers produce edge lists; `simplify` turns an
// arbitrary multigraph edge soup into the simple undirected graph every
// triangle-counting algorithm in this project assumes (paper §6.1: "We
// converted all the graph datasets to undirected, simple graphs").
#pragma once

#include <vector>

#include "tricount/graph/types.hpp"

namespace tricount::graph {

struct EdgeList {
  VertexId num_vertices = 0;
  std::vector<Edge> edges;

  EdgeIndex num_edges() const { return edges.size(); }
};

/// Canonicalizes to a simple undirected graph: drops self-loops, orients
/// each edge as (min, max), and removes duplicates, leaving the edges in
/// (u, v) ascending order. The sort runs in place (a radix sort on the
/// packed key (u << b) | v) and allocates no buffer the size of the edge
/// list. It runs on up to std::thread::hardware_concurrency() worker
/// threads, one per 2^16 edges, so a list under 2^17 edges sorts on the
/// caller alone. Idempotent. Throws std::out_of_range, on the calling
/// thread, if an endpoint is not below num_vertices.
EdgeList simplify(EdgeList graph);

/// Per-vertex degrees of a simplified (undirected, one record per edge)
/// edge list: each edge contributes to both endpoints.
std::vector<EdgeIndex> degrees(const EdgeList& graph);

/// Maximum degree; 0 for an empty graph.
EdgeIndex max_degree(const EdgeList& graph);

/// Applies a vertex relabeling: vertex v becomes perm[v]. `perm` must be a
/// permutation of [0, num_vertices). Edge orientation is re-canonicalized
/// and the edges sorted by (u, v), in place and on as many workers, as
/// `simplify` sorts them.
EdgeList relabel(const EdgeList& graph, const std::vector<VertexId>& perm);

/// True if `perm` is a permutation of [0, n).
bool is_permutation(const std::vector<VertexId>& perm);

}  // namespace tricount::graph
