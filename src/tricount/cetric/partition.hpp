// Degree-aware 1D partition for the CETRIC-style counter (docs/cetric.md).
//
// After the shared preprocessing (cyclic redistribution + degree
// relabeling, core/preprocess.hpp), vertex ids are in non-decreasing
// degree order. CETRIC owns *contiguous ranges* of that order, split so
// every rank holds roughly the same counting time: weight(v) = 1 +
// kTaskWeight·deg+(v) + C(deg+(v), 2), with deg+ the out-degree of the
// degree-ordered DAG. Each Adj+ entry opens at most one wedge, counted as
// one kernel task whose fixed cost is worth kTaskWeight (64) lookups, and a
// wedge closes at a cost of at most its tail. Without the task term the
// rank holding the many short low-degree rows runs far more tasks per
// lookup than the others and sets the superstep's time. Contiguity is the
// property the counter leans on: every Adj+ entry points to a vertex
// with an id larger than its row, so the rank owning a wedge's closing
// vertex is never to the "left" of the wedge's generating rank.
//
// The replicated deg+ array doubles as the routing oracle: every rank
// computes the same boundaries from it without further communication,
// and the ghost-exchange heuristic compares a closing vertex's pull
// cost (its deg+) against the wedge mass that would otherwise ship.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tricount/core/dist_graph.hpp"

namespace tricount::cetric {

using VertexId = graph::VertexId;
using EdgeIndex = graph::EdgeIndex;

/// Contiguous ownership ranges over the degree-ordered vertex ids: rank
/// r owns [boundaries[r], boundaries[r+1]). Ranges may be empty when
/// there are more ranks than weight to split.
struct Partition {
  VertexId num_vertices = 0;
  int p = 1;
  int rank = 0;
  /// p+1 non-decreasing split points; boundaries[0] == 0 and
  /// boundaries[p] == num_vertices.
  std::vector<VertexId> boundaries;

  VertexId begin() const {
    return boundaries[static_cast<std::size_t>(rank)];
  }
  VertexId end() const {
    return boundaries[static_cast<std::size_t>(rank) + 1];
  }
  VertexId owned() const { return end() - begin(); }
  bool owns(VertexId v) const { return v >= begin() && v < end(); }

  /// The unique rank whose range contains `v` (v < num_vertices).
  int owner(VertexId v) const;
};

/// Deterministic greedy prefix split: boundary r is the first vertex at
/// which the cumulative weight (1 + kTaskWeight·deg+ + C(deg+, 2), with
/// kTaskWeight = 64) reaches r/p of the total.
/// Every rank computes this from the replicated deg+ array, so the
/// partition needs no extra communication round.
std::vector<VertexId> degree_aware_boundaries(
    const std::vector<VertexId>& deg_plus, int p);

/// One rank's share of the degree-ordered DAG under the CETRIC
/// partition, plus the replicated routing oracle.
struct CetricGraph {
  Partition part;
  /// Adj+(v) for each owned v (row v - part.begin()), sorted ascending;
  /// entries are > v.
  core::Adjacency adj_plus;
  /// Replicated deg+ of *every* vertex (the routing/ghost oracle).
  std::vector<VertexId> deg_plus;
  EdgeIndex num_edges = 0;  ///< global undirected edge count
  /// Adjacency entries this rank shipped while routing lists to their
  /// partition owners (the partition superstep's ops sample).
  std::uint64_t routed_entries = 0;

  std::span<const VertexId> plus(VertexId v) const {
    return adj_plus[static_cast<std::size_t>(v - part.begin())];
  }
};

/// Builds the partitioned DAG from this rank's input slice: cyclic
/// redistribution -> degree relabel -> deg+ replication -> boundary
/// computation -> all-to-all routing of Adj+ lists to their owners.
/// Adj+(w) is the suffix of w's relabeled row above w, so nothing is
/// filtered or sorted. The slice is freed once cyclic_redistribute has
/// routed it. Throws std::runtime_error when a routed list reaches the
/// wrong rank, arrives twice, or disagrees in length with the replicated
/// deg+.
CetricGraph build_cetric_graph(mpisim::Comm& comm, core::LocalSlice input);

}  // namespace tricount::cetric
