// Distributed graph input handling (paper §5.3 "initial redistribution").
//
// The algorithm assumes the graph arrives in a 1D block distribution: each
// rank owns n/p consecutive vertices and their full adjacency lists
// (LocalSlice). The first preprocessing step converts this to a 1D
// *cyclic* distribution (owner(v) = v mod p, local index v ÷ p), which
// breaks up localized clumps of dense vertices (CyclicSlice).
//
// Two input paths are provided:
//  * block_slice_from_edges: carve a rank's block out of a replicated edge
//    list (tests and file-based examples);
//  * block_slice_from_rmat: distributed generation — each rank generates a
//    disjoint slice of the RMAT edge-slot stream and routes endpoints to
//    their block owners, matching the paper's in-memory dataset creation.
#pragma once

#include <vector>

#include "tricount/core/adjacency.hpp"
#include "tricount/core/block_matrix.hpp"
#include "tricount/graph/csr.hpp"
#include "tricount/graph/edge_list.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/mpisim/collectives.hpp"
#include "tricount/mpisim/comm.hpp"

namespace tricount::core {

using graph::EdgeIndex;

/// 1D block distribution: this rank owns vertices [begin, end).
struct LocalSlice {
  VertexId num_vertices = 0;
  VertexId begin = 0;
  VertexId end = 0;
  /// adj[v - begin] = sorted, deduplicated full adjacency of v (no
  /// self-loops).
  Adjacency adj;

  VertexId owned() const { return end - begin; }
  /// Number of undirected edges whose lower endpoint lives here.
  EdgeIndex owned_edges() const;
};

/// Balanced block range of rank r among p: sizes differ by at most one.
std::pair<VertexId, VertexId> block_range(VertexId n, int rank, int p);
int block_owner(VertexId v, VertexId n, int p);

/// Builds this rank's block slice from a replicated edge list. No
/// communication. O(m) per rank — prefer the CSR overload when many ranks
/// slice the same graph. A simplified list leaves every row ascending;
/// any other list is brought to the slice's invariant here: repeated
/// edges, in either orientation, and self-loops are dropped.
LocalSlice block_slice_from_edges(const graph::EdgeList& graph, int rank,
                                  int p);

/// Same, from a prebuilt symmetric CSR: O(owned adjacency) per rank, so a
/// p-rank world slices the whole graph in O(m) total.
LocalSlice block_slice_from_csr(const graph::Csr& csr, int rank, int p);

/// Distributed RMAT ingestion: generate slice, route endpoints to block
/// owners (all-to-all), sort and deduplicate locally.
LocalSlice block_slice_from_rmat(mpisim::Comm& comm,
                                 const graph::RmatParams& params);

/// 1D cyclic distribution: owner(v) = v % p.
struct CyclicSlice {
  VertexId num_vertices = 0;
  int rank = 0;
  int p = 1;
  /// adj[k] = adjacency of global vertex rank + k*p, as in the input.
  Adjacency adj;

  VertexId owned() const { return static_cast<VertexId>(adj.size()); }
  VertexId global_id(VertexId local) const {
    return static_cast<VertexId>(rank) + local * static_cast<VertexId>(p);
  }
};

/// Step (i) of preprocessing: block -> cyclic redistribution. Each row
/// travels as one routing record and lands as one copied run. Throws
/// std::runtime_error when a record reaches the wrong rank or a vertex's
/// record arrives twice (input slices that overlap).
CyclicSlice cyclic_redistribute(mpisim::Comm& comm, const LocalSlice& input);

}  // namespace tricount::core
