// Incremental triangle maintenance on the resident partition
// (docs/streaming.md): accept edge insertion/deletion batches and update
// the global triangle count by counting only the wedges the delta
// closes or opens, instead of recounting the graph.
//
// The delta identity (Tangwongsan/Pavan/Tirthapura, PAPERS.md): with
// H = G \ D the survivor graph, D the deleted and B the inserted batch,
//
//   removed = Σ_{(u,v)∈D} |N_H(u) ∩ N_H(v)|          (1 deleted edge)
//           + pairs in D sharing a vertex, closed in H (2 deleted edges)
//           + triangles wholly inside D                (3 deleted edges)
//   added   = the same three terms over B,
//
// and |T(G')| = |T(G)| − removed + added, exactly. The starting total
// comes from the library's serial counter (graph::count_triangles_serial);
// from then on only the delta is counted.
//
// The dominant term-1 intersections are sharded over the 2D grid: the
// cell (x, y) owns the shard N_y(u) = {w ∈ N(u) : w ≡ y (mod q)} for
// every u ≡ x (mod q). For a delta edge (u, v) and column y, the rank
// owning N_y(v) ships that shard to the rank owning N_y(u) — grouped
// into one blob per (sender, executor) pair (util/blob.hpp) — and the
// executor counts |N_y(u) ∩ N_y(v)| with the kernels subsystem. The pass
// runs as one job on a PersistentWorld, the service's or one armed with
// a fault plan. Counting never mutates the state (count-then-apply), so
// a chaos crash replays the rank's counting superstep from its received
// shards without touching peers (mpisim/recovery.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "tricount/graph/edge_list.hpp"
#include "tricount/kernels/kernels.hpp"
#include "tricount/mpisim/runtime.hpp"

namespace tricount::stream {

using graph::Edge;
using graph::EdgeIndex;
using graph::TriangleCount;
using graph::VertexId;

/// One edge operation: insert (`+u v`) or delete (`-u v`). The edge is
/// stored canonically (u < v).
struct DeltaOp {
  bool insert = true;
  Edge edge;
};

/// An ordered batch of edge operations. Semantically the deletions are
/// applied before the insertions, and term 1 of both signs counts
/// against the survivor graph H = G \ D.
struct Batch {
  std::vector<DeltaOp> ops;
};

/// Parses one `+u v` / `-u v` op line (whitespace-separated decimal
/// ids). Returns nullopt on any malformed spelling.
std::optional<DeltaOp> parse_op(std::string_view text);

/// The maintained stream state: sorted adjacency, the triangle total,
/// and the edge-arrival order the sliding window evicts in.
class StreamState {
 public:
  StreamState() = default;

  /// Builds the state from a simplified edge list: adjacency and the
  /// exact triangle total (graph::count_triangles_serial). The base
  /// edges enter the arrival order in edge-list order.
  static StreamState from_graph(const graph::EdgeList& simplified);

  VertexId num_vertices() const { return static_cast<VertexId>(adj_.size()); }
  EdgeIndex num_edges() const { return live_edges_; }
  TriangleCount triangles() const { return triangles_; }

  bool has_edge(VertexId u, VertexId v) const;
  std::span<const VertexId> neighbors(VertexId u) const;

  /// Snapshot of the live edge set as a simplified edge list (the cold
  /// recount side of the differential harness).
  graph::EdgeList edge_list() const;

  /// The `count` oldest live edges in arrival order — the sliding
  /// window's eviction candidates.
  std::vector<Edge> oldest_live(std::size_t count) const;

  // Mutation is driven by apply() below (count-then-apply).
  friend struct ApplyAccess;

 private:
  std::vector<std::vector<VertexId>> adj_;
  TriangleCount triangles_ = 0;
  EdgeIndex live_edges_ = 0;
  /// Arrival order; entries are stale once their sequence number no
  /// longer matches seq_ (edge deleted or re-inserted).
  std::vector<std::pair<std::uint64_t, Edge>> order_;
  std::unordered_map<std::uint64_t, std::uint64_t> seq_;
  std::uint64_t next_seq_ = 0;
  std::size_t order_scan_ = 0;  ///< first possibly-live order_ entry
};

/// Validates a batch against the state. Typed-rejection rules: ops must
/// be well-formed, self-loop free, in-range, each undirected edge at
/// most once per batch, inserts of absent edges, deletes of live edges.
/// Returns a human-readable reason (empty optional = valid).
std::optional<std::string> validate(const StreamState& state,
                                    const Batch& batch);

/// Kernel-phase knobs for the delta intersections.
struct DeltaConfig {
  kernels::KernelPolicy kernel = kernels::KernelPolicy::kAuto;
};

/// Everything one counting pass produced: the signed triangle counts,
/// the summed kernel tallies, and the shard-shipping traffic.
struct DeltaResult {
  TriangleCount destroyed = 0;  ///< triangles the deletions break
  TriangleCount created = 0;    ///< triangles the insertions close
  kernels::KernelCounters kernel;  ///< summed over ranks
  std::uint64_t shard_messages = 0;
  std::uint64_t shard_bytes = 0;
  std::vector<mpisim::ChaosCounters> chaos;  ///< per rank, when injected

  TriangleCount removed() const { return destroyed; }
  TriangleCount added() const { return created; }
};

/// Counts the batch's delta on the world's rank threads (the resident
/// service's world, or one armed with a fault plan). `world` must have a
/// perfect-square size. Pure: the state is not mutated. The batch must
/// have passed validate(). The pass counts in superstep 0, so a fault
/// plan that crashes a rank at a later superstep throws
/// std::invalid_argument.
DeltaResult count_delta(mpisim::PersistentWorld& world,
                        const StreamState& state, const Batch& batch,
                        const DeltaConfig& config = {});

/// Applies the batch and its counted delta to the state: deletes, then
/// inserts, then moves the total by added − removed.
void apply(StreamState& state, const Batch& batch, const DeltaResult& delta);

/// Builds the deletion batch a `graph.window {capacity}` implies: the
/// oldest live edges beyond `capacity`, in arrival order. Empty when the
/// state already fits.
Batch window_evictions(const StreamState& state, std::uint64_t capacity);

/// DOULION layered on the stream (Tsourakakis et al., PAPERS.md): each
/// edge is kept with probability `retention` by a deterministic
/// per-edge coin, the sparsified triangle count is maintained exactly
/// under the same batches (serially — the sparsified deltas are tiny),
/// and the estimate is sparsified / retention³.
class SampledStream {
 public:
  SampledStream() = default;
  /// Sparsifies the current live edge set of `base` and counts its
  /// triangles with graph::count_triangles_serial.
  SampledStream(const StreamState& base, double retention,
                std::uint64_t seed);

  bool enabled() const { return retention_ > 0.0; }
  double retention() const { return retention_; }
  std::uint64_t seed() const { return seed_; }
  TriangleCount sparsified_triangles() const { return triangles_; }
  std::uint64_t kept_edges() const { return kept_edges_; }
  /// Unbiased estimate of the exact live triangle count.
  double estimate() const;

  /// Maintains the sparsified count under a batch already validated
  /// against the exact state.
  void apply(const Batch& batch);

  /// The deterministic coin: true iff the edge survives sparsification.
  bool keeps(Edge edge) const;

 private:
  double retention_ = 0.0;
  std::uint64_t seed_ = 0;
  std::vector<std::vector<VertexId>> adj_;
  TriangleCount triangles_ = 0;
  std::uint64_t kept_edges_ = 0;
};

}  // namespace tricount::stream
