#include "tricount/stream/stream.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "tricount/graph/serial_count.hpp"
#include "tricount/kernels/intersect.hpp"
#include "tricount/mpisim/cart2d.hpp"
#include "tricount/mpisim/collectives.hpp"
#include "tricount/mpisim/recovery.hpp"
#include "tricount/util/blob.hpp"
#include "tricount/util/rng.hpp"

namespace tricount::stream {

namespace {

/// User-space tag for the per-cell shard blobs (below kReservedTagBase).
constexpr int kTagShard = 171;

std::uint64_t edge_key(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// The batch's deleted-edge set: membership defines H = G \ D.
struct DeletedSet {
  std::unordered_set<std::uint64_t> keys;
  bool contains(VertexId u, VertexId v) const {
    return keys.count(edge_key(u, v)) != 0;
  }
};

bool sorted_contains(std::span<const VertexId> row, VertexId v) {
  return std::binary_search(row.begin(), row.end(), v);
}

void insert_sorted(std::vector<VertexId>& row, VertexId v) {
  row.insert(std::lower_bound(row.begin(), row.end(), v), v);
}

void erase_sorted(std::vector<VertexId>& row, VertexId v) {
  const auto it = std::lower_bound(row.begin(), row.end(), v);
  if (it != row.end() && *it == v) row.erase(it);
}

/// The CSR's sorted neighbour rows as growable vectors.
std::vector<std::vector<VertexId>> rows_of(const graph::Csr& csr) {
  std::vector<std::vector<VertexId>> rows;
  rows.reserve(csr.num_vertices());
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    const auto row = csr.neighbors(v);
    rows.emplace_back(row.begin(), row.end());
  }
  return rows;
}

/// N_y(vert) under H: the neighbors of `vert` in grid column y with the
/// batch's deleted edges filtered out.
void extract_shard(const StreamState& state, const DeletedSet& deleted,
                   VertexId vert, int y, int q, std::vector<VertexId>& out) {
  out.clear();
  for (const VertexId w : state.neighbors(vert)) {
    if (static_cast<int>(w % static_cast<VertexId>(q)) == y &&
        !deleted.contains(vert, w)) {
      out.push_back(w);
    }
  }
}

/// Sorted-merge corner enumeration; the kernel count must equal the
/// number of corners this walk finds (cross-checked by the caller).
void merge_corners(std::span<const VertexId> a, std::span<const VertexId> b,
                   std::vector<VertexId>& corners) {
  corners.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      corners.push_back(a[i]);
      ++i;
      ++j;
    }
  }
}

}  // namespace

std::optional<DeltaOp> parse_op(std::string_view text) {
  std::size_t at = 0;
  while (at < text.size() &&
         std::isspace(static_cast<unsigned char>(text[at]))) {
    ++at;
  }
  if (at >= text.size() || (text[at] != '+' && text[at] != '-')) {
    return std::nullopt;
  }
  DeltaOp op;
  op.insert = text[at] == '+';
  ++at;
  const auto parse_id = [&](VertexId& out) {
    while (at < text.size() &&
           std::isspace(static_cast<unsigned char>(text[at]))) {
      ++at;
    }
    const char* begin = text.data() + at;
    const char* end = text.data() + text.size();
    std::uint32_t value = 0;
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc() || ptr == begin) return false;
    at += static_cast<std::size_t>(ptr - begin);
    out = value;
    return true;
  };
  VertexId u = 0;
  VertexId v = 0;
  if (!parse_id(u) || !parse_id(v)) return std::nullopt;
  while (at < text.size() &&
         std::isspace(static_cast<unsigned char>(text[at]))) {
    ++at;
  }
  if (at != text.size()) return std::nullopt;
  op.edge = Edge{std::min(u, v), std::max(u, v)};
  return op;
}

StreamState StreamState::from_graph(const graph::EdgeList& simplified) {
  const graph::Csr csr = graph::Csr::from_edges(simplified);
  StreamState state;
  state.adj_ = rows_of(csr);
  for (const Edge& e : simplified.edges) {
    state.seq_.emplace(edge_key(e.u, e.v), state.next_seq_);
    state.order_.emplace_back(state.next_seq_, e);
    ++state.next_seq_;
  }
  state.live_edges_ = simplified.num_edges();
  state.triangles_ = graph::count_triangles_serial(csr);
  return state;
}

bool StreamState::has_edge(VertexId u, VertexId v) const {
  if (u >= num_vertices() || v >= num_vertices() || u == v) return false;
  return sorted_contains(adj_[u], v);
}

std::span<const VertexId> StreamState::neighbors(VertexId u) const {
  return adj_[u];
}

graph::EdgeList StreamState::edge_list() const {
  graph::EdgeList out;
  out.num_vertices = num_vertices();
  out.edges.reserve(static_cast<std::size_t>(live_edges_));
  for (VertexId u = 0; u < num_vertices(); ++u) {
    for (const VertexId v : adj_[u]) {
      if (u < v) out.edges.push_back(Edge{u, v});
    }
  }
  return out;
}

std::vector<Edge> StreamState::oldest_live(std::size_t count) const {
  std::vector<Edge> out;
  for (std::size_t at = order_scan_; at < order_.size() && out.size() < count;
       ++at) {
    const auto& [seq, edge] = order_[at];
    const auto it = seq_.find(edge_key(edge.u, edge.v));
    if (it != seq_.end() && it->second == seq) out.push_back(edge);
  }
  return out;
}

std::optional<std::string> validate(const StreamState& state,
                                    const Batch& batch) {
  if (batch.ops.empty()) return "batch has no operations";
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t i = 0; i < batch.ops.size(); ++i) {
    const DeltaOp& op = batch.ops[i];
    const auto where = "op " + std::to_string(i) + " (" +
                       (op.insert ? "+" : "-") + std::to_string(op.edge.u) +
                       " " + std::to_string(op.edge.v) + ")";
    if (op.edge.u == op.edge.v) return where + ": self-loop";
    if (op.edge.u >= state.num_vertices() ||
        op.edge.v >= state.num_vertices()) {
      return where + ": vertex out of range [0, " +
             std::to_string(state.num_vertices()) + ")";
    }
    if (!seen.insert(edge_key(op.edge.u, op.edge.v)).second) {
      return where + ": duplicate edge in batch";
    }
    const bool live = state.has_edge(op.edge.u, op.edge.v);
    if (op.insert && live) return where + ": edge already present";
    if (!op.insert && !live) return where + ": edge not present";
  }
  return std::nullopt;
}

namespace {

/// What the delta pass's counting superstep finds on one rank.
struct DeltaTally {
  TriangleCount destroyed = 0;
  TriangleCount created = 0;
  kernels::KernelCounters kernel;
};

/// One rank's contribution to the delta, written to a per-rank slot.
struct RankOut : DeltaTally {
  std::uint64_t shard_messages = 0;
  std::uint64_t shard_bytes = 0;
  std::uint64_t agreed_removed = 0;  ///< allreduce handshake
  std::uint64_t agreed_added = 0;
};

/// The SPMD delta pass. Term 1 is sharded by grid cell: for delta edge
/// (u, v) and column y, rank (u%q, y) executes the intersection after
/// rank (v%q, y) ships its N_y(v) shard (one blob per rank pair). The
/// batch-internal pair/triple terms run on rank 0. Counting (superstep 0)
/// is pure over the state and the shards already received, so a
/// scheduled chaos crash replays it from them (mpisim/recovery.hpp).
void delta_rank(mpisim::Comm& comm, const StreamState& state,
                const Batch& batch, const DeletedSet& deleted,
                const DeltaConfig& config, std::vector<RankOut>& outs) {
  mpisim::Cart2D grid(comm);
  const int q = grid.q();
  const int rank = comm.rank();
  RankOut& out = outs[static_cast<std::size_t>(rank)];
  out = RankOut{};

  // --- shard exchange ----------------------------------------------------
  // The plan is a pure function of (batch, q), so every rank derives its
  // send and receive sides without coordination. Items are ordered by
  // (op index, column); both sides iterate identically.
  struct ShardItem {
    std::uint32_t op = 0;
    std::uint32_t column = 0;
  };
  std::vector<std::vector<ShardItem>> to_send(
      static_cast<std::size_t>(comm.size()));
  std::vector<std::size_t> expect_from(static_cast<std::size_t>(comm.size()),
                                       0);
  for (std::size_t i = 0; i < batch.ops.size(); ++i) {
    const Edge e = batch.ops[i].edge;
    for (int y = 0; y < q; ++y) {
      const int executor =
          grid.rank_of(static_cast<int>(e.u % static_cast<VertexId>(q)), y);
      const int owner_v =
          grid.rank_of(static_cast<int>(e.v % static_cast<VertexId>(q)), y);
      if (owner_v == executor) continue;
      if (owner_v == rank) {
        to_send[static_cast<std::size_t>(executor)].push_back(
            ShardItem{static_cast<std::uint32_t>(i),
                      static_cast<std::uint32_t>(y)});
      }
      if (executor == rank) ++expect_from[static_cast<std::size_t>(owner_v)];
    }
  }

  std::vector<VertexId> shard;
  for (int dest = 0; dest < comm.size(); ++dest) {
    const auto& items = to_send[static_cast<std::size_t>(dest)];
    if (items.empty()) continue;
    util::BlobWriter writer;
    writer.add_scalar<std::uint64_t>(items.size());
    for (const ShardItem& item : items) {
      extract_shard(state, deleted, batch.ops[item.op].edge.v,
                    static_cast<int>(item.column), q, shard);
      writer.add_scalar<std::uint64_t>(
          (static_cast<std::uint64_t>(item.op) << 32) | item.column);
      writer.add_section<VertexId>(shard);
    }
    const std::vector<std::byte> blob = writer.take();
    out.shard_bytes += blob.size();
    ++out.shard_messages;
    comm.send_bytes(dest, kTagShard, std::span<const std::byte>(blob));
  }

  // Received shards, keyed (op << 32 | column). Buffered before compute
  // so a crash replays from them without re-communication.
  std::unordered_map<std::uint64_t, std::vector<VertexId>> received;
  for (int src = 0; src < comm.size(); ++src) {
    std::size_t expected = expect_from[static_cast<std::size_t>(src)];
    if (expected == 0) continue;
    const mpisim::Message m = comm.recv_message(src, kTagShard);
    util::BlobReader reader(m.payload);
    const std::uint64_t items = reader.next_scalar<std::uint64_t>();
    if (items != expected) {
      throw std::runtime_error("stream: shard blob item count mismatch");
    }
    for (std::uint64_t k = 0; k < items; ++k) {
      const std::uint64_t key = reader.next_scalar<std::uint64_t>();
      const auto section = reader.next_section<VertexId>();
      received.emplace(key,
                       std::vector<VertexId>(section.begin(), section.end()));
    }
  }

  // --- counting (pure; restartable under a chaos crash) ------------------
  kernels::IntersectScratch scratch;
  std::size_t max_row = 16;
  for (const DeltaOp& op : batch.ops) {
    max_row = std::max<std::size_t>(
        {max_row, state.neighbors(op.edge.u).size(),
         state.neighbors(op.edge.v).size()});
  }
  scratch.reserve_for(max_row);

  std::vector<VertexId> u_shard;
  std::vector<VertexId> corners;
  const auto compute = [&] {
    DeltaTally step;
    scratch.reset_probes();
    for (std::size_t i = 0; i < batch.ops.size(); ++i) {
      const DeltaOp& op = batch.ops[i];
      const Edge e = op.edge;
      if (static_cast<int>(e.u % static_cast<VertexId>(q)) != grid.row()) {
        continue;
      }
      const int y = grid.col();
      extract_shard(state, deleted, e.u, y, q, u_shard);
      if (u_shard.empty()) continue;
      const int owner_v =
          grid.rank_of(static_cast<int>(e.v % static_cast<VertexId>(q)), y);
      std::span<const VertexId> v_shard;
      if (owner_v == rank) {
        extract_shard(state, deleted, e.v, y, q, shard);
        v_shard = shard;
      } else {
        v_shard = received.at((static_cast<std::uint64_t>(i) << 32) |
                              static_cast<std::uint64_t>(y));
      }
      if (v_shard.empty()) continue;

      ++step.kernel.rows_visited;
      ++step.kernel.intersection_tasks;
      scratch.begin_row(u_shard, /*allow_direct=*/true);
      const TriangleCount counted = scratch.task(
          config.kernel, v_shard, /*backward_early_exit=*/false, step.kernel);
      merge_corners(u_shard, v_shard, corners);
      if (counted != corners.size()) {
        throw std::runtime_error(
            "stream: kernel count disagrees with corner enumeration");
      }
      (op.insert ? step.created : step.destroyed) += corners.size();
    }
    step.kernel.probes = scratch.probes();

    // Batch-internal terms (rank 0): pairs sharing a vertex closed in H,
    // and triangles wholly inside the batch (recorded once, at the pair
    // whose shared vertex is the smallest corner).
    if (rank != 0) return step;
    std::unordered_set<std::uint64_t> inserted_keys;
    std::unordered_set<std::uint64_t> deleted_keys;
    for (const DeltaOp& op : batch.ops) {
      (op.insert ? inserted_keys : deleted_keys)
          .insert(edge_key(op.edge.u, op.edge.v));
    }
    for (std::size_t i = 0; i < batch.ops.size(); ++i) {
      for (std::size_t j = i + 1; j < batch.ops.size(); ++j) {
        const DeltaOp& a = batch.ops[i];
        const DeltaOp& b = batch.ops[j];
        if (a.insert != b.insert) continue;
        VertexId shared = graph::kInvalidVertex;
        VertexId p = 0;
        VertexId r = 0;
        if (a.edge.u == b.edge.u) {
          shared = a.edge.u; p = a.edge.v; r = b.edge.v;
        } else if (a.edge.u == b.edge.v) {
          shared = a.edge.u; p = a.edge.v; r = b.edge.u;
        } else if (a.edge.v == b.edge.u) {
          shared = a.edge.v; p = a.edge.u; r = b.edge.v;
        } else if (a.edge.v == b.edge.v) {
          shared = a.edge.v; p = a.edge.u; r = b.edge.u;
        } else {
          continue;
        }
        const std::uint64_t closing = edge_key(p, r);
        const auto& same_sign = a.insert ? inserted_keys : deleted_keys;
        auto& sink = a.insert ? step.created : step.destroyed;
        if (same_sign.count(closing) != 0) {
          // All three edges in the batch: record at the smallest corner.
          if (shared < p && shared < r) ++sink;
        } else if (state.has_edge(p, r) && !deleted.contains(p, r)) {
          ++sink;
        }
      }
    }
    return step;
  };

  static_cast<DeltaTally&>(out) = mpisim::run_superstep(comm, 0, compute);

  // Agreement handshake: every rank must observe the same signed totals.
  out.agreed_removed =
      mpisim::allreduce_sum(comm, static_cast<std::uint64_t>(out.destroyed));
  out.agreed_added =
      mpisim::allreduce_sum(comm, static_cast<std::uint64_t>(out.created));
}

DeltaResult collect(std::vector<RankOut>& outs,
                    std::vector<mpisim::ChaosCounters> chaos) {
  DeltaResult result;
  for (const RankOut& out : outs) {
    result.destroyed += out.destroyed;
    result.created += out.created;
    result.kernel += out.kernel;
    result.shard_messages += out.shard_messages;
    result.shard_bytes += out.shard_bytes;
  }
  for (const RankOut& out : outs) {
    if (out.agreed_removed != result.destroyed ||
        out.agreed_added != result.created) {
      throw std::runtime_error("stream: ranks disagree on the delta totals");
    }
  }
  result.chaos = std::move(chaos);
  return result;
}

}  // namespace

DeltaResult count_delta(mpisim::PersistentWorld& world,
                        const StreamState& state, const Batch& batch,
                        const DeltaConfig& config) {
  const mpisim::FaultInjector* injector = world.fault_injector();
  for (int rank = 0; injector != nullptr && rank < world.size(); ++rank) {
    if (injector->crash_superstep(rank) > 0) {
      throw std::invalid_argument(
          "stream: a chaos crash must be scheduled at superstep 0, the "
          "delta pass's only counting superstep");
    }
  }
  DeletedSet deleted;
  for (const DeltaOp& op : batch.ops) {
    if (!op.insert) deleted.keys.insert(edge_key(op.edge.u, op.edge.v));
  }
  std::vector<RankOut> outs(static_cast<std::size_t>(world.size()));
  mpisim::WorldReport report = world.run_job([&](mpisim::Comm& comm) {
    delta_rank(comm, state, batch, deleted, config, outs);
  });
  return collect(outs, std::move(report.chaos));
}

/// Friend shim: apply() is the one sanctioned mutation path.
struct ApplyAccess {
  static void run(StreamState& state, const Batch& batch,
                  const DeltaResult& delta) {
    for (const DeltaOp& op : batch.ops) {
      if (op.insert) continue;
      erase_sorted(state.adj_[op.edge.u], op.edge.v);
      erase_sorted(state.adj_[op.edge.v], op.edge.u);
      state.seq_.erase(edge_key(op.edge.u, op.edge.v));
      --state.live_edges_;
    }
    for (const DeltaOp& op : batch.ops) {
      if (!op.insert) continue;
      insert_sorted(state.adj_[op.edge.u], op.edge.v);
      insert_sorted(state.adj_[op.edge.v], op.edge.u);
      state.seq_[edge_key(op.edge.u, op.edge.v)] = state.next_seq_;
      state.order_.emplace_back(state.next_seq_, op.edge);
      ++state.next_seq_;
      ++state.live_edges_;
    }
    state.triangles_ += delta.added();
    state.triangles_ -= delta.removed();
    // Compact the arrival order's dead prefix so window scans stay cheap.
    while (state.order_scan_ < state.order_.size()) {
      const auto& [seq, edge] = state.order_[state.order_scan_];
      const auto it = state.seq_.find(edge_key(edge.u, edge.v));
      if (it != state.seq_.end() && it->second == seq) break;
      ++state.order_scan_;
    }
  }
};

void apply(StreamState& state, const Batch& batch, const DeltaResult& delta) {
  ApplyAccess::run(state, batch, delta);
}

Batch window_evictions(const StreamState& state, std::uint64_t capacity) {
  Batch batch;
  if (state.num_edges() <= capacity) return batch;
  const std::size_t evict =
      static_cast<std::size_t>(state.num_edges() - capacity);
  for (const Edge& e : state.oldest_live(evict)) {
    batch.ops.push_back(DeltaOp{/*insert=*/false, e});
  }
  return batch;
}

SampledStream::SampledStream(const StreamState& base, double retention,
                             std::uint64_t seed)
    : retention_(retention), seed_(seed) {
  graph::EdgeList kept = base.edge_list();
  std::erase_if(kept.edges, [this](const Edge& e) { return !keeps(e); });
  kept_edges_ = kept.edges.size();
  const graph::Csr csr = graph::Csr::from_edges(kept);
  adj_ = rows_of(csr);
  triangles_ = graph::count_triangles_serial(csr);
}

bool SampledStream::keeps(Edge edge) const {
  util::SplitMix64 coin(
      util::stream_seed(seed_, edge_key(edge.u, edge.v)));
  const double draw = static_cast<double>(coin() >> 11) * 0x1.0p-53;
  return draw < retention_;
}

double SampledStream::estimate() const {
  if (retention_ <= 0.0) return 0.0;
  return static_cast<double>(triangles_) /
         (retention_ * retention_ * retention_);
}

void SampledStream::apply(const Batch& batch) {
  if (!enabled()) return;
  // Sequential single-edge maintenance on the sparsified graph:
  // deletions first, each edge's wedge closure counted against the
  // sparsified adjacency as it stands.
  std::vector<VertexId> corners;
  const auto closure = [&](Edge e) {
    merge_corners(adj_[e.u], adj_[e.v], corners);
    return static_cast<TriangleCount>(corners.size());
  };
  for (const DeltaOp& op : batch.ops) {
    if (op.insert || !keeps(op.edge)) continue;
    triangles_ -= closure(op.edge);
    erase_sorted(adj_[op.edge.u], op.edge.v);
    erase_sorted(adj_[op.edge.v], op.edge.u);
    --kept_edges_;
  }
  for (const DeltaOp& op : batch.ops) {
    if (!op.insert || !keeps(op.edge)) continue;
    triangles_ += closure(op.edge);
    insert_sorted(adj_[op.edge.u], op.edge.v);
    insert_sorted(adj_[op.edge.v], op.edge.u);
    ++kept_edges_;
  }
}

}  // namespace tricount::stream
