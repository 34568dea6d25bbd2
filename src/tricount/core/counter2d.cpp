#include "tricount/core/counter2d.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "tricount/mpisim/collectives.hpp"
#include "tricount/mpisim/runtime.hpp"
#include "tricount/obs/msgtrace.hpp"
#include "tricount/obs/telemetry.hpp"
#include "tricount/obs/trace.hpp"

namespace tricount::core {

namespace {

// User-space tags for the shift traffic (well below kReservedTagBase).
constexpr int kTagUBlock = 101;
constexpr int kTagLBlock = 102;
constexpr int kTagUArrays = 103;  // non-blob mode sends arrays separately
constexpr int kTagLArrays = 104;

/// Ships a block to `dest` and receives this rank's next block from `src`.
/// Blob mode: one message round-trip per block (§5.2). Array mode: the
/// four arrays travel as separate messages and are reassembled — the
/// serialization overhead the blob optimization removes.
BlockCsr shift_block(mpisim::Comm& comm, BlockCsr block, int dest, int src,
                     int blob_tag, int array_tag, bool blob_comm) {
  if (blob_comm) {
    const std::vector<std::byte> blob = block.to_blob();
    mpisim::Message m = comm.sendrecv_bytes(
        dest, blob_tag, std::span<const std::byte>(blob), src, blob_tag);
    return BlockCsr::from_blob(m.payload);
  }
  const std::uint64_t rows = block.num_local_rows();
  comm.send_value<std::uint64_t>(dest, array_tag, rows);
  comm.send<std::uint64_t>(dest, array_tag, block.xadj());
  comm.send<VertexId>(dest, array_tag, block.adj());
  comm.send<VertexId>(dest, array_tag, block.nonempty());
  const auto in_rows = comm.recv_value<std::uint64_t>(src, array_tag);
  auto in_xadj = comm.recv<std::uint64_t>(src, array_tag);
  auto in_adj = comm.recv<VertexId>(src, array_tag);
  auto in_nonempty = comm.recv<VertexId>(src, array_tag);
  // Reassemble via the entry path to keep one construction code path.
  std::vector<LocalEntry> entries;
  entries.reserve(in_adj.size());
  for (VertexId r = 0; r + 1 < in_xadj.size(); ++r) {
    for (std::uint64_t at = in_xadj[r]; at < in_xadj[r + 1]; ++at) {
      entries.push_back(LocalEntry{r, in_adj[at]});
    }
  }
  (void)in_nonempty;
  return BlockCsr::from_entries(static_cast<VertexId>(in_rows),
                                std::move(entries));
}

/// The crediting tallies of cannon_count: every closed triangle goes to
/// its corners (`vertex` set) or to its edges (`edges` set). step(z) names
/// the column block z the current U/L pair closes through, so block-local
/// (row r, entry e, closer t) map back to degree-ordered ids
///   j = r·q + x,  i = e·q + y,  k = t·q + z.
struct Credits {
  VertexId q = 1;
  VertexId x = 0;
  VertexId y = 0;
  VertexId z = 0;
  std::vector<TriangleCount>* vertex = nullptr;
  std::unordered_map<std::uint64_t, TriangleCount>* edges = nullptr;

  void step(int column_block) { z = static_cast<VertexId>(column_block); }
  TriangleCount& edge(VertexId a, VertexId b) {
    return (*edges)[(static_cast<std::uint64_t>(std::min(a, b)) << 32) |
                    std::max(a, b)];
  }
  /// Closer t of task (r, e): credits k, or the edges j–k and i–k.
  void closer(VertexId r, VertexId e, VertexId t) {
    const VertexId k = t * q + z;
    if (vertex != nullptr) {
      ++(*vertex)[k];
    } else {
      ++edge(r * q + x, k);
      ++edge(e * q + y, k);
    }
  }
  /// Task (r, e) closed `hits` triangles, all of them through j, i and
  /// the edge j–i: one credit per task, not per triangle.
  void task(VertexId r, VertexId e, TriangleCount hits) {
    if (hits == 0) return;
    const VertexId j = r * q + x;
    const VertexId i = e * q + y;
    if (vertex != nullptr) {
      (*vertex)[j] += hits;
      (*vertex)[i] += hits;
    } else {
      edge(j, i) += hits;
    }
  }
};

template <bool kCredits>
TriangleCount intersect_tally(const BlockCsr& tasks, const BlockCsr& ublock,
                              const BlockCsr& lblock, const Config& config,
                              kernels::IntersectScratch& scratch,
                              KernelCounters& counters, Credits& tally) {
  TriangleCount found = 0;

  auto process_row = [&](VertexId r) {
    ++counters.rows_visited;
    const auto task_cols = tasks.row(r);
    if (task_cols.empty()) return;
    const auto urow = ublock.row(r);
    if (urow.empty()) return;  // no closing vertices in this column block

    scratch.begin_row(urow, config.modified_hashing);

    for (const VertexId e : task_cols) {
      if (e >= lblock.num_local_rows()) continue;
      const auto lrow = lblock.row(e);
      if (lrow.empty()) continue;
      ++counters.intersection_tasks;
      if constexpr (kCredits) {
        const TriangleCount hits = scratch.each_match(
            lrow, config.backward_early_exit, counters,
            [&](VertexId t) { tally.closer(r, e, t); });
        tally.task(r, e, hits);
        found += hits;
      } else {
        found += scratch.task(config.kernel, lrow,
                              config.backward_early_exit, counters);
      }
    }
  };

  if (config.doubly_sparse) {
    for (const VertexId r : tasks.nonempty()) process_row(r);
  } else {
    for (VertexId r = 0; r < tasks.num_local_rows(); ++r) process_row(r);
  }
  return found;
}

template <bool kCredits>
void cannon_sweep(mpisim::Cart2D& grid, Blocks blocks, const Config& config,
                  Credits& tally, CountOutput& out) {
  mpisim::Comm& comm = grid.comm();
  const int q = grid.q();

  kernels::IntersectScratch scratch;
  // Sized from the *current* U block, not just the initial one: a
  // shifted-in block can carry longer rows, and an undersized table
  // degrades into mid-superstep rehashes — re-checked after every shift
  // and on recovery restore (reserve_for never shrinks).
  auto reserve_scratch = [&] {
    scratch.reserve_for(std::max<std::size_t>(
        {blocks.ublock.max_row_degree(), std::size_t{16}}));
  };
  reserve_scratch();
  scratch.reset_probes();

  // Chaos schedule for this rank (docs/chaos.md): a scheduled fail-restart
  // forces superstep checkpointing so the crashed superstep can be
  // re-executed from the blocks as they were when it started.
  const int crash_step = chaos_crash_step(comm);
  const bool checkpointing = config.checkpoint || crash_step >= 0;

  /// Everything the fail-restart model loses: the three blocks plus the
  /// partial count, kernel tallies and credits accumulated before this
  /// superstep.
  struct Checkpoint {
    std::vector<std::byte> ublock;
    std::vector<std::byte> lblock;
    std::vector<std::byte> tasks;
    CountOutput out;
    std::uint64_t lookups_before = 0;
    /// The scratch's cumulative probe tally lives outside out.kernel until
    /// the loop ends; without this field a recovery keeps the discarded
    /// superstep's probes and out.kernel.probes over-reports.
    std::uint64_t probes = 0;
    /// Hash capacity in effect at the checkpoint: the replay must rerun
    /// under the same table geometry or its probe/direct-mode tallies
    /// diverge from the pass it discards.
    std::size_t hash_capacity = 0;
  };
  Checkpoint ckpt;

  // Live telemetry + flight recorder: publish superstep progress at every
  // loop entry. The flight "superstep" counter doubles as the crash
  // witness — on a chaos crash the dump's final superstep record is the
  // superstep the recovery path reports.
  obs::RankTelemetry* live = obs::Telemetry::caller_slot();
  auto publish_live = [&](int step) {
    if (live != nullptr) {
      live->phase.store("tc", std::memory_order_relaxed);
      live->superstep.store(step, std::memory_order_relaxed);
      live->total_supersteps.store(q, std::memory_order_relaxed);
      live->triangles.store(static_cast<std::uint64_t>(out.local_triangles),
                            std::memory_order_relaxed);
      live->lookups.store(out.kernel.lookups, std::memory_order_relaxed);
      live->graph_bytes.store(
          blocks.ublock.heap_bytes() + blocks.lblock.heap_bytes(),
          std::memory_order_relaxed);
      live->partition_bytes.store(blocks.tasks.heap_bytes(),
                                  std::memory_order_relaxed);
      live->scratch_bytes.store(scratch.hash_capacity() * sizeof(VertexId),
                                std::memory_order_relaxed);
    }
    if (obs::FlightRecorder* flight = obs::FlightRecorder::current()) {
      flight->counter("superstep", "tc", static_cast<double>(step));
    }
    if (obs::MsgTrace* mt = obs::MsgTrace::current()) {
      mt->note_superstep(step);
    }
  };

  PhaseTracker tracker(comm);
  std::uint64_t lookups_before = 0;
  for (int s = 0; s < q; ++s) {
    publish_live(s);
    if (checkpointing) {
      obs::ScopedSpan span("checkpoint", "chaos");
      ckpt.ublock = blocks.ublock.to_blob();
      ckpt.lblock = blocks.lblock.to_blob();
      ckpt.tasks = blocks.tasks.to_blob();
      ckpt.out = out;
      ckpt.lookups_before = lookups_before;
      ckpt.probes = scratch.probes();
      ckpt.hash_capacity = scratch.hash_capacity();
    }
    // Overlap mode posts the next shift before intersecting: buffered
    // isends copy the blobs up front, so computing on the blocks while
    // the shift is in flight is safe, and the irecvs complete after the
    // intersection. Always blob format — a four-message array shift has
    // no single completion event to hide behind the compute.
    const bool overlapped = config.overlap && s + 1 < q;
    mpisim::Request u_req;
    mpisim::Request l_req;
    if (overlapped) {
      obs::ScopedSpan span("shift", "tc");
      const std::vector<std::byte> ublob = blocks.ublock.to_blob();
      const std::vector<std::byte> lblob = blocks.lblock.to_blob();
      (void)comm.isend_bytes(grid.left(), kTagUBlock,
                             std::span<const std::byte>(ublob));
      (void)comm.isend_bytes(grid.up(), kTagLBlock,
                             std::span<const std::byte>(lblob));
      u_req = comm.irecv(grid.right(), kTagUBlock);
      l_req = comm.irecv(grid.down(), kTagLBlock);
    }
    tally.step((grid.row() + grid.col() + s) % q);
    {
      obs::ScopedSpan span("intersect", "tc");
      out.local_triangles +=
          intersect_tally<kCredits>(blocks.tasks, blocks.ublock, blocks.lblock, config,
                          scratch, out.kernel, tally);
    }
    if (s == crash_step) {
      // One-shot fail-restart: this rank loses the superstep's results,
      // restores the checkpoint, and re-executes the intersection. The
      // shifts have not happened yet, so peers are unaffected; the
      // recovery cost lands in this rank's compute sample (and the
      // modeled max-over-ranks superstep time).
      recover_crash(comm, s, [&] {
        blocks.ublock = BlockCsr::from_blob(ckpt.ublock);
        blocks.lblock = BlockCsr::from_blob(ckpt.lblock);
        blocks.tasks = BlockCsr::from_blob(ckpt.tasks);
        out = ckpt.out;
        lookups_before = ckpt.lookups_before;
        scratch.restore(ckpt.hash_capacity, ckpt.probes);
        out.local_triangles +=
            intersect_tally<kCredits>(blocks.tasks, blocks.ublock, blocks.lblock,
                            config, scratch, out.kernel, tally);
      });
    }
    if (s + 1 < q) {
      // U one column left, L one row up (paper §5.1). Buffered sends keep
      // the ring deadlock-free in both modes.
      obs::ScopedSpan span("shift", "tc");
      if (overlapped) {
        blocks.ublock = BlockCsr::from_blob(u_req.wait().payload);
        blocks.lblock = BlockCsr::from_blob(l_req.wait().payload);
      } else {
        blocks.ublock = shift_block(comm, std::move(blocks.ublock),
                                    grid.left(), grid.right(), kTagUBlock,
                                    kTagUArrays, config.blob_comm);
        blocks.lblock =
            shift_block(comm, std::move(blocks.lblock), grid.up(), grid.down(),
                        kTagLBlock, kTagLArrays, config.blob_comm);
      }
      reserve_scratch();
    }
    PhaseSample sample = tracker.cut();
    sample.overlapped = overlapped;
    apply_straggler(comm, sample);
    sample.ops = out.kernel.lookups - lookups_before;
    lookups_before = out.kernel.lookups;
    out.shifts.push_back(sample);
  }
  out.kernel.probes = scratch.probes();
  if (live != nullptr) {
    // Final readings: superstep == q renders as "q/q" (done) in the
    // streaming views.
    live->superstep.store(q, std::memory_order_relaxed);
    live->triangles.store(static_cast<std::uint64_t>(out.local_triangles),
                          std::memory_order_relaxed);
    live->lookups.store(out.kernel.lookups, std::memory_order_relaxed);
  }

  out.total_triangles = mpisim::allreduce_sum(comm, out.local_triangles);
}

}  // namespace

TriangleCount intersect_blocks(const BlockCsr& tasks, const BlockCsr& ublock,
                               const BlockCsr& lblock, const Config& config,
                               kernels::IntersectScratch& scratch,
                               KernelCounters& counters) {
  Credits none;
  return intersect_tally<false>(tasks, ublock, lblock, config, scratch,
                                counters, none);
}

CountOutput cannon_count(mpisim::Cart2D& grid, Blocks blocks,
                         const Config& config, Tally tally,
                         VertexId num_vertices) {
  CountOutput out;
  Credits credits;
  if (tally == Tally::kCount) {
    cannon_sweep<false>(grid, std::move(blocks), config, credits, out);
    return out;
  }
  credits.q = static_cast<VertexId>(grid.q());
  credits.x = static_cast<VertexId>(grid.row());
  credits.y = static_cast<VertexId>(grid.col());
  if (tally == Tally::kPerVertex) {
    out.vertex_credits.assign(num_vertices, 0);
    credits.vertex = &out.vertex_credits;
  } else {
    credits.edges = &out.edge_credits;
  }
  cannon_sweep<true>(grid, std::move(blocks), config, credits, out);
  return out;
}

}  // namespace tricount::core
