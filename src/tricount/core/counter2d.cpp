#include "tricount/core/counter2d.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "tricount/mpisim/collectives.hpp"
#include "tricount/mpisim/recovery.hpp"
#include "tricount/mpisim/runtime.hpp"
#include "tricount/obs/flight.hpp"
#include "tricount/obs/msgtrace.hpp"
#include "tricount/obs/telemetry.hpp"

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
  return BlockCsr::from_entries(static_cast<VertexId>(in_rows), entries);
}

/// What one Cannon superstep adds to a rank's totals. It is a pure
/// function of the three blocks the rank holds during the superstep, so a
/// crash replays it from them (mpisim/recovery.hpp).
struct StepTally : StepCount {
  /// kPerVertex, by block-local index: corners j = r·q + x, i = e·q + y and
  /// k = t·q + z. Each corner is one residue class mod q, so a superstep
  /// holds 3·n/q entries rather than n.
  std::vector<TriangleCount> rows;
  std::vector<TriangleCount> cols;
  std::vector<TriangleCount> closers;
  /// kEdgeSupport: task edges by entry of the task block, which never
  /// shifts, and closing edges by key. A closing edge j–k or i–k has k in
  /// the superstep's column block, so no two supersteps share one.
  std::vector<TriangleCount> task_edges;
  std::unordered_map<std::uint64_t, TriangleCount> edges;
};

/// The crediting tallies of cannon_count: every closed triangle goes to
/// its corners (`rows` set) or to its edges (`edges` set). `z` names
/// the column block the current U/L pair closes through, so block-local
/// (row r, entry e, closer t) map back to degree-ordered ids
///   j = r·q + x,  i = e·q + y,  k = t·q + z.
struct Credits {
  VertexId q = 1;
  VertexId x = 0;
  VertexId y = 0;
  VertexId z = 0;
  std::vector<TriangleCount>* rows = nullptr;
  std::vector<TriangleCount>* cols = nullptr;
  std::vector<TriangleCount>* closers = nullptr;
  std::vector<TriangleCount>* task_edges = nullptr;
  std::unordered_map<std::uint64_t, TriangleCount>* edges = nullptr;

  TriangleCount& edge(VertexId a, VertexId b) {
    return (*edges)[(static_cast<std::uint64_t>(std::min(a, b)) << 32) |
                    std::max(a, b)];
  }
  /// Closer t of task (r, e): credits k, or the edges j–k and i–k.
  void closer(VertexId r, VertexId e, VertexId t) {
    if (closers != nullptr) {
      ++(*closers)[t];
    } else {
      const VertexId k = t * q + z;
      ++edge(r * q + x, k);
      ++edge(e * q + y, k);
    }
  }
  /// Task (r, e), entry `at` of the task block, closed `hits` triangles,
  /// all of them through j, i and the edge j–i: one credit per task, not
  /// per triangle.
  void task(VertexId r, VertexId e, std::size_t at, TriangleCount hits) {
    if (hits == 0) return;
    if (rows != nullptr) {
      (*rows)[r] += hits;
      (*cols)[e] += hits;
    } else {
      (*task_edges)[at] += hits;
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

    // Calls run(e, lrow) for every task (r, e) whose L row is non-empty.
    auto each_task = [&](auto&& run) {
      for (const VertexId& e : task_cols) {
        if (e >= lblock.num_local_rows()) continue;
        const auto lrow = lblock.row(e);
        if (!lrow.empty()) run(e, lrow);
      }
    };
    if constexpr (kCredits) {
      scratch.begin_row(urow, config.modified_hashing);
      each_task([&](const VertexId& e, std::span<const VertexId> lrow) {
        ++counters.intersection_tasks;
        const TriangleCount hits = scratch.each_match(
            lrow, config.backward_early_exit, counters,
            [&](VertexId t) { tally.closer(r, e, t); });
        tally.task(r, e, static_cast<std::size_t>(&e - tasks.adj().data()),
                   hits);
        found += hits;
      });
    } else {
      found += scratch.intersect_row(
          config.kernel, urow, config.modified_hashing,
          config.backward_early_exit, counters, [&](auto&& emit) {
            each_task([&](VertexId, std::span<const VertexId> lrow) {
              emit(lrow);
            });
          });
    }
  };

  if (config.doubly_sparse) {
    for (const VertexId r : tasks.nonempty()) process_row(r);
  } else {
    for (VertexId r = 0; r < tasks.num_local_rows(); ++r) process_row(r);
  }
  return found;
}

/// Adds the credits of residue class c, by block-local index, into
/// `total`, by degree-ordered id.
void add_class(std::vector<TriangleCount>& total,
               const std::vector<TriangleCount>& step, int q, int c) {
  for (std::size_t at = 0; at < step.size(); ++at) {
    total[at * static_cast<std::size_t>(q) + static_cast<std::size_t>(c)] +=
        step[at];
  }
}

template <bool kCredits>
void cannon_sweep(mpisim::Cart2D& grid, Blocks blocks, const Config& config,
                  Tally tally, VertexId num_vertices, CountOutput& out) {
  mpisim::Comm& comm = grid.comm();
  const int q = grid.q();

  kernels::IntersectScratch scratch;
  // Sized from the *current* U block, not just the initial one: a
  // shifted-in block can carry longer rows, and an undersized table
  // degrades into mid-superstep rehashes — re-checked after every shift
  // (reserve_for never shrinks). A superstep therefore never resizes the
  // table, which keeps its compute a pure function of the blocks.
  auto reserve_scratch = [&] {
    scratch.reserve_for(std::max<std::size_t>(
        {blocks.ublock.max_row_degree(), std::size_t{16}}));
  };
  reserve_scratch();

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

  // The intersection of superstep s over the blocks the rank holds. The
  // shift that follows replaces them, so a crash replays before it.
  const auto compute = [&](int s) {
    StepTally step;
    Credits credits{static_cast<VertexId>(q),
                    static_cast<VertexId>(grid.row()),
                    static_cast<VertexId>(grid.col()),
                    static_cast<VertexId>((grid.row() + grid.col() + s) % q)};
    if constexpr (kCredits) {
      if (tally == Tally::kPerVertex) {
        step.rows.assign(cyclic_row_count(num_vertices, q, grid.row()), 0);
        step.cols.assign(cyclic_row_count(num_vertices, q, grid.col()), 0);
        step.closers.assign(
            cyclic_row_count(num_vertices, q, static_cast<int>(credits.z)), 0);
        credits.rows = &step.rows;
        credits.cols = &step.cols;
        credits.closers = &step.closers;
      } else {
        step.task_edges.assign(blocks.tasks.adj().size(), 0);
        credits.task_edges = &step.task_edges;
        credits.edges = &step.edges;
      }
    }
    scratch.reset_probes();
    obs::ScopedSpan span("intersect", "tc");
    step.triangles = intersect_tally<kCredits>(
        blocks.tasks, blocks.ublock, blocks.lblock, config, scratch,
        step.kernel, credits);
    step.kernel.probes = scratch.probes();
    return step;
  };

  std::vector<TriangleCount> task_edges;  // kEdgeSupport, summed over steps
  if (tally == Tally::kPerVertex) out.vertex_credits.assign(num_vertices, 0);
  if (tally == Tally::kEdgeSupport) {
    task_edges.assign(blocks.tasks.adj().size(), 0);
  }
  PhaseTracker tracker(comm);
  for (int s = 0; s < q; ++s) {
    publish_live(s);
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
    StepTally step =
        mpisim::run_superstep(comm, s, [&] { return compute(s); });
    out.local_triangles += step.triangles;
    out.kernel += step.kernel;
    if constexpr (kCredits) {
      add_class(out.vertex_credits, step.rows, q, grid.row());
      add_class(out.vertex_credits, step.cols, q, grid.col());
      add_class(out.vertex_credits, step.closers, q,
                (grid.row() + grid.col() + s) % q);
      for (std::size_t at = 0; at < step.task_edges.size(); ++at) {
        task_edges[at] += step.task_edges[at];
      }
      if (!step.edges.empty()) {
        out.edge_credits.push_back(std::move(step.edges));
      }
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
    sample.ops = step.kernel.lookups;
    out.shifts.push_back(sample);
  }
  if (!task_edges.empty()) {
    // Task entry `at` in row r is the edge j–i, j = r·q + x, i = e·q + y.
    std::unordered_map<std::uint64_t, TriangleCount> by_key;
    Credits keys{static_cast<VertexId>(q), static_cast<VertexId>(grid.row()),
                 static_cast<VertexId>(grid.col()), 0};
    keys.edges = &by_key;
    const BlockCsr& tasks = blocks.tasks;
    for (VertexId r = 0; r < tasks.num_local_rows(); ++r) {
      const std::uint64_t end = tasks.xadj()[r + 1];
      for (std::uint64_t at = tasks.xadj()[r]; at < end; ++at) {
        if (task_edges[at] == 0) continue;
        keys.edge(r * keys.q + keys.x, tasks.adj()[at] * keys.q + keys.y) +=
            task_edges[at];
      }
    }
    out.edge_credits.push_back(std::move(by_key));
  }
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
  if (tally == Tally::kCount) {
    cannon_sweep<false>(grid, std::move(blocks), config, tally, num_vertices,
                        out);
  } else {
    cannon_sweep<true>(grid, std::move(blocks), config, tally, num_vertices,
                       out);
  }
  return out;
}

}  // namespace tricount::core
