#include "tricount/core/summa2d.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "tricount/core/counter2d.hpp"
#include "tricount/core/dist_graph.hpp"
#include "tricount/core/preprocess.hpp"
#include "tricount/mpisim/collectives.hpp"
#include "tricount/mpisim/recovery.hpp"
#include "tricount/mpisim/runtime.hpp"
#include "tricount/obs/flight.hpp"

namespace tricount::core {

namespace {

constexpr int kTagSummaU = 201;
constexpr int kTagSummaL = 202;

struct PanelEntry {
  VertexId panel = 0;
  VertexId row = 0;
  VertexId col = 0;
};

struct SummaBlocks {
  std::vector<BlockCsr> upanels;  ///< panel z = col + t*qc at index t
  std::vector<BlockCsr> lpanels;  ///< panel z = row + t*qr at index t
  BlockCsr tasks;

  /// Calls f on every block this rank holds.
  template <typename F>
  void each(F&& f) const {
    for (const BlockCsr& b : upanels) f(b);
    for (const BlockCsr& b : lpanels) f(b);
    f(tasks);
  }
};

/// Scatters the panels through scatter_parts. Each received part builds
/// its blocks straight from the received buckets: a panel's block takes
/// the entries filed under its local index (panel / qc for U, panel / qr
/// for L), so no per-panel copy of the entries is made.
SummaBlocks scatter_summa(mpisim::Comm& comm, int qr, int qc, int K,
                          const RelabeledSlice& slice,
                          Enumeration enumeration) {
  const auto qrv = static_cast<VertexId>(qr);
  const auto qcv = static_cast<VertexId>(qc);
  const auto Kv = static_cast<VertexId>(K);
  auto rank_of = [qc](VertexId x, VertexId y) {
    return static_cast<int>(x) * qc + static_cast<int>(y);
  };
  const int x = comm.rank() / qc;
  const int y = comm.rank() % qc;
  const VertexId u_rows = cyclic_row_count(slice.num_vertices, qr, x);
  const VertexId l_rows = cyclic_row_count(slice.num_vertices, qc, y);

  SummaBlocks blocks;
  scatter_parts<PanelEntry>(
      comm,
      [&](auto&& place) {
        for (std::size_t k = 0; k < slice.adj.size(); ++k) {
          const VertexId w = slice.new_ids[k];
          for (const VertexId u : slice.adj[k]) {
            if (u > w) {
              const VertexId z = u % Kv;
              // U_{x,z} at rank (w%qr, z%qc).
              place(Part::kU, rank_of(w % qrv, z % qcv),
                    PanelEntry{z, w / qrv, u / Kv});
              // L_{z,y} at rank (z%qr, w%qc), stored row-major by i = w.
              place(Part::kL, rank_of(z % qrv, w % qcv),
                    PanelEntry{z, w / qcv, u / Kv});
            }
            // As in place_2d: from U for ⟨i,j,k⟩, from L for ⟨j,i,k⟩.
            if ((u > w) == (enumeration == Enumeration::kIJK)) {
              place(Part::kTasks, rank_of(w % qrv, u % qcv),
                    PanelEntry{0, w / qrv, u / qcv});
            }
          }
        }
      },
      [&](Part part, const std::vector<std::vector<PanelEntry>>& received) {
        auto block_of = [&](VertexId rows, auto&& keep) {
          return BlockCsr::build(rows, [&](auto&& emit) {
            for (const auto& bucket : received) {
              for (const PanelEntry& e : bucket) {
                if (keep(e)) emit(e.row, e.col);
              }
            }
          });
        };
        if (part == Part::kTasks) {
          blocks.tasks =
              block_of(u_rows, [](const PanelEntry&) { return true; });
          return;
        }
        const bool upper = part == Part::kU;
        const VertexId stride = upper ? qcv : qrv;
        std::vector<BlockCsr>& panels = upper ? blocks.upanels : blocks.lpanels;
        for (VertexId t = 0; t < Kv / stride; ++t) {
          panels.push_back(block_of(upper ? u_rows : l_rows,
                                    [&](const PanelEntry& e) {
                                      return e.panel / stride == t;
                                    }));
        }
      });
  return blocks;
}

/// Owner broadcasts a block (as its §5.2 blob) to the other members of
/// its grid row/column via a binomial group broadcast. Members other than
/// the owner decode it into `storage`.
const BlockCsr& panel_bcast(mpisim::Comm& comm, const BlockCsr* own,
                            int owner_index, std::span<const int> members,
                            BlockCsr& storage) {
  std::vector<std::byte> blob;
  if (own != nullptr) blob = own->to_blob();
  mpisim::bcast_group(comm, blob, members, owner_index);
  if (own != nullptr) return *own;
  storage = BlockCsr::from_blob(blob);
  return storage;
}

}  // namespace

StepCount summa_sweep(mpisim::Comm& comm, int qr, int qc, int K,
                      const PanelSchedule& schedule, const BlockCsr& tasks,
                      const Config& config, PhaseTracker& tracker) {
  const int x = comm.rank() / qc;
  const int y = comm.rank() % qc;

  std::vector<int> row_members;
  for (int c = 0; c < qc; ++c) row_members.push_back(x * qc + c);
  std::vector<int> col_members;
  for (int r = 0; r < qr; ++r) col_members.push_back(r * qc + y);

  kernels::IntersectScratch scratch;
  StepCount out;

  // Overlap mode replaces the binomial broadcast with a point-to-point
  // prefetch pipeline one panel ahead: step z+1's owners isend their
  // blobs (buffered, so the copy is immediate) and every other rank
  // posts irecvs before step z's intersection runs; the requests are
  // completed when the next step starts. Step 0's fetch is the pipeline
  // fill and cannot overlap anything.
  struct PanelFetch {
    mpisim::Request req;
    const BlockCsr* own = nullptr;
  };
  auto u_root = [&](int z) { return (z - schedule.u_shift + qc) % qc; };
  auto l_root = [&](int z) { return (z - schedule.l_shift + qr) % qr; };
  auto post = [&](const std::vector<int>& members, int root_index, int tag,
                  const BlockCsr& panel) {
    PanelFetch f;
    const int owner = members[static_cast<std::size_t>(root_index)];
    if (comm.rank() == owner) {
      f.own = &panel;
      const std::vector<std::byte> blob = f.own->to_blob();
      for (const int m : members) {
        if (m == comm.rank()) continue;
        (void)comm.isend_bytes(m, tag, std::span<const std::byte>(blob));
      }
    } else {
      f.req = comm.irecv(owner, tag);
    }
    return f;
  };
  auto u_panel = [&](int z) -> const BlockCsr& {
    return schedule.upanels[static_cast<std::size_t>(z / qc)];
  };
  auto l_panel = [&](int z) -> const BlockCsr& {
    return schedule.lpanels[static_cast<std::size_t>(z / qr)];
  };
  auto post_u = [&](int z) {
    return post(row_members, u_root(z), kTagSummaU, u_panel(z));
  };
  auto post_l = [&](int z) {
    return post(col_members, l_root(z), kTagSummaL, l_panel(z));
  };
  auto resolve = [](PanelFetch& f, BlockCsr& storage) -> const BlockCsr& {
    if (f.own != nullptr) return *f.own;
    storage = BlockCsr::from_blob(f.req.wait().payload);
    return storage;
  };

  const bool overlap = config.overlap;
  PanelFetch next_u;
  PanelFetch next_l;
  if (overlap) {
    next_u = post_u(0);
    next_l = post_l(0);
  }

  // Live gauges, mirroring cannon_count.
  obs::RankGauges* gauges = obs::FlightRecorder::caller_gauges();
  std::uint64_t panels_bytes = 0;
  for (const auto panels : {schedule.upanels, schedule.lpanels}) {
    for (const BlockCsr& b : panels) panels_bytes += b.heap_bytes();
  }
  auto publish_gauges = [&] {
    if (gauges != nullptr) {
      gauges->total_supersteps.store(static_cast<std::uint64_t>(K),
                                     std::memory_order_relaxed);
      gauges->triangles.store(static_cast<std::uint64_t>(out.triangles),
                              std::memory_order_relaxed);
      gauges->lookups.store(out.kernel.lookups, std::memory_order_relaxed);
      gauges->graph_bytes.store(panels_bytes, std::memory_order_relaxed);
      gauges->partition_bytes.store(tasks.heap_bytes(),
                                    std::memory_order_relaxed);
      gauges->scratch_bytes.store(scratch.hash_capacity() * sizeof(VertexId),
                                  std::memory_order_relaxed);
    }
  };

  BlockCsr u_storage;
  BlockCsr l_storage;
  for (int z = 0; z < K; ++z) {
    publish_gauges();
    PhaseTracker::Step superstep = tracker.superstep(overlap);
    const BlockCsr* uz = nullptr;
    const BlockCsr* lz = nullptr;
    if (overlap) {
      uz = &resolve(next_u, u_storage);
      lz = &resolve(next_l, l_storage);
      if (z + 1 < K) {
        next_u = post_u(z + 1);
        next_l = post_l(z + 1);
      }
    } else {
      const int ur = u_root(z);
      uz = &panel_bcast(comm, y == ur ? &u_panel(z) : nullptr, ur,
                        row_members, u_storage);
      const int lr = l_root(z);
      lz = &panel_bcast(comm, x == lr ? &l_panel(z) : nullptr, lr,
                        col_members, l_storage);
    }
    // Step z's intersection over the panels it received, which stay
    // held until step z+1 receives its own, so a crash replays from them
    // (mpisim/recovery.hpp). Sizing the table up front keeps the step
    // from resizing it mid-way.
    const StepCount step = mpisim::run_superstep(comm, z, [&] {
      StepCount result;
      scratch.reserve_for(
          std::max<std::size_t>(uz->max_row_degree(), std::size_t{16}));
      scratch.reset_probes();
      obs::ScopedSpan span("intersect", "tc");
      result.triangles =
          intersect_blocks(tasks, *uz, *lz, config, scratch, result.kernel);
      result.kernel.probes = scratch.probes();
      return result;
    });
    out.triangles += step.triangles;
    out.kernel += step.kernel;
    superstep.close(step.kernel.lookups);
  }
  tracker.end_sweep();
  if (gauges != nullptr) {
    gauges->triangles.store(static_cast<std::uint64_t>(out.triangles),
                            std::memory_order_relaxed);
    gauges->lookups.store(out.kernel.lookups, std::memory_order_relaxed);
  }
  return out;
}

RunResult count_triangles_summa(const graph::EdgeList& graph,
                                const SummaOptions& options) {
  const int qr = options.grid_rows;
  const int qc = options.grid_cols;
  if (qr <= 0 || qc <= 0) {
    throw std::invalid_argument("summa: grid dims must be positive");
  }
  const int p = qr * qc;
  const int K = std::lcm(qr, qc);

  RunResult result;
  result.algorithm = "summa";
  result.ranks = p;
  result.grid_q = qr == qc ? qr : 0;
  result.num_vertices = graph.num_vertices;
  result.model = options.model;
  result.per_rank.assign(static_cast<std::size_t>(p), RankStats{});
  result.chaos_enabled = options.chaos != nullptr;
  result.overlap_enabled = options.config.overlap;

  result.take(mpisim::run_world(p, [&](mpisim::Comm& comm) {
    LocalSlice input = [&] {
      obs::ScopedSpan span("slice", "pre");
      return block_slice_from_edges(graph, comm.rank(), p);
    }();
    RankStats& stats = result.per_rank[static_cast<std::size_t>(comm.rank())];
    PhaseTracker tracker(comm, stats);
    RelabeledSlice relabeled = redistribute_and_order(
        comm, std::move(input), options.config, tracker);
    PhaseTracker::Step scatter = tracker.pre("scatter_summa");
    const SummaBlocks blocks = scatter_summa(comm, qr, qc, K, relabeled,
                                             options.config.enumeration);
    relabeled = RelabeledSlice{};  // freed once its panels are scattered
    std::uint64_t entries = 0;
    blocks.each([&](const BlockCsr& b) { entries += b.num_entries(); });
    scatter.close(2 * entries);
    if (options.validate_blocks) {
      blocks.each([](const BlockCsr& b) { b.validate(); });
    }

    // Panel z lives at grid column z % qc (U) and grid row z % qr (L).
    PanelSchedule schedule;
    schedule.upanels = blocks.upanels;
    schedule.lpanels = blocks.lpanels;
    const StepCount sweep = summa_sweep(comm, qr, qc, K, schedule,
                                        blocks.tasks, options.config, tracker);
    stats.kernel = sweep.kernel;
    // The U panels hold each undirected edge once, so the edges of an
    // unsimplified list count as its simplification's. One allreduce
    // sums them beside the triangles.
    std::vector<std::uint64_t> totals{sweep.triangles, 0};
    for (const BlockCsr& b : blocks.upanels) totals[1] += b.num_entries();
    mpisim::allreduce(comm, totals, std::plus<std::uint64_t>());
    if (comm.rank() == 0) {
      result.triangles = totals[0];
      result.num_edges = totals[1];
    }
  }, world_options(options)));
  return result;
}

}  // namespace tricount::core
