#include "tricount/core/summa2d.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "tricount/core/counter2d.hpp"
#include "tricount/core/dist_graph.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/core/preprocess.hpp"
#include "tricount/mpisim/collectives.hpp"
#include "tricount/mpisim/recovery.hpp"
#include "tricount/mpisim/runtime.hpp"
#include "tricount/obs/flight.hpp"
#include "tricount/obs/msgtrace.hpp"
#include "tricount/obs/telemetry.hpp"

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
};

SummaBlocks scatter_summa(mpisim::Comm& comm, int qr, int qc, int K,
                          const RelabeledSlice& slice,
                          Enumeration enumeration) {
  const auto qrv = static_cast<VertexId>(qr);
  const auto qcv = static_cast<VertexId>(qc);
  const auto Kv = static_cast<VertexId>(K);
  const std::size_t p = static_cast<std::size_t>(comm.size());
  auto rank_of = [qc](int x, int y) { return x * qc + y; };

  std::vector<std::vector<PanelEntry>> u_out(p);
  std::vector<std::vector<PanelEntry>> l_out(p);
  std::vector<std::vector<PanelEntry>> t_out(p);

  for (std::size_t k = 0; k < slice.adj.size(); ++k) {
    const VertexId w = slice.new_ids[k];
    for (const VertexId u : slice.adj[k]) {
      if (u > w) {
        const VertexId z = u % Kv;
        // U_{x,z} at rank (w%qr, z%qc).
        const int u_dest = rank_of(static_cast<int>(w % qrv),
                                   static_cast<int>(z % qcv));
        u_out[static_cast<std::size_t>(u_dest)].push_back(
            PanelEntry{z, w / qrv, u / Kv});
        // L_{z,y} at rank (z%qr, w%qc), stored row-major by i = w.
        const int l_dest = rank_of(static_cast<int>(z % qrv),
                                   static_cast<int>(w % qcv));
        l_out[static_cast<std::size_t>(l_dest)].push_back(
            PanelEntry{z, w / qcv, u / Kv});
        if (enumeration == Enumeration::kIJK) {
          const int t_dest = rank_of(static_cast<int>(w % qrv),
                                     static_cast<int>(u % qcv));
          t_out[static_cast<std::size_t>(t_dest)].push_back(
              PanelEntry{0, w / qrv, u / qcv});
        }
      } else if (u < w && enumeration == Enumeration::kJIK) {
        const int t_dest = rank_of(static_cast<int>(w % qrv),
                                   static_cast<int>(u % qcv));
        t_out[static_cast<std::size_t>(t_dest)].push_back(
            PanelEntry{0, w / qrv, u / qcv});
      }
    }
  }

  const auto u_in = mpisim::alltoallv(comm, u_out);
  const auto l_in = mpisim::alltoallv(comm, l_out);
  const auto t_in = mpisim::alltoallv(comm, t_out);

  const int x = comm.rank() / qc;
  const int y = comm.rank() % qc;
  const VertexId n = slice.num_vertices;

  SummaBlocks blocks;
  // Split incoming panel entries by local panel index, then build CSRs.
  const int u_count = K / qc;
  const int l_count = K / qr;
  std::vector<std::vector<LocalEntry>> u_split(static_cast<std::size_t>(u_count));
  std::vector<std::vector<LocalEntry>> l_split(static_cast<std::size_t>(l_count));
  for (const auto& bucket : u_in) {
    for (const PanelEntry& e : bucket) {
      u_split[e.panel / static_cast<VertexId>(qc)].push_back(
          LocalEntry{e.row, e.col});
    }
  }
  for (const auto& bucket : l_in) {
    for (const PanelEntry& e : bucket) {
      l_split[e.panel / static_cast<VertexId>(qr)].push_back(
          LocalEntry{e.row, e.col});
    }
  }
  const VertexId u_rows = cyclic_row_count(n, qr, x);
  const VertexId l_rows = cyclic_row_count(n, qc, y);
  for (const auto& entries : u_split) {
    blocks.upanels.push_back(BlockCsr::from_entries(u_rows, entries));
  }
  for (const auto& entries : l_split) {
    blocks.lpanels.push_back(BlockCsr::from_entries(l_rows, entries));
  }
  std::vector<LocalEntry> task_entries;
  for (const auto& bucket : t_in) {
    for (const PanelEntry& e : bucket) {
      task_entries.push_back(LocalEntry{e.row, e.col});
    }
  }
  blocks.tasks = BlockCsr::from_entries(u_rows, task_entries);
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

mpisim::ChaosCounters SummaResult::total_chaos() const {
  mpisim::ChaosCounters total;
  for (const mpisim::ChaosCounters& c : per_rank_chaos) total += c;
  return total;
}

SummaSweep summa_sweep(mpisim::Comm& comm, int qr, int qc, int K,
                       const PanelSchedule& schedule, const BlockCsr& tasks,
                       const Config& config, PhaseTracker& tracker) {
  const int x = comm.rank() / qc;
  const int y = comm.rank() % qc;

  std::vector<int> row_members;
  for (int c = 0; c < qc; ++c) row_members.push_back(x * qc + c);
  std::vector<int> col_members;
  for (int r = 0; r < qr; ++r) col_members.push_back(r * qc + y);

  kernels::IntersectScratch scratch;
  SummaSweep out;

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

  // Live telemetry + flight recorder, mirroring cannon_count: the
  // "superstep" flight counter marks each panel step so a crash dump's
  // final superstep record is the failed step.
  obs::RankTelemetry* live = obs::Telemetry::caller_slot();
  std::uint64_t panels_bytes = 0;
  for (const auto panels : {schedule.upanels, schedule.lpanels}) {
    for (const BlockCsr& b : panels) panels_bytes += b.heap_bytes();
  }
  auto publish_live = [&](int step) {
    if (live != nullptr) {
      live->phase.store("tc", std::memory_order_relaxed);
      live->superstep.store(step, std::memory_order_relaxed);
      live->total_supersteps.store(K, std::memory_order_relaxed);
      live->triangles.store(static_cast<std::uint64_t>(out.local),
                            std::memory_order_relaxed);
      live->lookups.store(out.kernel.lookups, std::memory_order_relaxed);
      live->graph_bytes.store(panels_bytes, std::memory_order_relaxed);
      live->partition_bytes.store(tasks.heap_bytes(),
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

  BlockCsr u_storage;
  BlockCsr l_storage;
  for (int z = 0; z < K; ++z) {
    publish_live(z);
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
      result.triangles =
          intersect_blocks(tasks, *uz, *lz, config, scratch, result.kernel);
      result.kernel.probes = scratch.probes();
      return result;
    });
    out.local += step.triangles;
    out.kernel += step.kernel;
    PhaseSample s = tracker.cut();
    apply_straggler(comm, s);
    s.ops = step.kernel.lookups;
    s.overlapped = overlap;
    out.steps.push_back(s);
  }
  if (live != nullptr) {
    live->superstep.store(K, std::memory_order_relaxed);
    live->triangles.store(static_cast<std::uint64_t>(out.local),
                          std::memory_order_relaxed);
    live->lookups.store(out.kernel.lookups, std::memory_order_relaxed);
  }
  return out;
}

SummaResult count_triangles_summa(const graph::EdgeList& graph,
                                  const SummaOptions& options) {
  const int qr = options.grid_rows;
  const int qc = options.grid_cols;
  if (qr <= 0 || qc <= 0) {
    throw std::invalid_argument("summa: grid dims must be positive");
  }
  const int p = qr * qc;
  const int K = qr / std::gcd(qr, qc) * qc;

  SummaResult result;
  result.ranks = p;
  result.grid_rows = qr;
  result.grid_cols = qc;
  result.panels = K;

  std::vector<PhaseSample> pre_samples(static_cast<std::size_t>(p));
  std::vector<std::vector<PhaseSample>> step_samples(
      static_cast<std::size_t>(p));
  std::vector<KernelCounters> kernels(static_cast<std::size_t>(p));
  graph::TriangleCount triangles = 0;

  result.chaos_enabled = options.chaos != nullptr;

  mpisim::WorldReport report = mpisim::run_world(p, [&](mpisim::Comm& comm) {
    PhaseTracker tracker(comm);
    const LocalSlice input =
        block_slice_from_edges(graph, comm.rank(), comm.size());
    const CyclicSlice cyclic = cyclic_redistribute(comm, input);
    const RelabeledSlice relabeled = degree_relabel(comm, cyclic);
    const SummaBlocks blocks =
        scatter_summa(comm, qr, qc, K, relabeled, options.config.enumeration);
    const auto rank = static_cast<std::size_t>(comm.rank());
    pre_samples[rank] = tracker.cut();

    // Panel z lives at grid column z % qc (U) and grid row z % qr (L).
    PanelSchedule schedule;
    schedule.upanels = blocks.upanels;
    schedule.lpanels = blocks.lpanels;
    SummaSweep sweep = summa_sweep(comm, qr, qc, K, schedule, blocks.tasks,
                                   options.config, tracker);
    step_samples[rank] = std::move(sweep.steps);
    kernels[rank] = sweep.kernel;

    const graph::TriangleCount total = mpisim::allreduce_sum(comm, sweep.local);
    if (comm.rank() == 0) triangles = total;
  }, world_options(options));

  result.per_rank_chaos = std::move(report.chaos);
  result.triangles = triangles;
  result.pre_modeled_seconds =
      breakdown(pre_samples).modeled_seconds(options.model);
  for (int z = 0; z < K; ++z) {
    std::vector<PhaseSample> at_step;
    at_step.reserve(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      at_step.push_back(step_samples[static_cast<std::size_t>(r)]
                                    [static_cast<std::size_t>(z)]);
    }
    result.tc_modeled_seconds +=
        breakdown(at_step).modeled_seconds(options.model);
  }
  for (const KernelCounters& k : kernels) result.kernel += k;
  return result;
}

}  // namespace tricount::core
