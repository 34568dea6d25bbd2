#include "tricount/cetric/cetric.hpp"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "tricount/core/dist_graph.hpp"
#include "tricount/kernels/intersect.hpp"
#include "tricount/mpisim/collectives.hpp"
#include "tricount/mpisim/recovery.hpp"
#include "tricount/obs/flight.hpp"
#include "tricount/obs/msgtrace.hpp"
#include "tricount/obs/telemetry.hpp"

namespace tricount::cetric {

namespace {

using core::Config;
using core::KernelCounters;
using core::LocalSlice;
using core::PhaseSample;
using core::PhaseTracker;
using core::RunOptions;
using core::RunResult;
using graph::TriangleCount;

/// User-space tag for the cut-wedge exchange — the only point-to-point
/// traffic a cetric run produces (well below the collective tag range,
/// distinct from Cannon's 101-104 block-shift tags).
constexpr int kTagWedge = 301;

constexpr int kSupersteps = 2;  // superstep 0 = local, superstep 1 = cut

/// One received wedge: |tail ∩ Adj+(v)| closes triangles at this rank.
/// `tail` points into the received buffer (kept alive for crash replay).
struct CutTask {
  VertexId v = 0;
  std::span<const VertexId> tail;
};

/// The end of a chain of waiting rows (an empty chain's head).
constexpr std::uint32_t kNone = ~std::uint32_t{0};

/// Superstep 0's entry for one vertex v at or above the rank's range:
/// Adj+(v) when the rank holds it (owned or ghost), and the first owned
/// row waiting to close a wedge there. No row is kNone long: deg+ < n.
struct Closing {
  const VertexId* row = nullptr;
  std::uint32_t length = kNone;  // kNone: v's wedges ship
  std::uint32_t waiting = kNone;

  bool held() const { return length != kNone; }
  void hold(std::span<const VertexId> list) {
    row = list.data();
    length = static_cast<std::uint32_t>(list.size());
  }
  std::span<const VertexId> list() const { return {row, length}; }
};

/// Superstep 0's cursor into one owned row Adj+(u): `at` is the entry v
/// it waits on, (at, end) is the tail of the wedge (u; v, tail), and
/// `next` is the next row waiting on the same v.
struct Cursor {
  const VertexId* at = nullptr;
  const VertexId* end = nullptr;
  std::uint32_t next = kNone;
};

/// Resolves every wedge (u; v, tail) that closes at one row: pins
/// `closing` = Adj+(v) once, and each `probe(tail)` that `tails` makes
/// intersects one wedge's tail with it. Both counting supersteps resolve
/// through here, so every wedge probes only its tail, and the §5.2
/// backward exit stops that probe at the first id below min Adj+(v).
template <class Tails>
void close_at(kernels::IntersectScratch& scratch, const Config& config,
              std::span<const VertexId> closing, core::StepCount& step,
              Tails&& tails) {
  ++step.kernel.rows_visited;
  step.triangles += scratch.intersect_row(
      config.kernel, closing, config.modified_hashing,
      config.backward_early_exit, step.kernel, std::forward<Tails>(tails));
}

using SliceFactory = std::function<LocalSlice(mpisim::Comm&)>;

/// Pre-supersteps "partition" and "ghost" on one rank; their samples
/// land in `stats.pre_steps`.
RankPartition build_partition(mpisim::Comm& comm, const LocalSlice& input,
                              PhaseTracker& tracker, core::RankStats& stats) {
  const int p = comm.size();
  RankPartition part;

  // --- pre superstep "partition": degree-aware contiguous split.
  part.graph = build_cetric_graph(comm, input);
  const CetricGraph& g = part.graph;
  {
    PhaseSample sample = tracker.cut();
    sample.ops = g.routed_entries;
    stats.pre_steps.emplace_back("partition", sample);
  }

  // --- pre superstep "ghost": pull Adj+(v) once for every external
  // closing vertex whose wedge mass exceeds its list length — the
  // degree-aware trade between replicating a row and shipping the
  // wedges that close against it.
  {
    obs::ScopedSpan span("ghost", "pre");
    // Adj+ entries exceed their row, so every unowned closing vertex lies
    // above this rank's range: mass[v - above] is v's wedge mass.
    const VertexId above = g.part.end();
    std::vector<std::uint64_t> mass(g.part.num_vertices - above, 0);
    for (VertexId u = g.part.begin(); u < g.part.end(); ++u) {
      const std::span<const VertexId> au = g.plus(u);
      for (std::size_t i = 0; i + 1 < au.size(); ++i) {
        const VertexId v = au[i];
        if (v >= above) {
          mass[v - above] += static_cast<std::uint64_t>(au.size() - 1 - i);
        }
      }
    }
    // An ascending scan, advancing the owner along the boundaries, emits
    // every owner's requests already sorted.
    std::vector<std::vector<VertexId>> requests(
        static_cast<std::size_t>(p));
    std::size_t owner = static_cast<std::size_t>(g.part.rank);
    for (VertexId v = above; v < g.part.num_vertices; ++v) {
      if (mass[v - above] > g.deg_plus[v]) {
        while (g.part.boundaries[owner + 1] <= v) ++owner;
        requests[owner].push_back(v);
      }
    }
    const auto incoming_requests = mpisim::alltoallv(comm, requests);
    std::vector<std::vector<VertexId>> replies(
        static_cast<std::size_t>(p));
    for (std::size_t s = 0; s < incoming_requests.size(); ++s) {
      for (const VertexId v : incoming_requests[s]) {
        if (!g.part.owns(v)) {
          throw std::runtime_error("cetric: misrouted ghost request");
        }
        core::append_record(replies[s], v, g.plus(v));
      }
    }
    const auto incoming_replies = mpisim::alltoallv(comm, replies);
    for (const auto& bucket : incoming_replies) {
      std::size_t at = 0;
      while (at < bucket.size()) {
        const VertexId v = bucket[at++];
        const VertexId len = bucket[at++];
        part.ghosts[v].assign(
            bucket.begin() + static_cast<std::ptrdiff_t>(at),
            bucket.begin() + static_cast<std::ptrdiff_t>(at + len));
        at += len;
        part.ghost_counters.ghost_lists_fetched += 1;
        part.ghost_counters.ghost_list_entries += len;
      }
    }
  }
  {
    PhaseSample sample = tracker.cut();
    sample.ops = part.ghost_counters.ghost_list_entries;
    stats.pre_steps.emplace_back("ghost", sample);
  }
  return part;
}

/// Superstep 0 (local) and superstep 1 (cut) on one rank; fills `stats`
/// and `cet_out` and returns the global total.
TriangleCount count_partition(mpisim::Comm& comm, const RankPartition& part,
                              const Config& config, PhaseTracker& tracker,
                              core::RankStats& stats,
                              core::CetricRankCounters& cet_out) {
  const int rank = comm.rank();
  const int p = comm.size();
  const CetricGraph& g = part.graph;
  const auto& ghosts = part.ghosts;
  core::CetricRankCounters cet = part.ghost_counters;
  obs::RankTelemetry* live = obs::Telemetry::caller_slot();

  // --- triangle counting: superstep 0 (local) + superstep 1 (cut). Each
  // superstep's compute returns what it adds and reads only the partition
  // and the buffers received, so a crash replays it from them
  // (mpisim/recovery.hpp). The table is sized for every row either
  // superstep pins, owned or ghost, so neither resizes it.
  kernels::IntersectScratch scratch;
  std::size_t max_row = 16;
  for (std::size_t k = 0; k < g.adj_plus.size(); ++k) {
    max_row = std::max(max_row, g.adj_plus[k].size());
  }
  for (const auto& [v, list] : ghosts) {
    max_row = std::max(max_row, list.size());
  }
  scratch.reserve_for(max_row);

  TriangleCount local_count = 0;
  TriangleCount cut_count = 0;
  KernelCounters kernel;

  auto publish_live = [&](int step) {
    if (live != nullptr) {
      live->phase.store("tc", std::memory_order_relaxed);
      live->superstep.store(step, std::memory_order_relaxed);
      live->total_supersteps.store(kSupersteps,
                                   std::memory_order_relaxed);
      live->triangles.store(
          static_cast<std::uint64_t>(local_count + cut_count),
          std::memory_order_relaxed);
      live->lookups.store(kernel.lookups, std::memory_order_relaxed);
    }
    if (obs::FlightRecorder* flight = obs::FlightRecorder::current()) {
      flight->counter("superstep", "tc", static_cast<double>(step));
    }
    if (obs::MsgTrace* mt = obs::MsgTrace::current()) {
      mt->note_superstep(step);
    }
  };
  auto finish_superstep = [&](const KernelCounters& step) {
    kernel += step;
    PhaseSample sample = tracker.cut();
    core::apply_straggler(comm, sample);
    sample.ops = step.lookups;
    stats.shifts.push_back(sample);
  };

  // ------- superstep 0: local counting, zero messages. ----------
  // Every wedge (u; v, tail) with a locally held closing row (v owned,
  // or ghost-pulled) closes here; the rest is bucketed into
  // per-destination cut-wedge payloads but nothing is sent — the
  // zero-message invariant the cetric tests assert. Local wedges close
  // at their closing row, as superstep 1 closes received ones: each
  // owned row keeps a cursor on its next locally closable entry v and
  // waits in v's chain, and an upward sweep over v pins Adj+(v) once,
  // probes the tail after every waiting cursor, and moves each row on
  // to the chain of its next such entry, which lies above v.
  publish_live(0);
  struct LocalStep : core::StepCount {
    std::uint64_t cut_wedges = 0;
    std::vector<std::vector<VertexId>> wedge_out;
  };
  // Per-u routing scratch, reused across rows (and left empty by each):
  // positions of the externally-closing entries of Adj+(u), grouped by
  // destination so one shared suffix serves every wedge to the same rank.
  std::vector<std::vector<std::uint32_t>> dest_positions(
      static_cast<std::size_t>(p));
  std::vector<int> touched;
  const LocalStep local = mpisim::run_superstep(comm, 0, [&] {
    LocalStep step;
    step.wedge_out.resize(static_cast<std::size_t>(p));
    scratch.reset_probes();
    obs::ScopedSpan span("intersect", "tc");
    // Every Adj+ entry of an owned row lies in [begin, n), so the closing
    // rows, and the chains of rows waiting on them, index by v - base.
    const VertexId base = g.part.begin();
    std::vector<Closing> closing(g.part.num_vertices - base);
    for (VertexId v = base; v < g.part.end(); ++v) {
      closing[v - base].hold(g.plus(v));
    }
    for (const auto& [v, list] : ghosts) closing[v - base].hold(list);
    std::vector<Cursor> cursors(g.part.owned());
    // Chains row r under its first locally closable entry in [at, end)
    // that still has a tail; a row with none drops out.
    auto wait_from = [&](std::uint32_t r, const VertexId* at,
                         const VertexId* end) {
      for (; end - at > 1; ++at) {
        Closing& c = closing[*at - base];
        if (!c.held()) continue;
        cursors[r] = Cursor{at, end, std::exchange(c.waiting, r)};
        return;
      }
    };
    for (VertexId u = base; u < g.part.end(); ++u) {
      const std::span<const VertexId> au = g.plus(u);
      touched.clear();
      for (std::size_t i = 0; i + 1 < au.size(); ++i) {
        const VertexId v = au[i];
        if (closing[v - base].held()) continue;
        const auto d = static_cast<std::size_t>(g.part.owner(v));
        if (dest_positions[d].empty()) touched.push_back(g.part.owner(v));
        dest_positions[d].push_back(static_cast<std::uint32_t>(i));
      }
      for (const int d : touched) {
        auto& positions = dest_positions[static_cast<std::size_t>(d)];
        auto& buf = step.wedge_out[static_cast<std::size_t>(d)];
        const std::uint32_t first = positions.front();
        buf.push_back(static_cast<VertexId>(au.size() - first));
        buf.insert(buf.end(),
                   au.begin() + static_cast<std::ptrdiff_t>(first),
                   au.end());
        buf.push_back(static_cast<VertexId>(positions.size()));
        for (const std::uint32_t pos : positions) {
          buf.push_back(static_cast<VertexId>(pos - first));
        }
        step.cut_wedges += positions.size();
        positions.clear();
      }
      wait_from(u - base, au.data(), au.data() + au.size());
    }
    for (VertexId v = base; v < g.part.num_vertices; ++v) {
      const Closing& c = closing[v - base];
      if (c.waiting == kNone) continue;
      close_at(scratch, config, c.list(), step, [&](auto&& probe) {
        for (std::uint32_t r = c.waiting; r != kNone;) {
          const Cursor cur = cursors[r];
          probe(std::span<const VertexId>(cur.at + 1, cur.end));
          wait_from(std::exchange(r, cur.next), cur.at + 1, cur.end);
        }
      });
    }
    step.kernel.probes = scratch.probes();
    return step;
  });
  local_count = local.triangles;
  cet.cut_wedges_sent += local.cut_wedges;
  finish_superstep(local.kernel);

  // ------- superstep 1: cut-wedge exchange + resolution. ---------
  publish_live(1);
  std::vector<std::vector<VertexId>> received(
      static_cast<std::size_t>(p));
  std::vector<CutTask> tasks;
  {
    obs::ScopedSpan span("exchange", "tc");
    // Per-destination element counts travel collectively so every
    // rank knows which sources to expect; the payloads themselves
    // are the run's only user-tagged traffic. Buffered sends make
    // post-all-then-receive deadlock-free.
    const auto& wedge_out = local.wedge_out;
    std::vector<std::vector<std::uint64_t>> announce(
        static_cast<std::size_t>(p));
    for (std::size_t d = 0; d < wedge_out.size(); ++d) {
      announce[d] = {wedge_out[d].size()};
    }
    const auto expected = mpisim::alltoallv(comm, announce);
    for (int d = 0; d < p; ++d) {
      const auto& buf = wedge_out[static_cast<std::size_t>(d)];
      if (buf.empty()) continue;
      if (d == rank) {
        throw std::logic_error("cetric: wedge routed to its own rank");
      }
      cet.cut_wedge_messages_sent += 1;
      cet.cut_wedge_bytes_sent += buf.size() * sizeof(VertexId);
      comm.send<VertexId>(d, kTagWedge, buf);
    }
    for (int s = 0; s < p; ++s) {
      if (s == rank) continue;
      const auto& counts = expected[static_cast<std::size_t>(s)];
      if (counts.empty() || counts[0] == 0) continue;
      received[static_cast<std::size_t>(s)] =
          comm.recv<VertexId>(s, kTagWedge);
    }
    // Decode [suffix_len, suffix..., count, rel_pos...] groups into
    // per-vertex tasks, sorted by closing vertex so each owned row
    // is pinned into the scratch exactly once.
    for (const auto& buf : received) {
      std::size_t at = 0;
      while (at < buf.size()) {
        const std::size_t suffix_len = buf[at++];
        const VertexId* suffix = buf.data() + at;
        at += suffix_len;
        const std::size_t count = buf[at++];
        for (std::size_t k = 0; k < count; ++k) {
          const std::size_t rel = buf[at++];
          const VertexId v = suffix[rel];
          if (!g.part.owns(v)) {
            throw std::runtime_error("cetric: misrouted cut wedge");
          }
          tasks.push_back(
              CutTask{v, {suffix + rel + 1, suffix_len - rel - 1}});
        }
      }
    }
    std::stable_sort(tasks.begin(), tasks.end(),
                     [](const CutTask& a, const CutTask& b) {
                       return a.v < b.v;
                     });
  }
  // The received buffers are the message log: a crashed rank replays the
  // resolution from them without any peer resending.
  const core::StepCount cut = mpisim::run_superstep(comm, 1, [&] {
    core::StepCount step;
    scratch.reset_probes();
    obs::ScopedSpan span("intersect", "tc");
    for (std::size_t at = 0; at < tasks.size();) {
      const VertexId v = tasks[at].v;
      close_at(scratch, config, g.plus(v), step, [&](auto&& probe) {
        for (; at < tasks.size() && tasks[at].v == v; ++at) {
          probe(tasks[at].tail);
        }
      });
    }
    step.kernel.probes = scratch.probes();
    return step;
  });
  cut_count = cut.triangles;
  finish_superstep(cut.kernel);

  if (live != nullptr) {
    live->superstep.store(kSupersteps, std::memory_order_relaxed);
    live->triangles.store(
        static_cast<std::uint64_t>(local_count + cut_count),
        std::memory_order_relaxed);
    live->lookups.store(kernel.lookups, std::memory_order_relaxed);
  }

  const TriangleCount total =
      mpisim::allreduce_sum(comm, local_count + cut_count);
  if (live != nullptr) {
    live->phase.store("done", std::memory_order_relaxed);
  }

  stats.kernel = kernel;
  cet.local_triangles = static_cast<std::uint64_t>(local_count);
  cet.cut_triangles = static_cast<std::uint64_t>(cut_count);
  cet_out = cet;
  return total;
}

RunResult cetric_result(int ranks, const util::AlphaBetaModel& model) {
  RunResult result;
  result.algorithm = "cetric";
  result.ranks = ranks;
  result.model = model;
  result.per_rank.assign(static_cast<std::size_t>(ranks), core::RankStats{});
  result.per_rank_cetric.assign(static_cast<std::size_t>(ranks),
                                core::CetricRankCounters{});
  // The local superstep has no communication to overlap with and the cut
  // exchange posts all (buffered) sends before the first receive, so
  // Config::overlap has nothing to change; counts are unaffected.
  result.overlap_enabled = false;
  return result;
}

/// Live telemetry phase tag: "pre" until the counting supersteps start.
void mark_pre() {
  if (obs::RankTelemetry* live = obs::Telemetry::caller_slot()) {
    live->phase.store("pre", std::memory_order_relaxed);
  }
}

RunResult run_cetric_pipeline(int ranks, const RunOptions& options,
                              const SliceFactory& make_slice) {
  if (ranks < 1) {
    throw std::invalid_argument(
        "count_triangles_cetric: rank count must be positive");
  }
  RunResult result = cetric_result(ranks, options.model);
  result.chaos_enabled = options.chaos != nullptr;

  result.take(mpisim::run_world(
      ranks,
      [&](mpisim::Comm& comm) {
        mark_pre();
        const LocalSlice input = make_slice(comm);
        const auto rank = static_cast<std::size_t>(comm.rank());
        PhaseTracker tracker(comm);
        const RankPartition part =
            build_partition(comm, input, tracker, result.per_rank[rank]);
        const TriangleCount total =
            count_partition(comm, part, options.config, tracker,
                            result.per_rank[rank],
                            result.per_rank_cetric[rank]);
        if (rank == 0) {
          result.triangles = total;
          result.num_vertices = part.graph.part.num_vertices;
          result.num_edges = part.graph.num_edges;
        }
      },
      core::world_options(options)));

  for (const auto& [name, sample] : result.per_rank[0].pre_steps) {
    result.step_names.push_back(name);
  }
  return result;
}

}  // namespace

RunResult count_triangles_cetric(const graph::EdgeList& graph, int ranks,
                                 const RunOptions& options) {
  return run_cetric_pipeline(ranks, options, [&](mpisim::Comm& comm) {
    return core::block_slice_from_edges(graph, comm.rank(), comm.size());
  });
}

RunResult count_triangles_cetric(const graph::Csr& csr, int ranks,
                                 const RunOptions& options) {
  return run_cetric_pipeline(ranks, options, [&](mpisim::Comm& comm) {
    return core::block_slice_from_csr(csr, comm.rank(), comm.size());
  });
}

ResidentCetric preprocess_resident(mpisim::PersistentWorld& world,
                                   const graph::EdgeList& graph,
                                   const RunOptions& options) {
  ResidentCetric resident;
  resident.model = options.model;
  resident.per_rank.resize(static_cast<std::size_t>(world.size()));
  world.run_job([&](mpisim::Comm& comm) {
    mark_pre();
    const LocalSlice input =
        core::block_slice_from_edges(graph, comm.rank(), comm.size());
    PhaseTracker tracker(comm);
    core::RankStats stats;  // build samples are not reported per request
    resident.per_rank[static_cast<std::size_t>(comm.rank())] =
        build_partition(comm, input, tracker, stats);
  });
  return resident;
}

RunResult count_resident(mpisim::PersistentWorld& world,
                         const ResidentCetric& resident, const Config& config) {
  const int ranks = static_cast<int>(resident.per_rank.size());
  if (world.size() != ranks) {
    throw std::invalid_argument(
        "cetric::count_resident: world size does not match the partition");
  }
  RunResult result = cetric_result(ranks, resident.model);
  result.num_vertices = resident.per_rank[0].graph.part.num_vertices;
  result.num_edges = resident.per_rank[0].graph.num_edges;
  result.take(world.run_job([&](mpisim::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    PhaseTracker tracker(comm);
    const TriangleCount total =
        count_partition(comm, resident.per_rank[rank], config, tracker,
                        result.per_rank[rank], result.per_rank_cetric[rank]);
    if (rank == 0) result.triangles = total;
  }));
  return result;
}

}  // namespace tricount::cetric
