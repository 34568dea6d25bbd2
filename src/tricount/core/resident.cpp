#include "tricount/core/resident.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>
#include <utility>

#include "tricount/core/dist_graph.hpp"
#include "tricount/core/summa2d.hpp"
#include "tricount/mpisim/cart2d.hpp"
#include "tricount/obs/flight.hpp"

namespace tricount::core {

namespace {

/// Per-rank credits travel as 32-bit values; > 4e9 triangles on one
/// vertex or edge from one rank is outside this simulator's scale by
/// orders of magnitude.
VertexId credit_value(TriangleCount credit) {
  if (credit > std::numeric_limits<VertexId>::max()) {
    throw std::overflow_error("count_resident: credit overflow");
  }
  return static_cast<VertexId>(credit);
}

/// Sends each vertex credit to the owner of its degree-ordered id, which
/// writes the sum into `counts` at the vertex's input id (disjoint slots
/// across ranks; the job's join publishes the writes).
void reduce_vertex_credits(mpisim::Comm& comm,
                           const std::vector<TriangleCount>& credits,
                           const std::vector<VertexId>& old_ids,
                           std::vector<TriangleCount>& counts) {
  const auto pv = static_cast<VertexId>(comm.size());
  std::vector<std::vector<VertexId>> out(static_cast<std::size_t>(pv));
  for (VertexId v = 0; v < credits.size(); ++v) {
    if (credits[v] == 0) continue;
    out[v % pv].push_back(v);
    out[v % pv].push_back(credit_value(credits[v]));
  }
  for (const auto& bucket : mpisim::alltoallv(comm, out)) {
    for (std::size_t at = 0; at + 1 < bucket.size(); at += 2) {
      counts[old_ids[bucket[at] / pv]] += bucket[at + 1];
    }
  }
}

/// Routes each edge credit, from every map in `credits`, to the owner of
/// its lower degree-ordered endpoint, which translates that endpoint and
/// forwards the credit to the owner of the upper one; that rank translates
/// it too and adds the credit at the edge's position in `simplified` (each
/// edge lands on exactly one rank, so the slots are disjoint, and an edge
/// credited in two maps is summed there).
void reduce_edge_credits(
    mpisim::Comm& comm,
    const std::vector<std::unordered_map<std::uint64_t, TriangleCount>>&
        credits,
    const std::vector<VertexId>& old_ids, const graph::EdgeList& simplified,
    std::vector<TriangleCount>& supports) {
  const auto pv = static_cast<VertexId>(comm.size());
  std::vector<std::vector<VertexId>> out(pv);
  for (const auto& step : credits) {
    for (const auto& [packed, count] : step) {
      const auto lo = static_cast<VertexId>(packed >> 32);
      out[lo % pv].insert(out[lo % pv].end(),
                          {lo, static_cast<VertexId>(packed & 0xffffffffu),
                           credit_value(count)});
    }
  }
  std::vector<std::vector<VertexId>> forward(pv);
  for (const auto& bucket : mpisim::alltoallv(comm, out)) {
    for (std::size_t at = 0; at + 2 < bucket.size(); at += 3) {
      const VertexId hi = bucket[at + 1];
      forward[hi % pv].insert(forward[hi % pv].end(),
                              {old_ids[bucket[at] / pv], hi, bucket[at + 2]});
    }
  }
  for (const auto& bucket : mpisim::alltoallv(comm, forward)) {
    for (std::size_t at = 0; at + 2 < bucket.size(); at += 3) {
      const VertexId a = bucket[at];
      const VertexId b = old_ids[bucket[at + 1] / pv];
      const graph::Edge key{std::min(a, b), std::max(a, b)};
      const auto it = std::lower_bound(simplified.edges.begin(),
                                       simplified.edges.end(), key);
      if (it == simplified.edges.end() || !(*it == key)) {
        throw std::runtime_error("count_resident: credited unknown edge");
      }
      supports[static_cast<std::size_t>(it - simplified.edges.begin())] +=
          bucket[at + 2];
    }
  }
}

/// A served RunResult's metadata; the sweep fills per-rank samples. The
/// task matrix encodes the enumeration scheme it was built for, so
/// `config` counts under the partition's.
RunResult resident_result(mpisim::PersistentWorld& world,
                          const ResidentPartition& partition, Config& config) {
  if (world.size() != partition.ranks) {
    throw std::invalid_argument(
        "count_resident: world size does not match the resident partition");
  }
  config.enumeration = partition.config.enumeration;
  RunResult result;
  result.ranks = partition.ranks;
  result.grid_q = partition.grid_q;
  result.num_vertices = partition.num_vertices;
  result.num_edges = partition.num_edges;
  result.model = partition.model;
  result.overlap_enabled = config.overlap;
  result.per_rank.assign(static_cast<std::size_t>(partition.ranks),
                         RankStats{});
  return result;
}

}  // namespace

std::uint64_t ResidentPartition::resident_bytes() const {
  std::uint64_t total = 0;
  for (const Blocks& b : blocks) total += b.heap_bytes();
  return total;
}

ResidentPartition preprocess_resident(mpisim::PersistentWorld& world,
                                      const graph::EdgeList& graph,
                                      const RunOptions& options) {
  const int ranks = world.size();
  if (mpisim::perfect_square_root(ranks) == 0) {
    throw std::invalid_argument(
        "preprocess_resident: rank count must be a perfect square");
  }
  ResidentPartition partition;
  partition.ranks = ranks;
  partition.grid_q = mpisim::perfect_square_root(ranks);
  partition.config = options.config;
  partition.model = options.model;
  partition.blocks.resize(static_cast<std::size_t>(ranks));
  partition.old_ids.resize(static_cast<std::size_t>(ranks));
  partition.new_ids.resize(static_cast<std::size_t>(ranks));

  world.run_job([&](mpisim::Comm& comm) {
    mpisim::Cart2D grid(comm);
    PreprocessOutput pre = preprocess(
        grid, block_slice_from_edges(graph, comm.rank(), comm.size()),
        options.config);
    if (options.validate_blocks) pre.blocks.validate();
    const auto rank = static_cast<std::size_t>(comm.rank());

    // Invert the relabel: the owner of each degree-ordered id learns the
    // input id it stands for.
    const auto pv = static_cast<VertexId>(comm.size());
    std::vector<std::vector<VertexId>> pairs(pv);
    for (std::size_t k = 0; k < pre.new_ids.size(); ++k) {
      const VertexId w = pre.new_ids[k];
      pairs[w % pv].insert(pairs[w % pv].end(),
                           {w, static_cast<VertexId>(rank + k * pv)});
    }
    std::vector<VertexId>& old_ids = partition.old_ids[rank];
    old_ids.assign(cyclic_row_count(pre.num_vertices, comm.size(),
                                    comm.rank()),
                   graph::kInvalidVertex);
    for (const auto& bucket : mpisim::alltoallv(comm, pairs)) {
      for (std::size_t at = 0; at + 1 < bucket.size(); at += 2) {
        old_ids[bucket[at] / pv] = bucket[at + 1];
      }
    }

    partition.blocks[rank] = std::move(pre.blocks);
    partition.new_ids[rank] = std::move(pre.new_ids);
    if (comm.rank() == 0) {
      partition.num_vertices = pre.num_vertices;
      partition.num_edges = pre.num_edges;
    }
    if (obs::RankGauges* gauges = obs::FlightRecorder::caller_gauges()) {
      gauges->partition_bytes.store(partition.blocks[rank].heap_bytes(),
                                    std::memory_order_relaxed);
    }
  });

  return partition;
}

void patch_resident(mpisim::PersistentWorld& world,
                    ResidentPartition& partition,
                    std::span<const graph::Edge> deleted,
                    std::span<const graph::Edge> inserted) {
  if (world.size() != partition.ranks) {
    throw std::invalid_argument(
        "patch_resident: world size does not match the resident partition");
  }
  for (const auto edges : {deleted, inserted}) {
    for (const graph::Edge& e : edges) {
      if (e.u >= partition.num_vertices || e.v >= partition.num_vertices) {
        throw std::out_of_range("patch_resident: vertex out of range");
      }
    }
  }

  world.run_job([&](mpisim::Comm& comm) {
    obs::ScopedSpan span("patch_2d", "pre");
    const auto pv = static_cast<VertexId>(comm.size());
    const auto rank = static_cast<std::size_t>(comm.rank());
    const std::vector<VertexId>& new_ids = partition.new_ids[rank];

    // The owner of each edge's u translates it and forwards
    // (new u, v, insert) to the owner of v...
    std::vector<std::vector<VertexId>> forward(pv);
    for (const VertexId insert : {0u, 1u}) {
      for (const graph::Edge& e : insert != 0 ? inserted : deleted) {
        if (e.u % pv != rank) continue;
        forward[e.v % pv].insert(forward[e.v % pv].end(),
                                 {new_ids[e.u / pv], e.v, insert});
      }
    }
    // ...which translates v and sends the entries of both directions to
    // the ranks scatter_2d places them on.
    struct PatchEntry {
      LocalEntry entry;
      Part part = Part::kU;
      std::uint32_t insert = 0;
    };
    std::vector<std::vector<PatchEntry>> out(pv);
    for (const auto& bucket : mpisim::alltoallv(comm, forward)) {
      for (std::size_t at = 0; at + 2 < bucket.size(); at += 3) {
        const VertexId a = bucket[at];
        const VertexId b = new_ids[bucket[at + 1] / pv];
        const auto route = [&](Part part, int dest, LocalEntry entry) {
          out[static_cast<std::size_t>(dest)].push_back(
              PatchEntry{entry, part, bucket[at + 2]});
        };
        place_2d(partition.grid_q, a, b, partition.config.enumeration, route);
        place_2d(partition.grid_q, b, a, partition.config.enumeration, route);
      }
    }
    std::array<std::vector<LocalEntry>, 3> removed;
    std::array<std::vector<LocalEntry>, 3> added;
    for (const auto& bucket : mpisim::alltoallv(comm, out)) {
      for (const PatchEntry& e : bucket) {
        (e.insert != 0 ? added : removed)[static_cast<std::size_t>(e.part)]
            .push_back(e.entry);
      }
    }
    Blocks& blocks = partition.blocks[rank];
    blocks.ublock.patch(std::move(removed[0]), std::move(added[0]));
    blocks.lblock.patch(std::move(removed[1]), std::move(added[1]));
    blocks.tasks.patch(std::move(removed[2]), std::move(added[2]));
    if (obs::RankGauges* gauges = obs::FlightRecorder::caller_gauges()) {
      gauges->partition_bytes.store(blocks.heap_bytes(),
                                    std::memory_order_relaxed);
    }
  });
  partition.num_edges += inserted.size();
  partition.num_edges -= deleted.size();
}

RunResult count_resident(mpisim::PersistentWorld& world,
                         const ResidentPartition& partition, Config config,
                         Tally tally, const graph::EdgeList* simplified) {
  if (tally == Tally::kEdgeSupport && simplified == nullptr) {
    throw std::invalid_argument(
        "count_resident: the edge-support tally needs the simplified graph");
  }
  RunResult result = resident_result(world, partition, config);
  if (tally == Tally::kPerVertex) {
    result.vertex_triangles.assign(partition.num_vertices, 0);
  } else if (tally == Tally::kEdgeSupport) {
    result.edge_supports.assign(simplified->edges.size(), 0);
  }

  result.take(world.run_job([&](mpisim::Comm& comm) {
    mpisim::Cart2D grid(comm);
    const auto rank = static_cast<std::size_t>(comm.rank());
    // Copy: cannon_count shifts the blocks away; the resident set must
    // survive for the next query.
    Blocks blocks = partition.blocks[rank];
    CountOutput count = cannon_count(grid, std::move(blocks), config, tally,
                                     partition.num_vertices);

    RankStats& stats = result.per_rank[rank];
    stats.shifts = std::move(count.shifts);
    stats.kernel = count.kernel;
    if (comm.rank() == 0) result.triangles = count.total_triangles;
    if (tally == Tally::kPerVertex) {
      reduce_vertex_credits(comm, count.vertex_credits,
                            partition.old_ids[rank], result.vertex_triangles);
    } else if (tally == Tally::kEdgeSupport) {
      reduce_edge_credits(comm, count.edge_credits, partition.old_ids[rank],
                          *simplified, result.edge_supports);
    }
  }));
  return result;
}

RunResult count_resident_summa(mpisim::PersistentWorld& world,
                               const ResidentPartition& partition,
                               Config config) {
  RunResult result = resident_result(world, partition, config);
  result.algorithm = "summa";
  const int q = partition.grid_q;

  result.take(world.run_job([&](mpisim::Comm& comm) {
    const Blocks& blocks =
        partition.blocks[static_cast<std::size_t>(comm.rank())];
    // Rank (x,y) holds U_{x,(x+y)%q} and L_{(x+y)%q,y}: the roots of step
    // z are column (z−x) mod q and row (z−y) mod q.
    PanelSchedule schedule;
    schedule.upanels = std::span<const BlockCsr>(&blocks.ublock, 1);
    schedule.lpanels = std::span<const BlockCsr>(&blocks.lblock, 1);
    schedule.u_shift = comm.rank() / q;
    schedule.l_shift = comm.rank() % q;
    RankStats& stats = result.per_rank[static_cast<std::size_t>(comm.rank())];
    PhaseTracker tracker(comm, stats);
    const StepCount sweep =
        summa_sweep(comm, q, q, q, schedule, blocks.tasks, config, tracker);
    stats.kernel = sweep.kernel;
    const TriangleCount total = mpisim::allreduce_sum(comm, sweep.triangles);
    if (comm.rank() == 0) result.triangles = total;
  }));
  return result;
}

}  // namespace tricount::core
