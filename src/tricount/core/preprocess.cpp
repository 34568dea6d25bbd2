#include "tricount/core/preprocess.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>

#include "tricount/mpisim/collectives.hpp"
#include "tricount/obs/flight.hpp"
#include "tricount/util/prefix.hpp"

namespace tricount::core {

namespace {

/// Sorts every row of `adj` ascending with one counting sort over its ids,
/// all below n: each entry's row is bucketed under its id, then a walk over
/// the ids in ascending order appends each id to the rows in its bucket.
void counting_sort_rows(Adjacency& adj, VertexId n) {
  // start[u] is the first slot of id u's bucket, and its end once filled.
  std::vector<EdgeIndex> start(static_cast<std::size_t>(n) + 1, 0);
  for (const VertexId u : adj.ids) ++start[u + 1];
  util::inclusive_prefix_sum(start);
  std::vector<VertexId> holders(adj.ids.size());
  for (std::size_t k = 0; k < adj.size(); ++k) {
    for (EdgeIndex j = adj.offsets[k]; j < adj.offsets[k + 1]; ++j) {
      holders[start[adj.ids[j]]++] = static_cast<VertexId>(k);
    }
  }
  std::vector<EdgeIndex> cursor(adj.offsets.begin(), adj.offsets.end() - 1);
  EdgeIndex at = 0;
  for (VertexId u = 0; u < n; ++u) {
    for (; at < start[u]; ++at) adj.ids[cursor[holders[at]]++] = u;
  }
}

}  // namespace

RelabeledSlice degree_relabel(mpisim::Comm& comm, const CyclicSlice& slice) {
  const int p = slice.p;
  const auto pv = static_cast<VertexId>(p);

  // --- counting sort of the degree distribution (§5.4's two scans, a
  // max-reduction, and a d_max-long prefix over ranks) -------------------
  const std::size_t rows = slice.adj.size();
  EdgeIndex local_max = 0;
  for (std::size_t k = 0; k < rows; ++k) {
    local_max =
        std::max(local_max, static_cast<EdgeIndex>(slice.adj[k].size()));
  }
  const EdgeIndex dmax = mpisim::allreduce_max(comm, local_max);

  std::vector<std::uint64_t> histogram(static_cast<std::size_t>(dmax) + 1, 0);
  for (std::size_t k = 0; k < rows; ++k) ++histogram[slice.adj[k].size()];

  // lower_counts[d] = same-degree vertices owned by lower ranks;
  // global[d] = total vertices of degree d.
  std::vector<std::uint64_t> inclusive = histogram;
  const std::vector<std::uint64_t> lower_counts = mpisim::scan_and_exscan(
      comm, inclusive, std::plus<std::uint64_t>(), std::uint64_t{0});
  std::vector<std::uint64_t> global = histogram;
  mpisim::allreduce(comm, global, std::plus<std::uint64_t>());
  util::exclusive_prefix_sum(global);  // global[d] = first position of degree d

  RelabeledSlice out;
  out.num_vertices = slice.num_vertices;
  out.rank = slice.rank;
  out.p = p;
  out.global_max_degree = dmax;
  out.new_ids.resize(rows);
  {
    std::vector<std::uint64_t> within(static_cast<std::size_t>(dmax) + 1, 0);
    for (std::size_t k = 0; k < rows; ++k) {
      const std::size_t d = slice.adj[k].size();
      out.new_ids[k] =
          static_cast<VertexId>(global[d] + lower_counts[d] + within[d]++);
    }
  }

  // --- relabel neighbours: ask each owner for its vertices' new ids -----
  // (§5.3: "the position of the adjacent vertex is not locally available.
  // Thus, this requires us to perform a communication step with all
  // nodes.")
  //
  // slot[u] marks u as a neighbour, then holds u's position in
  // requests[u % p]. The ascending walk leaves every request list sorted
  // and duplicate-free, and an entry translates with two array reads.
  // The table is one 32-bit word per vertex, held for this call.
  const VertexId n = slice.num_vertices;
  std::vector<std::uint32_t> slot(n, 0);
  for (const VertexId u : slice.adj.ids) {
    if (u >= n) {
      throw std::out_of_range("degree_relabel: neighbour id out of range");
    }
    slot[u] = 1;
  }
  std::vector<std::vector<VertexId>> requests(static_cast<std::size_t>(p));
  for (VertexId u = 0; u < n; ++u) {
    if (slot[u] != 0) {
      auto& r = requests[u % pv];
      slot[u] = static_cast<std::uint32_t>(r.size());
      r.push_back(u);
    }
  }
  const auto incoming_requests = mpisim::alltoallv(comm, requests);
  std::vector<std::vector<VertexId>> answers(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const auto& asked = incoming_requests[static_cast<std::size_t>(r)];
    auto& reply = answers[static_cast<std::size_t>(r)];
    reply.reserve(asked.size());
    for (const VertexId u : asked) {
      if (u % pv != static_cast<VertexId>(slice.rank)) {
        throw std::runtime_error("degree_relabel: misrouted id request");
      }
      reply.push_back(out.new_ids[u / pv]);
    }
  }
  const auto responses = mpisim::alltoallv(comm, answers);

  out.adj.offsets = slice.adj.offsets;
  out.adj.ids.resize(slice.adj.ids.size());
  std::transform(slice.adj.ids.begin(), slice.adj.ids.end(),
                 out.adj.ids.begin(),
                 [&](VertexId u) { return responses[u % pv][slot[u]]; });
  // The translation keeps each row in old-id order; this is the
  // pipeline's one row sort.
  counting_sort_rows(out.adj, n);
  return out;
}

RelabeledSlice identity_relabel(mpisim::Comm& comm,
                                const CyclicSlice& slice) {
  RelabeledSlice out;
  out.num_vertices = slice.num_vertices;
  out.rank = slice.rank;
  out.p = slice.p;
  out.new_ids.resize(slice.adj.size());
  EdgeIndex local_max = 0;
  for (std::size_t k = 0; k < slice.adj.size(); ++k) {
    out.new_ids[k] = slice.global_id(static_cast<VertexId>(k));
    local_max =
        std::max(local_max, static_cast<EdgeIndex>(slice.adj[k].size()));
  }
  out.adj = slice.adj;  // new id == old id: rows already ascend
  out.global_max_degree = mpisim::allreduce_max(comm, local_max);
  return out;
}

Blocks scatter_2d(mpisim::Cart2D& grid, const RelabeledSlice& slice,
                  Enumeration enumeration) {
  mpisim::Comm& comm = grid.comm();
  const int q = grid.q();
  const std::size_t p = static_cast<std::size_t>(comm.size());

  // out[part][rank]: the entries of one block kind bound for one rank.
  std::array<std::vector<std::vector<LocalEntry>>, 3> out;
  out.fill(std::vector<std::vector<LocalEntry>>(p));
  for (std::size_t k = 0; k < slice.adj.size(); ++k) {
    for (const VertexId u : slice.adj[k]) {
      // u == w cannot happen: new ids form a permutation and self-loops
      // were removed at ingestion.
      place_2d(q, slice.new_ids[k], u, enumeration,
               [&](Part part, int dest, LocalEntry entry) {
                 out[static_cast<std::size_t>(part)]
                    [static_cast<std::size_t>(dest)]
                        .push_back(entry);
               });
    }
  }

  const auto u_in = mpisim::alltoallv(comm, out[0]);
  const auto l_in = mpisim::alltoallv(comm, out[1]);
  const auto t_in = mpisim::alltoallv(comm, out[2]);

  Blocks blocks;
  const VertexId u_rows = cyclic_row_count(slice.num_vertices, q, grid.row());
  const VertexId l_rows = cyclic_row_count(slice.num_vertices, q, grid.col());
  blocks.ublock = BlockCsr::from_entries(u_rows, u_in);
  blocks.lblock = BlockCsr::from_entries(l_rows, l_in);
  blocks.tasks = BlockCsr::from_entries(u_rows, t_in);
  return blocks;
}

PreprocessOutput preprocess(mpisim::Cart2D& grid, const LocalSlice& input,
                            const Config& config) {
  mpisim::Comm& comm = grid.comm();
  PreprocessOutput out;
  out.num_vertices = input.num_vertices;
  PhaseTracker tracker(comm);

  CyclicSlice cyclic = [&] {
    obs::ScopedSpan span("redistribute", "pre");
    return cyclic_redistribute(comm, input);
  }();
  {
    PhaseSample s = tracker.cut();
    s.ops += cyclic.adj.ids.size();
    out.steps.emplace_back("redistribute", s);
  }

  RelabeledSlice relabeled = [&] {
    obs::ScopedSpan span("degree_order", "pre");
    return config.degree_ordering ? degree_relabel(comm, cyclic)
                                  : identity_relabel(comm, cyclic);
  }();
  {
    PhaseSample s = tracker.cut();
    s.ops += relabeled.adj.ids.size();
    s.ops += relabeled.global_max_degree;
    out.steps.emplace_back("degree_order", s);
  }

  {
    obs::ScopedSpan span("scatter_2d", "pre");
    out.blocks = scatter_2d(grid, relabeled, config.enumeration);
  }
  {
    PhaseSample s = tracker.cut();
    s.ops += 2 * (out.blocks.ublock.num_entries() +
                  out.blocks.lblock.num_entries() +
                  out.blocks.tasks.num_entries());
    out.steps.emplace_back("scatter_2d", s);
  }
  out.new_ids = std::move(relabeled.new_ids);

  {
    obs::ScopedSpan span("edge_count", "pre");
    out.num_edges =
        mpisim::allreduce_sum(comm, out.blocks.ublock.num_entries());
  }
  {
    PhaseSample s = tracker.cut();
    out.steps.emplace_back("edge_count", s);
  }
  return out;
}

}  // namespace tricount::core
