#include "tricount/core/preprocess.hpp"

#include <algorithm>
#include <stdexcept>

#include "tricount/mpisim/collectives.hpp"
#include "tricount/obs/trace.hpp"
#include "tricount/util/prefix.hpp"

namespace tricount::core {

RelabeledSlice degree_relabel(mpisim::Comm& comm, const CyclicSlice& slice) {
  const int p = slice.p;
  const auto pv = static_cast<VertexId>(p);

  // --- counting sort of the degree distribution (§5.4's two scans, a
  // max-reduction, and a d_max-long prefix over ranks) -------------------
  EdgeIndex local_max = 0;
  for (const auto& list : slice.adj) {
    local_max = std::max(local_max, static_cast<EdgeIndex>(list.size()));
  }
  const EdgeIndex dmax = mpisim::allreduce_max(comm, local_max);

  std::vector<std::uint64_t> histogram(static_cast<std::size_t>(dmax) + 1, 0);
  for (const auto& list : slice.adj) ++histogram[list.size()];

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
  out.new_ids.resize(slice.adj.size());
  {
    std::vector<std::uint64_t> within(static_cast<std::size_t>(dmax) + 1, 0);
    for (std::size_t k = 0; k < slice.adj.size(); ++k) {
      const std::size_t d = slice.adj[k].size();
      out.new_ids[k] =
          static_cast<VertexId>(global[d] + lower_counts[d] + within[d]++);
    }
  }

  // --- relabel neighbours: ask each owner for its vertices' new ids -----
  // (§5.3: "the position of the adjacent vertex is not locally available.
  // Thus, this requires us to perform a communication step with all
  // nodes.")
  std::vector<std::vector<VertexId>> requests(static_cast<std::size_t>(p));
  for (const auto& list : slice.adj) {
    for (const VertexId u : list) {
      requests[u % pv].push_back(u);
    }
  }
  for (auto& r : requests) {
    std::sort(r.begin(), r.end());
    r.erase(std::unique(r.begin(), r.end()), r.end());
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

  auto translate = [&](VertexId u) {
    const auto owner = static_cast<std::size_t>(u % pv);
    const auto& req = requests[owner];
    const auto it = std::lower_bound(req.begin(), req.end(), u);
    return responses[owner][static_cast<std::size_t>(it - req.begin())];
  };

  out.adj.resize(slice.adj.size());
  for (std::size_t k = 0; k < slice.adj.size(); ++k) {
    out.adj[k].reserve(slice.adj[k].size());
    for (const VertexId u : slice.adj[k]) {
      out.adj[k].push_back(translate(u));
    }
  }
  return out;
}

RelabeledSlice identity_relabel(mpisim::Comm& comm,
                                const CyclicSlice& slice) {
  RelabeledSlice out;
  out.num_vertices = slice.num_vertices;
  out.rank = slice.rank;
  out.p = slice.p;
  out.new_ids.resize(slice.adj.size());
  for (std::size_t k = 0; k < slice.adj.size(); ++k) {
    out.new_ids[k] = slice.global_id(static_cast<VertexId>(k));
  }
  out.adj = slice.adj;
  EdgeIndex local_max = 0;
  for (const auto& list : slice.adj) {
    local_max = std::max(local_max, static_cast<EdgeIndex>(list.size()));
  }
  out.global_max_degree = mpisim::allreduce_max(comm, local_max);
  return out;
}

Blocks scatter_2d(mpisim::Cart2D& grid, const RelabeledSlice& slice,
                  Enumeration enumeration) {
  mpisim::Comm& comm = grid.comm();
  const int q = grid.q();
  const auto qv = static_cast<VertexId>(q);
  const std::size_t p = static_cast<std::size_t>(comm.size());

  std::vector<std::vector<LocalEntry>> u_out(p);
  std::vector<std::vector<LocalEntry>> l_out(p);
  std::vector<std::vector<LocalEntry>> t_out(p);

  for (std::size_t k = 0; k < slice.adj.size(); ++k) {
    const VertexId w = slice.new_ids[k];
    const int wx = static_cast<int>(w % qv);
    const VertexId wloc = w / qv;
    for (const VertexId u : slice.adj[k]) {
      const int ux = static_cast<int>(u % qv);
      const VertexId uloc = u / qv;
      if (u > w) {
        // After degree ordering, id order IS degree order (§5.3), so u > w
        // places u in w's upper-triangle adjacency.
        //
        // U_{x,z} entry (row w, col u), x = w%q, z = u%q. Sent directly to
        // Cannon's aligned start: U_{x,z} begins at rank (x, (z-x) mod q).
        const int u_dest = grid.rank_of(wx, (ux - wx + q) % q);
        u_out[static_cast<std::size_t>(u_dest)].push_back(LocalEntry{wloc, uloc});
        // L_{z,y} entry (stored column-major: row w, col u), z = u%q,
        // y = w%q. Aligned start: rank ((z-y) mod q, y).
        const int l_dest = grid.rank_of((ux - wx + q) % q, wx);
        l_out[static_cast<std::size_t>(l_dest)].push_back(LocalEntry{wloc, uloc});
        if (enumeration == Enumeration::kIJK) {
          // Task (i=w, j=u) from the non-zeros of U -> rank (w%q, u%q).
          const int t_dest = grid.rank_of(wx, ux);
          t_out[static_cast<std::size_t>(t_dest)].push_back(LocalEntry{wloc, uloc});
        }
      } else if (u < w) {
        if (enumeration == Enumeration::kJIK) {
          // Task (j=w, i=u) from the non-zeros of L -> rank (w%q, u%q).
          const int t_dest = grid.rank_of(wx, ux);
          t_out[static_cast<std::size_t>(t_dest)].push_back(LocalEntry{wloc, uloc});
        }
      }
      // u == w cannot happen: new ids form a permutation and self-loops
      // were removed at ingestion.
    }
  }

  auto u_in = mpisim::alltoallv(comm, u_out);
  auto l_in = mpisim::alltoallv(comm, l_out);
  auto t_in = mpisim::alltoallv(comm, t_out);

  auto flatten = [](std::vector<std::vector<LocalEntry>> buckets) {
    std::vector<LocalEntry> flat;
    std::size_t total = 0;
    for (const auto& b : buckets) total += b.size();
    flat.reserve(total);
    for (auto& b : buckets) {
      flat.insert(flat.end(), b.begin(), b.end());
    }
    return flat;
  };

  Blocks blocks;
  const VertexId u_rows = cyclic_row_count(slice.num_vertices, q, grid.row());
  const VertexId l_rows = cyclic_row_count(slice.num_vertices, q, grid.col());
  blocks.ublock = BlockCsr::from_entries(u_rows, flatten(std::move(u_in)));
  blocks.lblock = BlockCsr::from_entries(l_rows, flatten(std::move(l_in)));
  blocks.tasks = BlockCsr::from_entries(u_rows, flatten(std::move(t_in)));
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
    for (const auto& list : cyclic.adj) s.ops += list.size();
    out.steps.emplace_back("redistribute", s);
  }

  RelabeledSlice relabeled = [&] {
    obs::ScopedSpan span("degree_order", "pre");
    return config.degree_ordering ? degree_relabel(comm, cyclic)
                                  : identity_relabel(comm, cyclic);
  }();
  {
    PhaseSample s = tracker.cut();
    for (const auto& list : relabeled.adj) s.ops += list.size();
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
