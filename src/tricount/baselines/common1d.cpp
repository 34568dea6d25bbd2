#include "tricount/baselines/common1d.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "tricount/core/preprocess.hpp"
#include "tricount/mpisim/collectives.hpp"
#include "tricount/mpisim/runtime.hpp"
#include "tricount/obs/flight.hpp"

namespace tricount::baselines {

Dag1D build_dag_1d(mpisim::Comm& comm, core::LocalSlice input) {
  const int p = comm.size();
  const VertexId n = input.num_vertices;

  const core::RelabeledSlice relabeled = [&] {
    const core::CyclicSlice cyclic = core::cyclic_redistribute(comm, input);
    input = core::LocalSlice{};
    return core::degree_relabel(comm, cyclic);
  }();

  // Route (new id, Adj+ in new ids) to the block owner of the new id.
  std::vector<std::vector<VertexId>> outgoing(static_cast<std::size_t>(p));
  for (std::size_t k = 0; k < relabeled.adj.size(); ++k) {
    const VertexId w = relabeled.new_ids[k];
    const auto row = relabeled.adj[k];
    const auto above = std::upper_bound(row.begin(), row.end(), w);
    core::append_record(
        outgoing[static_cast<std::size_t>(core::block_owner(w, n, p))], w,
        {above, row.end()});
  }
  const auto incoming = mpisim::alltoallv(comm, outgoing);

  Dag1D dag;
  dag.num_vertices = n;
  std::tie(dag.begin, dag.end) = core::block_range(n, comm.rank(), p);
  const VertexId owned = dag.owned();
  dag.adj_plus = core::unpack_records(
      owned, incoming, "build_dag_1d", [&](VertexId w, VertexId) {
        return dag.owns(w) ? w - dag.begin : owned;
      });
  return dag;
}

core::RunResult run_baseline(const char* algorithm,
                             const graph::EdgeList& graph, int ranks,
                             const util::AlphaBetaModel& model,
                             const RankCount& count) {
  if (ranks < 1) {
    throw std::invalid_argument("baselines: rank count must be positive");
  }
  core::RunResult result;
  result.algorithm = algorithm;
  result.ranks = ranks;
  result.num_vertices = graph.num_vertices;
  result.model = model;
  result.per_rank.assign(static_cast<std::size_t>(ranks), core::RankStats{});
  // Each rank's slice holds its rows' entries, every undirected edge once
  // from each end; summing them here adds no traffic to any step.
  std::vector<EdgeIndex> entries(static_cast<std::size_t>(ranks), 0);

  result.take(mpisim::run_world(ranks, [&](mpisim::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    core::LocalSlice input = [&] {
      obs::ScopedSpan span("slice", "pre");
      return core::block_slice_from_edges(graph, comm.rank(), comm.size());
    }();
    entries[rank] = input.adj.ids.size();
    core::RankStats& stats = result.per_rank[rank];
    core::PhaseTracker tracker(comm, stats);
    const TriangleCount total = count(comm, std::move(input), tracker, stats);
    tracker.end_sweep();
    if (rank == 0) result.triangles = total;
  }));
  result.num_edges =
      std::accumulate(entries.begin(), entries.end(), EdgeIndex{0}) / 2;
  return result;
}

}  // namespace tricount::baselines
