#include "tricount/baselines/common1d.hpp"

#include <algorithm>

#include "tricount/core/preprocess.hpp"
#include "tricount/mpisim/collectives.hpp"

namespace tricount::baselines {

Dag1D build_dag_1d(mpisim::Comm& comm, const core::LocalSlice& input) {
  const int p = comm.size();
  const VertexId n = input.num_vertices;

  const core::RelabeledSlice relabeled =
      core::degree_relabel(comm, core::cyclic_redistribute(comm, input));

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

double BaselineResult::phase_modeled_seconds(
    std::size_t phase, const util::AlphaBetaModel& model) const {
  return core::breakdown(phase_samples.at(phase)).modeled_seconds(model);
}

double BaselineResult::total_modeled_seconds(
    const util::AlphaBetaModel& model) const {
  double total = 0.0;
  for (std::size_t i = 0; i < phase_samples.size(); ++i) {
    total += phase_modeled_seconds(i, model);
  }
  return total;
}

std::uint64_t BaselineResult::total_bytes() const {
  std::uint64_t bytes = 0;
  for (const auto& per_rank : phase_samples) {
    for (const PhaseSample& s : per_rank) bytes += s.bytes;
  }
  return bytes;
}

PhaseRecorder::PhaseRecorder(int ranks, std::vector<std::string> names)
    : ranks_(ranks), names_(std::move(names)) {
  samples_.assign(names_.size(),
                  std::vector<PhaseSample>(static_cast<std::size_t>(ranks)));
}

void PhaseRecorder::record(int rank, std::size_t phase, PhaseSample sample) {
  samples_.at(phase).at(static_cast<std::size_t>(rank)) = sample;
}

BaselineResult PhaseRecorder::finish(TriangleCount triangles) const {
  BaselineResult result;
  result.triangles = triangles;
  result.ranks = ranks_;
  result.phase_names = names_;
  result.phase_samples = samples_;
  return result;
}

}  // namespace tricount::baselines
