// Shared infrastructure for the 1D-decomposition baselines the paper
// compares against (§4): a degree-ordered DAG ("Adj+" lists) distributed
// by 1D block over the reordered vertex ids, plus a small result type
// with the same modeled-time construction as the 2D algorithm's.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "tricount/core/dist_graph.hpp"
#include "tricount/core/instrumentation.hpp"
#include "tricount/graph/edge_list.hpp"
#include "tricount/util/cost_model.hpp"

namespace tricount::baselines {

using core::EdgeIndex;
using core::PhaseSample;
using core::VertexId;
using graph::TriangleCount;

/// 1D block distribution of the oriented (degree-ordered) graph: this
/// rank owns reordered vertices [begin, end) and, for each, the sorted
/// list of neighbours with higher degree order ("Adj+").
struct Dag1D {
  VertexId num_vertices = 0;
  VertexId begin = 0;
  VertexId end = 0;
  core::Adjacency adj_plus;

  VertexId owned() const { return end - begin; }
  std::span<const VertexId> plus(VertexId global) const {
    return adj_plus[global - begin];
  }
  bool owns(VertexId global) const { return global >= begin && global < end; }
};

/// Builds the distributed DAG from this rank's block input slice:
/// cyclic redistribution, distributed degree relabel (reusing the core
/// preprocessing), then routing each vertex's Adj+ list, the suffix of
/// its ascending relabeled row above it, to the block owner of its new id.
Dag1D build_dag_1d(mpisim::Comm& comm, const core::LocalSlice& input);

/// Result of a baseline run: triangles plus named per-rank phase samples
/// so benchmarks can model parallel time the same way as RunResult.
struct BaselineResult {
  TriangleCount triangles = 0;
  int ranks = 0;
  std::vector<std::string> phase_names;
  /// phase_samples[phase][rank]
  std::vector<std::vector<PhaseSample>> phase_samples;

  double phase_modeled_seconds(std::size_t phase,
                               const util::AlphaBetaModel& model) const;
  double total_modeled_seconds(const util::AlphaBetaModel& model) const;
  std::uint64_t total_bytes() const;
};

/// Helper used by the baseline drivers to assemble a BaselineResult from
/// per-rank recordings.
class PhaseRecorder {
 public:
  PhaseRecorder(int ranks, std::vector<std::string> names);

  /// Called by rank `rank` to store its sample for phase `phase`.
  void record(int rank, std::size_t phase, PhaseSample sample);
  BaselineResult finish(TriangleCount triangles) const;

 private:
  int ranks_;
  std::vector<std::string> names_;
  std::vector<std::vector<PhaseSample>> samples_;
};

}  // namespace tricount::baselines
