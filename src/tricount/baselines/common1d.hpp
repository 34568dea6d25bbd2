// Shared infrastructure for the 1D-decomposition baselines the paper
// compares against (§4): a degree-ordered DAG ("Adj+" lists) distributed
// by 1D block over the reordered vertex ids, and the run every baseline
// makes, which returns the same core::RunResult as the 2D algorithm.
#pragma once

#include <functional>
#include <span>

#include "tricount/core/dist_graph.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/core/instrumentation.hpp"
#include "tricount/graph/edge_list.hpp"
#include "tricount/util/cost_model.hpp"

namespace tricount::baselines {

using core::EdgeIndex;
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
/// The slice is freed once cyclic_redistribute has routed it.
Dag1D build_dag_1d(mpisim::Comm& comm, core::LocalSlice input);

/// One rank of a baseline: marks its steps on `tracker`, each earlier
/// phase a pre step and its last phase the one counting superstep, and
/// returns the world's triangle total. It sets `stats.kernel` when it
/// counts through the kernel layer.
using RankCount = std::function<TriangleCount(
    mpisim::Comm& comm, core::LocalSlice input, core::PhaseTracker& tracker,
    core::RankStats& stats)>;

/// Runs a baseline on a world of `ranks`. Each rank first takes its block
/// slice of `graph` under a `slice` span, outside every step, then runs
/// `count` on it. The result is algorithm `algorithm` with grid_q 0, and
/// carries the world's report.
core::RunResult run_baseline(const char* algorithm,
                             const graph::EdgeList& graph, int ranks,
                             const util::AlphaBetaModel& model,
                             const RankCount& count);

}  // namespace tricount::baselines
