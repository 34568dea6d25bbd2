// Public entry points: run the full distributed pipeline (input slice ->
// preprocessing -> Cannon counting -> reduction) on a simulated world of
// p ranks and return the count plus every measurement the evaluation
// section needs.
//
// This is the API the examples and benchmarks use:
//
//   auto result = tricount::core::count_triangles_2d(graph, /*ranks=*/16);
//   std::cout << result.triangles << "\n";
//   std::cout << result.total_modeled_seconds() << "\n";
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tricount/core/config.hpp"
#include "tricount/core/counter2d.hpp"
#include "tricount/core/instrumentation.hpp"
#include "tricount/graph/edge_list.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/mpisim/fault.hpp"
#include "tricount/mpisim/runtime.hpp"
#include "tricount/util/cost_model.hpp"

namespace tricount::core {

struct RunOptions {
  Config config;
  util::AlphaBetaModel model;
  /// Check block structural invariants after preprocessing (tests).
  bool validate_blocks = false;
  /// Fault injector for the run (chaos subsystem, docs/chaos.md); null
  /// keeps the fault-free fast path bit-identical to pre-chaos builds.
  std::shared_ptr<const mpisim::FaultInjector> chaos;
  /// Hang-watchdog budget forwarded to mpisim (0 = auto, <0 = off).
  double watchdog_seconds = 0.0;
};

/// The world a run's options ask for: their fault plan and watchdog
/// budget. Every library call that builds its own world builds it from
/// these (RunOptions and SummaOptions alike).
template <class Options>
mpisim::WorldOptions world_options(const Options& options) {
  return {options.chaos.get(), options.watchdog_seconds};
}

/// One rank's CETRIC tallies (src/tricount/cetric/, docs/cetric.md):
/// the local-vs-cut triangle classification plus the cut-wedge and
/// ghost-exchange traffic the communication-avoiding claims rest on.
struct CetricRankCounters {
  std::uint64_t local_triangles = 0;
  std::uint64_t cut_triangles = 0;
  std::uint64_t cut_wedges_sent = 0;
  std::uint64_t cut_wedge_messages_sent = 0;
  std::uint64_t cut_wedge_bytes_sent = 0;
  std::uint64_t ghost_lists_fetched = 0;
  std::uint64_t ghost_list_entries = 0;

  bool operator==(const CetricRankCounters&) const = default;
};

struct RunResult {
  graph::TriangleCount triangles = 0;
  int ranks = 0;
  /// Cannon/SUMMA grid edge; 0 for 1D-partitioned algorithms (cetric).
  int grid_q = 0;
  VertexId num_vertices = 0;
  EdgeIndex num_edges = 0;
  util::AlphaBetaModel model;
  /// Preprocessing superstep names, in pipeline order (same on all ranks).
  std::vector<std::string> step_names;
  std::vector<RankStats> per_rank;
  /// Whole-run traffic counters per rank (totals + collective split).
  std::vector<mpisim::PerfCounters> per_rank_counters;
  /// The p×p (source, dest) traffic matrix recorded by mpisim.
  mpisim::CommMatrix comm_matrix;
  /// True when a fault injector was installed for this run.
  bool chaos_enabled = false;
  /// True when the run used comm/compute overlap (Config::overlap); the
  /// overlap metrics block is emitted only in this case so overlap-off
  /// artifacts stay byte-identical to pre-overlap builds.
  bool overlap_enabled = false;
  /// Per-rank chaos tallies (all zero unless chaos_enabled).
  std::vector<mpisim::ChaosCounters> per_rank_chaos;
  /// Which counting algorithm produced this result ("2d", "cetric", or
  /// "summa" for a SUMMA sweep over resident blocks).
  /// Artifacts serialize the key only when it differs from "2d", so
  /// pre-cetric baselines stay byte-identical.
  std::string algorithm = "2d";
  /// Per-rank CETRIC tallies (empty unless algorithm == "cetric").
  std::vector<CetricRankCounters> per_rank_cetric;
  /// Tally::kPerVertex: triangles containing each vertex, in input ids.
  std::vector<graph::TriangleCount> vertex_triangles;
  /// Tally::kEdgeSupport: triangles containing each edge, aligned with the
  /// simplified input's edge order.
  std::vector<graph::TriangleCount> edge_supports;

  mpisim::ChaosCounters total_chaos() const;
  CetricRankCounters total_cetric() const;
  /// Moves in a world's traffic counters, comm matrix and chaos tallies.
  void take(mpisim::WorldReport report);

  // --- derived metrics (see instrumentation.hpp for the model) ----------

  /// Per-rank samples of one preprocessing superstep / one shift.
  std::vector<PhaseSample> step_samples(std::size_t step_index) const;
  std::vector<PhaseSample> shift_samples(std::size_t shift_index) const;
  std::size_t num_shifts() const;

  /// Modeled parallel times (the reproduction's analogue of the paper's
  /// ppt / tct / overall columns).
  double pre_modeled_seconds() const;
  double tc_modeled_seconds() const;
  double total_modeled_seconds() const { return pre_modeled_seconds() + tc_modeled_seconds(); }

  /// Modeled communication-only time per phase (Figure 3).
  double pre_modeled_comm_seconds() const;
  double tc_modeled_comm_seconds() const;

  /// Total abstract operations per phase (Figure 2).
  std::uint64_t pre_ops() const;
  std::uint64_t tc_ops() const;

  /// Kernel counters summed over ranks (Table 4, §7.1 probes).
  KernelCounters total_kernel() const;

  /// Max/avg compute seconds of shift `i` across ranks (Table 3).
  double shift_max_compute(std::size_t shift_index) const;
  double shift_avg_compute(std::size_t shift_index) const;
};

/// Counts triangles of a replicated, simplified edge list on a simulated
/// world of `ranks` ranks (must be a perfect square).
RunResult count_triangles_2d(const graph::EdgeList& graph, int ranks,
                             const RunOptions& options = {});

/// Same, from a prebuilt symmetric CSR — cheaper input slicing when the
/// same graph is swept over many grid sizes (the bench harness path).
RunResult count_triangles_2d(const graph::Csr& csr, int ranks,
                             const RunOptions& options = {});

/// Same, but the graph is RMAT-generated inside the run, distributed, as
/// in the paper's synthetic-dataset experiments.
RunResult count_triangles_2d_rmat(const graph::RmatParams& params, int ranks,
                                  const RunOptions& options = {});

}  // namespace tricount::core
