// Rectangular-grid triangle counting via the SUMMA communication pattern —
// the extension the paper's conclusion sketches ("this work can be easily
// extended to deal with rectangular processor grids using the SUMMA
// algorithm").
//
// The grid is qr × qc (p = qr·qc, not necessarily square). The inner (k)
// dimension is split into K = lcm(qr, qc) cyclic panels:
//   U_{x,z}: rows j with j%qr == x, columns k with k%K == z,
//            owned by rank (x, z%qc);
//   L_{z,y}: rows i with i%qc == y, columns k with k%K == z,
//            owned by rank (z%qr, y);
//   tasks (j,i) at rank (j%qr, i%qc), as in the Cannon formulation.
// Step z broadcasts U_{x,z} along grid row x and L_{z,y} along grid
// column y, then every rank runs the same intersection kernel. On a
// square grid this is block-for-block the Cannon distribution, just with
// broadcasts instead of shifts.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "tricount/core/block_matrix.hpp"
#include "tricount/core/config.hpp"
#include "tricount/core/instrumentation.hpp"
#include "tricount/graph/edge_list.hpp"
#include "tricount/mpisim/comm.hpp"
#include "tricount/mpisim/fault.hpp"
#include "tricount/util/cost_model.hpp"

namespace tricount::core {

/// Where a SUMMA step's panels come from on one rank of a qr × qc grid:
/// U panel z is broadcast along the grid row by column (z − u_shift) mod
/// qc, which holds it as upanels[z / qc]; L panel z down the grid column
/// by row (z − l_shift) mod qr, as lpanels[z / qr].
struct PanelSchedule {
  std::span<const BlockCsr> upanels;
  std::span<const BlockCsr> lpanels;
  int u_shift = 0;
  int l_shift = 0;
};

/// One rank's share of a SUMMA count.
struct SummaSweep {
  graph::TriangleCount local = 0;  ///< this rank's tasks, pre-reduction
  KernelCounters kernel;
  std::vector<PhaseSample> steps;  ///< one `tracker` sample per panel step
};

/// Runs the K panel steps of a qr × qc grid on one rank: broadcast (with
/// Config::overlap, prefetch one step ahead) the step's panels, then
/// intersect `tasks` against them. Follows the chaos schedule like
/// cannon_count. The caller reduces `local`.
SummaSweep summa_sweep(mpisim::Comm& comm, int qr, int qc, int K,
                       const PanelSchedule& schedule, const BlockCsr& tasks,
                       const Config& config, PhaseTracker& tracker);

struct SummaOptions {
  int grid_rows = 2;
  int grid_cols = 2;
  Config config;
  util::AlphaBetaModel model;
  /// Fault injector for the run (chaos subsystem, docs/chaos.md); null
  /// keeps the fault-free fast path.
  std::shared_ptr<const mpisim::FaultInjector> chaos;
  /// Hang-watchdog budget forwarded to mpisim (0 = auto, <0 = off).
  double watchdog_seconds = 0.0;
};

struct SummaResult {
  graph::TriangleCount triangles = 0;
  int ranks = 0;
  int grid_rows = 0;
  int grid_cols = 0;
  int panels = 0;  ///< K = lcm(qr, qc)
  /// Modeled parallel times, same construction as RunResult's.
  double pre_modeled_seconds = 0.0;
  double tc_modeled_seconds = 0.0;
  KernelCounters kernel;  ///< summed over ranks
  /// True when a fault injector was installed for this run.
  bool chaos_enabled = false;
  /// Per-rank chaos tallies (all zero unless chaos_enabled).
  std::vector<mpisim::ChaosCounters> per_rank_chaos;

  mpisim::ChaosCounters total_chaos() const;

  double total_modeled_seconds() const {
    return pre_modeled_seconds + tc_modeled_seconds;
  }
};

/// Counts triangles on a qr × qc simulated grid.
SummaResult count_triangles_summa(const graph::EdgeList& graph,
                                  const SummaOptions& options);

}  // namespace tricount::core
