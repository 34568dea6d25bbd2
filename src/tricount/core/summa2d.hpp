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

#include <span>
#include <vector>

#include "tricount/core/block_matrix.hpp"
#include "tricount/core/config.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/core/instrumentation.hpp"
#include "tricount/graph/edge_list.hpp"
#include "tricount/mpisim/comm.hpp"

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

/// Runs the K panel steps of a qr × qc grid on one rank, each one of
/// `tracker`'s counting supersteps: broadcast (with Config::overlap,
/// prefetch one step ahead) the step's panels, then intersect `tasks`
/// against them. Follows the chaos schedule like cannon_count. Returns
/// what the steps add on this rank; the caller reduces its triangles.
StepCount summa_sweep(mpisim::Comm& comm, int qr, int qc, int K,
                      const PanelSchedule& schedule, const BlockCsr& tasks,
                      const Config& config, PhaseTracker& tracker);

/// A SUMMA run's options: every RunOptions field, honoured as by
/// count_triangles_2d (validate_blocks checks the panels and the task
/// block), plus the grid.
struct SummaOptions : RunOptions {
  int grid_rows = 2;
  int grid_cols = 2;
};

/// Counts triangles on a qr × qc simulated grid. The result's algorithm
/// is "summa", its grid_q the edge of a square grid (0 on a rectangular
/// one), its preprocessing steps `redistribute`, `degree_order` and
/// `scatter_summa`, and its counting supersteps the K = lcm(qr, qc) panel
/// steps.
RunResult count_triangles_summa(const graph::EdgeList& graph,
                                const SummaOptions& options);

}  // namespace tricount::core
