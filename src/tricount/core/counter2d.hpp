// The triangle counting phase (paper §5.1): √p compute steps interleaved
// with Cannon-pattern shifts of the U and L blocks, followed by a global
// reduction of the per-rank counts.
//
// At step s, rank (x,y) holds U_{x,z} and L_{z,y} with z = (x+y+s) mod q
// (Equation 6); blocks arrive pre-aligned from preprocessing. The compute
// step runs the map-based (or list-based) intersection kernel over the
// rank's task block; then U shifts one column left and L one row up.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "tricount/core/block_matrix.hpp"
#include "tricount/core/config.hpp"
#include "tricount/core/instrumentation.hpp"
#include "tricount/core/preprocess.hpp"
#include "tricount/graph/types.hpp"
#include "tricount/kernels/intersect.hpp"
#include "tricount/mpisim/cart2d.hpp"

namespace tricount::core {

using graph::TriangleCount;

/// What a Cannon sweep keeps besides the triangle total (docs/api.md).
/// kCount is the paper's counting phase. The other two modes credit every
/// closed triangle (j, i, k), in degree-ordered ids, to its three corners
/// (per-vertex counts, clustering) or to its three edges (k-truss support).
enum class Tally { kCount, kPerVertex, kEdgeSupport };

struct CountOutput {
  /// Triangles found by this rank's tasks (pre-reduction).
  TriangleCount local_triangles = 0;
  /// Global total (allreduce over ranks).
  TriangleCount total_triangles = 0;
  /// One sample per shift: the shift's compute plus its communication.
  std::vector<PhaseSample> shifts;
  KernelCounters kernel;
  /// Tally::kPerVertex: this rank's credits, indexed by degree-ordered id.
  std::vector<TriangleCount> vertex_credits;
  /// Tally::kEdgeSupport: this rank's credits per degree-ordered edge,
  /// keyed (lo << 32) | hi, one map per superstep (an edge may appear in
  /// several; the reduction sums them, so no superstep pays a merge).
  std::vector<std::unordered_map<std::uint64_t, TriangleCount>> edge_credits;
};

/// One compute step: intersects every task (r, e) in `tasks` against the
/// currently-held U and L blocks. For the ⟨j,i,k⟩ scheme r is the
/// higher-degree endpoint j (its U row gets hashed) and e is i (its L row
/// is looked up); for ⟨i,j,k⟩ the roles are r = i, e = j. The kernel each
/// task pair runs is chosen by `config.kernel` (docs/kernels.md). Exposed
/// separately for unit testing.
TriangleCount intersect_blocks(const BlockCsr& tasks, const BlockCsr& ublock,
                               const BlockCsr& lblock, const Config& config,
                               kernels::IntersectScratch& scratch,
                               KernelCounters& counters);

/// Runs the full counting phase. Consumes (shifts away) the U/L blocks.
/// kCount runs the kernel `config.kernel` selects per task; the crediting
/// tallies run the hash kernel, which yields each closing vertex.
/// `num_vertices` sizes the kPerVertex credits.
CountOutput cannon_count(mpisim::Cart2D& grid, Blocks blocks,
                         const Config& config, Tally tally = Tally::kCount,
                         VertexId num_vertices = 0);

}  // namespace tricount::core
