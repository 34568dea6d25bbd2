// The preprocessing pipeline of paper §5.3:
//   (i)   initial 1D cyclic redistribution (dist_graph.hpp),
//   (ii)  distributed counting sort into non-decreasing degree order and
//         relabeling of every adjacency list,
//   (iii) 2D cyclic scatter of U, L, and the task matrix onto the √p × √p
//         grid (directly into Cannon's aligned starting positions),
//   (iv)  per-block CSR construction with transformed indices, sorted
//         rows, and DCSR non-empty row lists.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "tricount/core/block_matrix.hpp"
#include "tricount/core/config.hpp"
#include "tricount/core/dist_graph.hpp"
#include "tricount/core/instrumentation.hpp"
#include "tricount/mpisim/cart2d.hpp"

namespace tricount::core {

/// Cyclic slice after degree relabeling. Indexing is unchanged (local k
/// still corresponds to *old* global id rank + k*p); `new_ids[k]` is the
/// vertex's position in the non-decreasing degree order, and `adj` is
/// already expressed in new ids.
struct RelabeledSlice {
  VertexId num_vertices = 0;
  int rank = 0;
  int p = 1;
  std::vector<VertexId> new_ids;
  std::vector<std::vector<VertexId>> adj;
  EdgeIndex global_max_degree = 0;
};

/// Step (ii): distributed counting sort + all-to-all neighbour relabel.
/// Tie-break within a degree: (owner rank, local index), which is a valid
/// (if different from the serial reference's by-id) stable order.
RelabeledSlice degree_relabel(mpisim::Comm& comm, const CyclicSlice& slice);

/// Identity relabel (new id == old id): the ablation path used when
/// Config::degree_ordering is off. Counts stay exact; the ordering's
/// performance benefits disappear.
RelabeledSlice identity_relabel(mpisim::Comm& comm, const CyclicSlice& slice);

/// The three blocks each rank owns during counting, already in Cannon's
/// aligned start position: U_{x,(x+y)%q}, L_{(x+y)%q,y}, and the task
/// block at (x,y).
struct Blocks {
  BlockCsr ublock;
  BlockCsr lblock;
  BlockCsr tasks;

  std::uint64_t heap_bytes() const {
    return ublock.heap_bytes() + lblock.heap_bytes() + tasks.heap_bytes();
  }
  void validate() const {
    ublock.validate();
    lblock.validate();
    tasks.validate();
  }
};

/// Steps (iii)+(iv): scatter entries per the 2D cyclic map and build the
/// block CSRs. The task matrix is built from L for the ⟨j,i,k⟩ scheme and
/// from U for ⟨i,j,k⟩ (§5.1 last paragraph).
Blocks scatter_2d(mpisim::Cart2D& grid, const RelabeledSlice& slice,
                  Enumeration enumeration);

struct PreprocessOutput {
  Blocks blocks;
  VertexId num_vertices = 0;
  EdgeIndex num_edges = 0;  ///< global undirected edge count
  /// new_ids[k] = degree-ordered id of input vertex rank + k·p.
  std::vector<VertexId> new_ids;
  /// Per-superstep measurements on this rank, in pipeline order.
  std::vector<std::pair<std::string, PhaseSample>> steps;
};

/// Runs the full pipeline on this rank's input slice.
PreprocessOutput preprocess(mpisim::Cart2D& grid, const LocalSlice& input,
                            const Config& config);

}  // namespace tricount::core
