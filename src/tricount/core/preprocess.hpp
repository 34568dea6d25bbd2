// The preprocessing pipeline of paper §5.3:
//   (i)   initial 1D cyclic redistribution (dist_graph.hpp),
//   (ii)  distributed counting sort into non-decreasing degree order and
//         relabeling of every adjacency list,
//   (iii) 2D cyclic scatter of U, L, and the task matrix onto the √p × √p
//         grid (directly into Cannon's aligned starting positions),
//   (iv)  per-block CSR construction with transformed indices, sorted
//         rows, and DCSR non-empty row lists.
// Each stage frees what it consumed once its output is routed, so a rank
// holds an entry in one buffer at a time.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "tricount/core/block_matrix.hpp"
#include "tricount/core/config.hpp"
#include "tricount/core/dist_graph.hpp"
#include "tricount/core/instrumentation.hpp"
#include "tricount/mpisim/cart2d.hpp"
#include "tricount/mpisim/collectives.hpp"

namespace tricount::core {

/// Cyclic slice after degree relabeling. Indexing is unchanged (local k
/// still corresponds to *old* global id rank + k*p); `new_ids[k]` is the
/// vertex's position in the non-decreasing degree order, and `adj` is
/// already expressed in new ids. Postcondition of both relabels: every
/// row of `adj` strictly ascends in new ids, so the 2D blocks and every
/// Adj+ (a row's suffix above its vertex) take the rows without sorting.
struct RelabeledSlice {
  VertexId num_vertices = 0;
  int rank = 0;
  int p = 1;
  std::vector<VertexId> new_ids;
  Adjacency adj;
  EdgeIndex global_max_degree = 0;
};

/// Step (ii): distributed counting sort + all-to-all neighbour relabel,
/// then one counting sort over new ids that leaves every row ascending.
/// Tie-break within a degree: (owner rank, local index), which is a valid
/// (if different from the serial reference's by-id) stable order. Throws
/// std::out_of_range for a neighbour id >= slice.num_vertices.
RelabeledSlice degree_relabel(mpisim::Comm& comm, const CyclicSlice& slice);

/// Identity relabel (new id == old id): the ablation path used when
/// Config::degree_ordering is off. Counts stay exact; the ordering's
/// performance benefits disappear.
RelabeledSlice identity_relabel(mpisim::Comm& comm, const CyclicSlice& slice);

/// Steps (i) and (ii) on this rank, as `tracker`'s pre steps
/// `redistribute`, then `degree_order` (degree_relabel, or
/// identity_relabel when Config::degree_ordering is off). The block slice
/// is freed once cyclic_redistribute has routed it, and the cyclic slice
/// once it is relabeled. The Cannon and SUMMA pipelines both start with
/// these.
RelabeledSlice redistribute_and_order(mpisim::Comm& comm, LocalSlice input,
                                      const Config& config,
                                      PhaseTracker& tracker);

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

/// The block a scattered entry belongs to, in Blocks' member order.
enum class Part { kU, kL, kTasks };

/// The 2D cyclic map of step (iii) on a q × q grid for one adjacency
/// entry w → u, in degree-ordered ids (every undirected edge is visited
/// from both ends). Calls place(part, rank, entry) for each block entry
/// it yields, at Cannon's aligned start: from the upper triangle (u > w)
/// the U_{x,z} entry at rank (x, (z−x) mod q) and the L_{z,y} entry at
/// rank ((z−y) mod q, y), stored as (row w, col u); and the task entry at
/// rank (w%q, u%q), taken from L for ⟨j,i,k⟩ (u < w) and from U for
/// ⟨i,j,k⟩ (u > w), §5.1 last paragraph. Grid rank (x, y) is x·q + y, as
/// in mpisim::Cart2D; q is a value so that the scatter loop can hoist
/// w's share of the arithmetic.
template <typename Place>
void place_2d(int q, VertexId w, VertexId u, Enumeration enumeration,
              Place&& place) {
  const auto qv = static_cast<VertexId>(q);
  const int wx = static_cast<int>(w % qv);
  const int ux = static_cast<int>(u % qv);
  const LocalEntry entry{w / qv, u / qv};
  if (u > w) {
    // After degree ordering, id order IS degree order (§5.3), so u > w
    // places u in w's upper-triangle adjacency.
    const int z = (ux - wx + q) % q;
    place(Part::kU, wx * q + z, entry);
    place(Part::kL, z * q + wx, entry);
  }
  if ((u > w) == (enumeration == Enumeration::kIJK)) {
    place(Part::kTasks, wx * q + ux, entry);
  }
}

/// The exchange both grid scatters make (scatter_2d, and SUMMA's panel
/// scatter). A count pass sizes every (part, rank) bucket exactly, then a
/// fill pass writes the entries: walk(place) must call place(part, rank,
/// entry) for the same entries in the same order both times. The U, L and
/// task buckets then go out in that order, by one alltoallv each, with
/// one part in flight: a part's send buckets are freed when its alltoallv
/// returns, and its received buckets once build(part, received) returns.
template <typename Entry, typename Walk, typename Build>
void scatter_parts(mpisim::Comm& comm, Walk&& walk, Build&& build) {
  const auto p = static_cast<std::size_t>(comm.size());
  std::array<std::vector<std::vector<Entry>>, 3> out;
  std::vector<std::size_t> sizes(out.size() * p, 0);
  walk([&](Part part, int rank, const Entry&) {
    ++sizes[static_cast<std::size_t>(part) * p +
            static_cast<std::size_t>(rank)];
  });
  for (std::size_t part = 0; part < out.size(); ++part) {
    out[part].resize(p);
    for (std::size_t r = 0; r < p; ++r) {
      out[part][r].reserve(sizes[part * p + r]);
    }
  }
  walk([&](Part part, int rank, const Entry& entry) {
    out[static_cast<std::size_t>(part)][static_cast<std::size_t>(rank)]
        .push_back(entry);
  });
  for (const Part part : {Part::kU, Part::kL, Part::kTasks}) {
    const auto received = [&] {
      const auto sent = std::move(out[static_cast<std::size_t>(part)]);
      return mpisim::alltoallv(comm, sent);
    }();
    build(part, received);
  }
}

/// Steps (iii)+(iv): scatter entries per the 2D cyclic map (place_2d)
/// through scatter_parts and build each block CSR as its part arrives. A
/// block row holds one vertex w's entries, all sent by the one rank
/// holding w, and that rank walks w's ascending row, so every block row
/// arrives as one ascending run, kept as is.
Blocks scatter_2d(mpisim::Cart2D& grid, const RelabeledSlice& slice,
                  Enumeration enumeration);

struct PreprocessOutput {
  Blocks blocks;
  VertexId num_vertices = 0;
  EdgeIndex num_edges = 0;  ///< global undirected edge count
  /// new_ids[k] = degree-ordered id of input vertex rank + k·p.
  std::vector<VertexId> new_ids;
  /// Per-superstep measurements on this rank, in pipeline order.
  StepSamples steps;
};

/// Runs the full pipeline on this rank's input slice, which is freed once
/// it is redistributed.
PreprocessOutput preprocess(mpisim::Cart2D& grid, LocalSlice input,
                            const Config& config);

}  // namespace tricount::core
