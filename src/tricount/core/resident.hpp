// Resident-partition entry points: the driver's preprocess and counting
// phases split into separately callable halves over a PersistentWorld
// (docs/service.md).
//
// count_triangles_2d pays graph slicing + the full §5.3 preprocessing
// pipeline on every call. A long-lived service amortizes that: run
// preprocess_resident once, keep the per-rank Cannon-aligned blocks in a
// ResidentPartition, then answer each query with count_resident — only
// the √p counting supersteps, on blocks copied from the resident set
// (cannon_count shifts its blocks away, so the originals stay intact for
// the next query). The same blocks serve the per-vertex and edge-support
// tallies and, through SUMMA's broadcast schedule, count_resident_summa.
#pragma once

#include <vector>

#include "tricount/core/driver.hpp"
#include "tricount/core/preprocess.hpp"
#include "tricount/graph/edge_list.hpp"
#include "tricount/mpisim/runtime.hpp"

namespace tricount::core {

/// Everything one preprocessing pass produced, kept alive across queries:
/// the per-rank U/L/task blocks in Cannon's aligned start positions plus
/// the run metadata a served RunResult needs.
struct ResidentPartition {
  int ranks = 0;
  int grid_q = 0;
  VertexId num_vertices = 0;
  EdgeIndex num_edges = 0;
  /// The config the partition was built with. The enumeration scheme is
  /// baked into the task matrix (built from L for ⟨j,i,k⟩, from U for
  /// ⟨i,j,k⟩), so count_resident always counts under this enumeration;
  /// kernel-phase knobs may vary per query.
  Config config;
  util::AlphaBetaModel model;
  /// blocks[r] = rank r's aligned blocks; copied per counting sweep.
  std::vector<Blocks> blocks;
  /// old_ids[r][k] = input id of degree-ordered vertex r + k·p: the map
  /// the crediting tallies translate back through.
  std::vector<std::vector<VertexId>> old_ids;

  /// Approximate resident footprint of all ranks' blocks.
  std::uint64_t resident_bytes() const;
};

/// Runs the §5.3 preprocessing pipeline once on `world` (a perfect-square
/// persistent world) and returns the resident partition. The graph must
/// be simplified.
ResidentPartition preprocess_resident(mpisim::PersistentWorld& world,
                                      const graph::EdgeList& graph,
                                      const RunOptions& options = {});

/// Runs only the counting supersteps on the resident partition and
/// assembles a RunResult (empty preprocessing phase; traffic counters are
/// this job's delta). `config`'s kernel-phase knobs (kernel, overlap,
/// §5.2 switches) are honored; its enumeration is overridden by the
/// partition's. `world` must have the rank count `partition` was built
/// for; any such world will do, the one it was built on or a new one.
/// A crediting `tally` also fills RunResult::vertex_triangles
/// (kPerVertex) or RunResult::edge_supports (kEdgeSupport, aligned with
/// `simplified`, the graph the partition was built from).
RunResult count_resident(mpisim::PersistentWorld& world,
                         const ResidentPartition& partition, Config config,
                         Tally tally = Tally::kCount,
                         const graph::EdgeList* simplified = nullptr);

/// Square-grid SUMMA over the resident Cannon blocks: at step z the U
/// root of grid row x is column (z−x) mod q and the L root of grid
/// column y is row (z−y) mod q (summa2d.cpp).
RunResult count_resident_summa(mpisim::PersistentWorld& world,
                               const ResidentPartition& partition,
                               Config config);

}  // namespace tricount::core
