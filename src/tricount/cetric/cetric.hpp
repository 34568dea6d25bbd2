// CETRIC-style communication-avoiding distributed triangle counting
// (Sanders & Uhl, "Engineering a Distributed-Memory Triangle Counting
// Algorithm" — see PAPERS.md and docs/cetric.md).
//
// The counter runs on the degree-aware contiguous 1D partition of
// partition.hpp and classifies every triangle at its lowest-id vertex u:
//
//   * local  — the wedge (u; v, tail) closes against an Adj+ list this
//     rank holds (v owned, or Adj+(v) pulled once as ghost data). These
//     triangles cost ZERO point-to-point messages.
//   * cut    — the wedge ships to owner(v), the rank holding the
//     degree-ordered closing edge (low -> high endpoint), which is the
//     cheaper endpoint to resolve at: only the tail (candidates > v)
//     travels, never the full row.
//
// All point-to-point (user-tagged) traffic of a cetric run is therefore
// cut-wedge traffic — the property the lint reconciliation and the
// comm-volume comparison against the 2D algorithm are built on.
//
// Returns the same core::RunResult as the 2D pipeline (with
// `algorithm == "cetric"`, grid_q == 0, and per-rank CetricRankCounters
// filled in), so artifacts, the analyzer, the perf gate, and the CLI
// reuse every existing seam.
#pragma once

#include <cstdint>
#include <vector>

#include "tricount/cetric/partition.hpp"
#include "tricount/core/adjacency.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/mpisim/runtime.hpp"

namespace tricount::cetric {

/// One rank's cetric state between counts: its share of the degree-ordered
/// DAG plus the Adj+ rows it pulled as ghosts, in the same flat layout.
struct RankPartition {
  CetricGraph graph;
  core::GhostRows ghosts;
  /// The ghost exchange's tallies (only the ghost_* fields are set).
  core::CetricRankCounters ghost_counters;

  /// The arrays' footprint (owned and ghost rows, the replicated deg+ and
  /// the boundaries), not an exact allocator tally.
  std::uint64_t heap_bytes() const;
};

/// The output of the "partition" and "ghost" pre-supersteps on every
/// rank, kept resident next to the 2D partition (docs/service.md).
struct ResidentCetric {
  util::AlphaBetaModel model;
  std::vector<RankPartition> per_rank;

  /// Sum of every rank's heap_bytes(); 0 before the first build.
  std::uint64_t resident_bytes() const;
};

/// Runs the two pre-supersteps once on `world` (any size) over a
/// simplified graph.
ResidentCetric preprocess_resident(mpisim::PersistentWorld& world,
                                   const graph::EdgeList& graph,
                                   const core::RunOptions& options = {});

/// Runs only the local and cut supersteps on the resident partition
/// (empty preprocessing phase; traffic counters are this job's delta).
/// `world` must have the rank count `resident` was built for.
core::RunResult count_resident(mpisim::PersistentWorld& world,
                               const ResidentCetric& resident,
                               const core::Config& config);

/// Counts triangles of a replicated, simplified edge list on a
/// simulated world of `ranks` ranks (any positive count — no
/// perfect-square constraint): both pre-supersteps, then both counting
/// supersteps, in one world. `options.config.overlap` is ignored: the
/// local superstep has no communication to overlap with, and the cut
/// exchange already posts every send before the first receive.
core::RunResult count_triangles_cetric(const graph::EdgeList& graph,
                                       int ranks,
                                       const core::RunOptions& options = {});

/// Same, from a prebuilt symmetric CSR (the bench harness path).
core::RunResult count_triangles_cetric(const graph::Csr& csr, int ranks,
                                       const core::RunOptions& options = {});

}  // namespace tricount::cetric
