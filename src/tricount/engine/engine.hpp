// One resident engine (docs/service.md): every served verb is a Plan run
// on a PersistentWorld against one graph version's Resident state, so a
// request pays only counting — never the preprocessing the paper times
// separately (ppt). The 2D partition (Cannon-aligned blocks plus the id
// map) serves Cannon counts, the per-vertex and edge-support tallies and
// square-grid SUMMA; the cetric partition is built by the first cetric
// plan. reset() (graph.load / graph.swap) drops both pieces, update()
// (graph.apply) marks them stale, and the next plan that needs a piece
// rebuilds it.
#pragma once

#include <cstdint>
#include <utility>

#include "tricount/cetric/cetric.hpp"
#include "tricount/core/resident.hpp"

namespace tricount::engine {

enum class Algo {
  kCannon,  ///< √p Cannon shifts over the 2D partition
  kSumma,   ///< √p SUMMA broadcasts over the same blocks
  kCetric,  ///< local + cut supersteps over the cetric partition
};

struct Plan {
  Algo algo = Algo::kCannon;
  core::Tally tally = core::Tally::kCount;  ///< kCannon only
  /// Kernel-phase knobs; the enumeration is the partition's.
  core::Config config;
};

/// One graph version's resident state, driven by one owner thread.
class Resident {
 public:
  /// `config` and `model` configure every build (enumeration, degree
  /// order, cost model).
  Resident(const core::Config& config, const util::AlphaBetaModel& model) {
    options_.config = config;
    options_.model = model;
  }

  void reset(graph::EdgeList simplified);
  void update(graph::EdgeList simplified);

  bool loaded() const { return loaded_; }
  const graph::EdgeList& graph() const { return graph_; }
  /// The piece a plan runs on, (re)built first when missing or stale.
  const core::ResidentPartition& grid(mpisim::PersistentWorld& world);
  const cetric::ResidentCetric& cetric(mpisim::PersistentWorld& world);

  /// Builds so far of the 2D piece (kCannon, kSumma) or the cetric one.
  std::uint64_t builds(Algo piece) const {
    return piece == Algo::kCetric ? cetric_builds_ : grid_builds_;
  }
  std::uint64_t grid_bytes() const { return grid_.resident_bytes(); }

 private:
  core::RunOptions options_;
  graph::EdgeList graph_;
  bool loaded_ = false;
  core::ResidentPartition grid_;
  cetric::ResidentCetric cetric_;
  bool grid_current_ = false;
  bool cetric_current_ = false;
  std::uint64_t grid_builds_ = 0;
  std::uint64_t cetric_builds_ = 0;
};

/// Runs `plan`, building the piece it needs on first use. A crediting
/// tally fills RunResult::vertex_triangles or RunResult::edge_supports.
core::RunResult run(const Plan& plan, mpisim::PersistentWorld& world,
                    Resident& resident);

}  // namespace tricount::engine
