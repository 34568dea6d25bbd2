#include "tricount/engine/engine.hpp"

#include <algorithm>

namespace tricount::engine {

void Resident::reset(graph::EdgeList simplified) {
  graph_ = std::move(simplified);
  loaded_ = true;
  grid_ = core::ResidentPartition{};
  cetric_ = cetric::ResidentCetric{};
  grid_current_ = false;
  cetric_current_ = false;
  pending_.clear();
}

void Resident::update(graph::EdgeList simplified, const stream::Batch& batch) {
  graph_ = std::move(simplified);
  cetric_current_ = false;
  if (!grid_current_) return;  // the next grid() builds from graph_
  pending_.insert(pending_.end(), batch.ops.begin(), batch.ops.end());
}

const core::ResidentPartition& Resident::grid(mpisim::PersistentWorld& world) {
  if (grid_current_ && !pending_.empty()) {
    // Each op flips its edge, so an edge's ops cancel in pairs and an odd
    // run leaves the first op's change.
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const stream::DeltaOp& a, const stream::DeltaOp& b) {
                       return a.edge < b.edge;
                     });
    std::vector<graph::Edge> deleted;
    std::vector<graph::Edge> inserted;
    for (auto run = pending_.begin(); run != pending_.end();) {
      const auto end = std::find_if(run, pending_.end(), [&](const auto& op) {
        return op.edge != run->edge;
      });
      if ((end - run) % 2 == 1) {
        (run->insert ? inserted : deleted).push_back(run->edge);
      }
      run = end;
    }
    pending_.clear();
    try {
      core::patch_resident(world, grid_, deleted, inserted);
    } catch (...) {
      // Some ranks may have patched their blocks: drop the whole piece.
      grid_ = core::ResidentPartition{};
      grid_current_ = false;
      throw;
    }
  }
  if (!grid_current_) {
    grid_ = core::ResidentPartition{};  // free the stale blocks first
    grid_ = core::preprocess_resident(world, graph_, options_);
    grid_current_ = true;
    ++grid_builds_;
  }
  return grid_;
}

const cetric::ResidentCetric& Resident::cetric(mpisim::PersistentWorld& world) {
  if (!cetric_current_) {
    cetric_ = cetric::ResidentCetric{};
    cetric_ = cetric::preprocess_resident(world, graph_, options_);
    cetric_current_ = true;
    ++cetric_builds_;
  }
  return cetric_;
}

core::RunResult run(const Plan& plan, mpisim::PersistentWorld& world,
                    Resident& resident) {
  switch (plan.algo) {
    case Algo::kSumma:
      return core::count_resident_summa(world, resident.grid(world),
                                        plan.config);
    case Algo::kCetric:
      return cetric::count_resident(world, resident.cetric(world),
                                    plan.config);
    case Algo::kCannon:
      break;
  }
  return core::count_resident(world, resident.grid(world), plan.config,
                              plan.tally, &resident.graph());
}

}  // namespace tricount::engine
