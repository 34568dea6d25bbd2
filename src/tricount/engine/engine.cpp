#include "tricount/engine/engine.hpp"

namespace tricount::engine {

void Resident::reset(graph::EdgeList simplified) {
  update(std::move(simplified));
  loaded_ = true;
  grid_ = core::ResidentPartition{};
  cetric_ = cetric::ResidentCetric{};
}

void Resident::update(graph::EdgeList simplified) {
  graph_ = std::move(simplified);
  grid_current_ = false;
  cetric_current_ = false;
}

const core::ResidentPartition& Resident::grid(mpisim::PersistentWorld& world) {
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
