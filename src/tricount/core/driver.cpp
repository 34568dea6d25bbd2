#include "tricount/core/driver.hpp"

#include <functional>
#include <stdexcept>
#include <utility>

#include "tricount/core/dist_graph.hpp"
#include "tricount/mpisim/runtime.hpp"
#include "tricount/obs/flight.hpp"

namespace tricount::core {

namespace {

using SliceFactory = std::function<LocalSlice(mpisim::Comm&)>;

RunResult run_pipeline(int ranks, const RunOptions& options,
                       const SliceFactory& make_slice) {
  if (mpisim::perfect_square_root(ranks) == 0) {
    throw std::invalid_argument(
        "count_triangles_2d: rank count must be a perfect square");
  }
  RunResult result;
  result.ranks = ranks;
  result.grid_q = mpisim::perfect_square_root(ranks);
  result.model = options.model;
  result.per_rank.assign(static_cast<std::size_t>(ranks), RankStats{});

  result.chaos_enabled = options.chaos != nullptr;
  result.overlap_enabled = options.config.overlap;

  mpisim::WorldReport report = mpisim::run_world(ranks, [&](mpisim::Comm& comm) {
    mpisim::Cart2D grid(comm);
    LocalSlice input = [&] {
      obs::ScopedSpan span("slice", "pre");
      return make_slice(comm);
    }();

    PreprocessOutput pre = preprocess(grid, std::move(input), options.config);
    if (options.validate_blocks) pre.blocks.validate();
    CountOutput count = cannon_count(grid, std::move(pre.blocks),
                                     options.config);

    RankStats& stats = result.per_rank[static_cast<std::size_t>(comm.rank())];
    stats.pre_steps = std::move(pre.steps);
    stats.shifts = std::move(count.shifts);
    stats.kernel = count.kernel;
    if (comm.rank() == 0) {
      result.triangles = count.total_triangles;
      result.num_vertices = pre.num_vertices;
      result.num_edges = pre.num_edges;
    }
  }, world_options(options));

  result.take(std::move(report));
  return result;
}

}  // namespace

std::vector<PhaseSample> RunResult::step_samples(std::size_t step_index) const {
  std::vector<PhaseSample> samples;
  samples.reserve(per_rank.size());
  for (const RankStats& stats : per_rank) {
    samples.push_back(stats.pre_steps.at(step_index).second);
  }
  return samples;
}

std::vector<PhaseSample> RunResult::shift_samples(std::size_t shift_index) const {
  std::vector<PhaseSample> samples;
  samples.reserve(per_rank.size());
  for (const RankStats& stats : per_rank) {
    samples.push_back(stats.shifts.at(shift_index));
  }
  return samples;
}

std::size_t RunResult::num_steps() const {
  return per_rank.empty() ? 0 : per_rank[0].pre_steps.size();
}

std::size_t RunResult::num_shifts() const {
  return per_rank.empty() ? 0 : per_rank[0].shifts.size();
}

double RunResult::pre_modeled_seconds() const {
  double total = 0.0;
  for (std::size_t s = 0; s < num_steps(); ++s) {
    total += breakdown(step_samples(s)).modeled_seconds(model);
  }
  return total;
}

double RunResult::tc_modeled_seconds() const {
  double total = 0.0;
  for (std::size_t s = 0; s < num_shifts(); ++s) {
    total += breakdown(shift_samples(s)).modeled_seconds(model);
  }
  return total;
}

double RunResult::pre_modeled_comm_seconds() const {
  double total = 0.0;
  for (std::size_t s = 0; s < num_steps(); ++s) {
    total += breakdown(step_samples(s)).modeled_comm_seconds(model);
  }
  return total;
}

double RunResult::tc_modeled_comm_seconds() const {
  double total = 0.0;
  for (std::size_t s = 0; s < num_shifts(); ++s) {
    total += breakdown(shift_samples(s)).modeled_comm_seconds(model);
  }
  return total;
}

std::uint64_t RunResult::pre_ops() const {
  std::uint64_t total = 0;
  for (const RankStats& stats : per_rank) total += stats.pre_total().ops;
  return total;
}

std::uint64_t RunResult::tc_ops() const {
  std::uint64_t total = 0;
  for (const RankStats& stats : per_rank) total += stats.tc_total().ops;
  return total;
}

void RunResult::take(mpisim::WorldReport report) {
  per_rank_counters = std::move(report.counters);
  comm_matrix = std::move(report.comm_matrix);
  per_rank_chaos = std::move(report.chaos);
}

mpisim::ChaosCounters RunResult::total_chaos() const {
  mpisim::ChaosCounters total;
  for (const mpisim::ChaosCounters& c : per_rank_chaos) total += c;
  return total;
}

CetricRankCounters RunResult::total_cetric() const {
  CetricRankCounters total;
  for (const CetricRankCounters& c : per_rank_cetric) {
    total.local_triangles += c.local_triangles;
    total.cut_triangles += c.cut_triangles;
    total.cut_wedges_sent += c.cut_wedges_sent;
    total.cut_wedge_messages_sent += c.cut_wedge_messages_sent;
    total.cut_wedge_bytes_sent += c.cut_wedge_bytes_sent;
    total.ghost_lists_fetched += c.ghost_lists_fetched;
    total.ghost_list_entries += c.ghost_list_entries;
  }
  return total;
}

KernelCounters RunResult::total_kernel() const {
  KernelCounters total;
  for (const RankStats& stats : per_rank) total += stats.kernel;
  return total;
}

double RunResult::shift_max_compute(std::size_t shift_index) const {
  return breakdown(shift_samples(shift_index)).max_compute_seconds;
}

double RunResult::shift_avg_compute(std::size_t shift_index) const {
  return breakdown(shift_samples(shift_index)).avg_compute_seconds;
}

RunResult count_triangles_2d(const graph::EdgeList& graph, int ranks,
                             const RunOptions& options) {
  return run_pipeline(ranks, options, [&](mpisim::Comm& comm) {
    return block_slice_from_edges(graph, comm.rank(), comm.size());
  });
}

RunResult count_triangles_2d(const graph::Csr& csr, int ranks,
                             const RunOptions& options) {
  return run_pipeline(ranks, options, [&](mpisim::Comm& comm) {
    return block_slice_from_csr(csr, comm.rank(), comm.size());
  });
}

RunResult count_triangles_2d_rmat(const graph::RmatParams& params, int ranks,
                                  const RunOptions& options) {
  return run_pipeline(ranks, options, [&](mpisim::Comm& comm) {
    return block_slice_from_rmat(comm, params);
  });
}

}  // namespace tricount::core
