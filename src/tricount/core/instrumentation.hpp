// Instrumentation: the measured quantities the paper's evaluation section
// is built from.
//
// Every phase of the algorithm records, per rank:
//   * compute CPU seconds (thread CPU clock — valid under oversubscription)
//   * message and byte counts (from the mpisim PerfCounters delta)
// The triangle counting phase additionally records per-shift compute
// times (Table 3's load imbalance), the number of map-intersection tasks
// (Table 4's redundant work), and hash-probe counts (§7.1's twitter vs
// friendster analysis).
//
// Modeled parallel time of a superstep = max-over-ranks compute + α–β cost
// of the max-over-ranks traffic; a phase is the sum of its supersteps.
// See DESIGN.md §1 for why this substitution reproduces the paper's
// scaling shape on one physical core.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tricount/graph/types.hpp"
#include "tricount/kernels/kernels.hpp"
#include "tricount/mpisim/comm.hpp"
#include "tricount/util/cost_model.hpp"
#include "tricount/util/time.hpp"

namespace tricount::core {

/// One rank's measurements for one superstep (or phase treated as one).
struct PhaseSample {
  double compute_cpu_seconds = 0.0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  /// CPU spent inside communication calls (packing/copying); charged to
  /// communication, not compute.
  double comm_cpu_seconds = 0.0;
  /// Abstract operation count for this phase (adjacency entries processed
  /// in preprocessing, hash lookups in counting); feeds the Figure 2
  /// operation-rate plot.
  std::uint64_t ops = 0;
  /// True when this superstep ran with communication posted before the
  /// compute (Config::overlap); the α–β model then charges
  /// max(compute, network) instead of their sum (docs/overlap.md).
  bool overlapped = false;

  PhaseSample& operator+=(const PhaseSample& other);
};

/// The counter bundle lives with the kernels it instruments
/// (tricount/kernels/kernels.hpp); core keeps the historical name.
using KernelCounters = kernels::KernelCounters;

/// Named supersteps in pipeline order.
using StepSamples = std::vector<std::pair<std::string, PhaseSample>>;

/// Everything one rank measured during a full run.
struct RankStats {
  /// Ordered preprocessing supersteps (same keys on every rank).
  StepSamples pre_steps;
  /// One sample per counting superstep: a Cannon shift or a SUMMA panel
  /// step (compute + the step's communication).
  std::vector<PhaseSample> shifts;
  KernelCounters kernel;

  PhaseSample pre_total() const;
  PhaseSample tc_total() const;
};

/// Captures (compute CPU, traffic) deltas around a superstep on one rank.
class PhaseTracker {
 public:
  explicit PhaseTracker(mpisim::Comm& comm);

  /// Finishes the current superstep and returns its sample; restarts
  /// tracking for the next superstep.
  PhaseSample cut();

 private:
  mpisim::Comm& comm_;
  double cpu_at_ = 0.0;
  mpisim::PerfCounters counters_at_;
};

/// Aggregated view over all ranks, produced on rank 0 after a run.
struct PhaseBreakdown {
  double max_compute_seconds = 0.0;
  double avg_compute_seconds = 0.0;
  std::uint64_t max_messages = 0;
  std::uint64_t max_bytes = 0;
  std::uint64_t total_bytes = 0;
  double max_comm_cpu_seconds = 0.0;
  /// Set when every contributing sample ran overlapped (Config::overlap).
  bool overlapped = false;

  /// Modeled superstep time: slowest rank's compute plus the α–β cost of
  /// the heaviest rank's traffic (plus measured packing CPU). For an
  /// overlapped superstep the network term is charged only where it
  /// exceeds the compute it was hidden behind:
  ///   modeled = max_compute + (network - hidden) + max_comm_cpu
  /// with hidden = min(max_compute, network) — i.e. max(compute, network)
  /// plus the packing CPU, which a posted request cannot hide.
  double modeled_seconds(const util::AlphaBetaModel& model) const;
  double modeled_comm_seconds(const util::AlphaBetaModel& model) const;
  /// The α–β network seconds hidden behind compute (0 when not
  /// overlapped) — the numerator of the reported overlap efficiency.
  double hidden_seconds(const util::AlphaBetaModel& model) const;
};

/// Reduces one superstep across ranks.
PhaseBreakdown breakdown(const std::vector<PhaseSample>& per_rank);

/// What one counting superstep adds on one rank: the value a superstep's
/// compute hands back to mpisim::run_superstep (mpisim/recovery.hpp).
struct StepCount {
  graph::TriangleCount triangles = 0;
  KernelCounters kernel;
};

/// Inflates `sample`'s compute by this rank's straggler factor (modeled
/// slowdown; no-op without one) and tallies the injected share so reports
/// can subtract it.
void apply_straggler(mpisim::Comm& comm, PhaseSample& sample);

}  // namespace tricount::core
