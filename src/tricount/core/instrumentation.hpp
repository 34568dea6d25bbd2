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

namespace tricount::obs {
class FlightRecorder;
}  // namespace tricount::obs

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

/// Marks one rank's modeled steps into `stats`, in pipeline order. Each
/// step's sample (compute CPU, traffic) runs from the previous cut, or
/// from the tracker's construction, to its own, so no CPU time or traffic
/// falls between steps.
///   * A pre step opens a flight span of its name (category "pre"); when
///     it closes, the span ends and its sample, with its ops, is appended
///     to stats.pre_steps.
///   * A counting superstep opens no span: it records the flight
///     "superstep" counter and the message-trace step note when it opens.
///     When it closes, its sample, inflated by this rank's straggler
///     factor and carrying its ops and overlapped flag, is appended to
///     stats.shifts. end_sweep() records the final counter.
class PhaseTracker {
 public:
  PhaseTracker(mpisim::Comm& comm, RankStats& stats);

  /// One open step. It is not movable: bind it where the step begins.
  class Step {
   public:
    Step(const Step&) = delete;
    Step& operator=(const Step&) = delete;
    /// Ends the step, crediting it with `ops` operations.
    void close(std::uint64_t ops = 0);
    /// A step left open (an exception unwinding) ends its span and cuts
    /// no sample.
    ~Step();

   private:
    friend class PhaseTracker;
    Step(PhaseTracker& tracker, const char* name, bool overlapped);

    PhaseTracker* tracker_;
    const char* name_;  ///< the pre step's name; null for a superstep
    bool overlapped_;
    bool open_ = true;
  };

  /// Opens pre step `name`, which must outlive the step (a literal).
  [[nodiscard]] Step pre(const char* name);
  /// Opens counting superstep stats.shifts.size(). `overlapped` marks one
  /// whose communication was posted before its compute (Config::overlap).
  [[nodiscard]] Step superstep(bool overlapped = false);
  /// Ends the counting sweep: the final "superstep" counter reads the
  /// number of supersteps, which the live view renders as done.
  void end_sweep();

 private:
  PhaseSample cut();

  mpisim::Comm& comm_;
  RankStats& stats_;
  obs::FlightRecorder* flight_;
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

}  // namespace tricount::core
