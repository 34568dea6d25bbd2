#include "tricount/core/instrumentation.hpp"

#include <algorithm>

#include "tricount/mpisim/runtime.hpp"
#include "tricount/obs/flight.hpp"
#include "tricount/obs/msgtrace.hpp"

namespace tricount::core {

PhaseSample& PhaseSample::operator+=(const PhaseSample& other) {
  compute_cpu_seconds += other.compute_cpu_seconds;
  messages += other.messages;
  bytes += other.bytes;
  comm_cpu_seconds += other.comm_cpu_seconds;
  ops += other.ops;
  // A phase total counts as overlapped if any constituent superstep was;
  // per-superstep accounting is what the modeled times are built from.
  overlapped = overlapped || other.overlapped;
  return *this;
}

PhaseSample RankStats::pre_total() const {
  PhaseSample total;
  for (const auto& [name, sample] : pre_steps) total += sample;
  return total;
}

PhaseSample RankStats::tc_total() const {
  PhaseSample total;
  for (const PhaseSample& s : shifts) total += s;
  return total;
}

namespace {

/// Inflates `sample`'s compute by this rank's straggler factor (modeled
/// slowdown; no-op without one) and tallies the injected share so reports
/// can subtract it.
void apply_straggler(mpisim::Comm& comm, PhaseSample& sample) {
  const mpisim::FaultInjector* injector = comm.world().fault_injector();
  const double factor =
      injector != nullptr ? injector->straggler_factor(comm.rank()) : 1.0;
  if (factor <= 1.0) return;
  mpisim::ChaosCounters& cc = comm.world().chaos_counters(comm.rank());
  cc.straggler_steps += 1;
  cc.straggler_injected_seconds += (factor - 1.0) * sample.compute_cpu_seconds;
  sample.compute_cpu_seconds *= factor;
}

}  // namespace

PhaseTracker::PhaseTracker(mpisim::Comm& comm, RankStats& stats)
    : comm_(comm),
      stats_(stats),
      flight_(obs::FlightRecorder::current()),
      cpu_at_(util::thread_cpu_seconds()),
      counters_at_(comm.counters()) {}

PhaseTracker::Step PhaseTracker::pre(const char* name) {
  if (flight_ != nullptr) flight_->span_begin(name, "pre");
  return Step(*this, name, false);
}

PhaseTracker::Step PhaseTracker::superstep(bool overlapped) {
  const auto step = static_cast<int>(stats_.shifts.size());
  // The counter doubles as the crash witness: on a chaos crash the dump's
  // last superstep record is the superstep the recovery path reports.
  if (flight_ != nullptr) flight_->counter("superstep", "tc", step);
  if (obs::MsgTrace* trace = obs::MsgTrace::current()) {
    trace->note_superstep(step);
  }
  return Step(*this, nullptr, overlapped);
}

void PhaseTracker::end_sweep() {
  if (flight_ != nullptr) {
    flight_->counter("superstep", "tc",
                     static_cast<double>(stats_.shifts.size()));
  }
}

PhaseSample PhaseTracker::cut() {
  const double cpu_now = util::thread_cpu_seconds();
  const mpisim::PerfCounters now = comm_.counters();
  const mpisim::PerfCounters delta = now - counters_at_;
  PhaseSample sample;
  sample.comm_cpu_seconds = delta.comm_cpu_seconds;
  sample.compute_cpu_seconds =
      std::max(0.0, (cpu_now - cpu_at_) - delta.comm_cpu_seconds);
  sample.messages = delta.messages_sent;
  sample.bytes = delta.bytes_sent;
  cpu_at_ = cpu_now;
  counters_at_ = now;
  return sample;
}

PhaseTracker::Step::Step(PhaseTracker& tracker, const char* name,
                         bool overlapped)
    : tracker_(&tracker), name_(name), overlapped_(overlapped) {}

void PhaseTracker::Step::close(std::uint64_t ops) {
  if (!open_) return;
  open_ = false;
  PhaseTracker& t = *tracker_;
  if (name_ != nullptr) {
    if (t.flight_ != nullptr) t.flight_->span_end(name_);
    PhaseSample sample = t.cut();
    sample.ops = ops;
    t.stats_.pre_steps.emplace_back(name_, sample);
    return;
  }
  PhaseSample sample = t.cut();
  sample.overlapped = overlapped_;
  apply_straggler(t.comm_, sample);
  sample.ops = ops;
  t.stats_.shifts.push_back(sample);
}

PhaseTracker::Step::~Step() {
  if (open_ && name_ != nullptr && tracker_->flight_ != nullptr) {
    tracker_->flight_->span_end(name_);
  }
}

double PhaseBreakdown::hidden_seconds(
    const util::AlphaBetaModel& model) const {
  if (!overlapped) return 0.0;
  return std::min(max_compute_seconds, model.cost(max_messages, max_bytes));
}

double PhaseBreakdown::modeled_comm_seconds(
    const util::AlphaBetaModel& model) const {
  return model.cost(max_messages, max_bytes) - hidden_seconds(model) +
         max_comm_cpu_seconds;
}

double PhaseBreakdown::modeled_seconds(
    const util::AlphaBetaModel& model) const {
  return max_compute_seconds + modeled_comm_seconds(model);
}

PhaseBreakdown breakdown(const std::vector<PhaseSample>& per_rank) {
  PhaseBreakdown out;
  if (per_rank.empty()) return out;
  // All ranks of a superstep run the same mode, so all-of is the same as
  // any-of on real data; all-of keeps a stray unmarked sample conservative
  // (the sum, never an optimistic max).
  out.overlapped = true;
  double compute_total = 0.0;
  for (const PhaseSample& s : per_rank) {
    out.overlapped = out.overlapped && s.overlapped;
    out.max_compute_seconds = std::max(out.max_compute_seconds, s.compute_cpu_seconds);
    compute_total += s.compute_cpu_seconds;
    out.max_messages = std::max(out.max_messages, s.messages);
    out.max_bytes = std::max(out.max_bytes, s.bytes);
    out.total_bytes += s.bytes;
    out.max_comm_cpu_seconds = std::max(out.max_comm_cpu_seconds, s.comm_cpu_seconds);
  }
  out.avg_compute_seconds = compute_total / static_cast<double>(per_rank.size());
  return out;
}

}  // namespace tricount::core
