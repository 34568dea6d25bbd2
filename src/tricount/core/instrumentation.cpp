#include "tricount/core/instrumentation.hpp"

#include <algorithm>

#include "tricount/mpisim/runtime.hpp"

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

PhaseTracker::PhaseTracker(mpisim::Comm& comm) : comm_(comm) {
  cpu_at_ = util::thread_cpu_seconds();
  counters_at_ = comm.counters();
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

}  // namespace tricount::core
