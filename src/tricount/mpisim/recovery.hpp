// The one crash-recovery model (docs/chaos.md).
//
// A chaos fault plan may fail-restart one rank once, at a chosen counting
// superstep. Every counting loop — Cannon, SUMMA, the cetric local and cut
// supersteps, the stream delta pass — recovers the same way: a superstep's
// compute is a pure function of inputs the rank still holds after running
// it (its blocks, the panels or buffers it has received), and it returns
// its whole effect as a value that the caller folds in afterwards. A crash
// discards that value and runs the compute again over the same inputs.
// Nothing is checkpointed or rolled back, and peers never resend: a replay
// needs exactly the inputs the rank kept.
#pragma once

#include <type_traits>

#include "tricount/mpisim/comm.hpp"
#include "tricount/obs/flight.hpp"

namespace tricount::mpisim {

/// The superstep at which the world's fault plan fail-restarts this rank,
/// or -1 (always -1 without a fault injector).
int crash_superstep(Comm& comm);

namespace detail {
/// Counts a crash at `step`, marks it in the trace and the flight recorder
/// (which dumps), and returns the thread CPU clock for end_recovery.
double begin_recovery(Comm& comm, int step);
/// Counts the recovery begun at `cpu_at` and charges its CPU.
void end_recovery(Comm& comm, double cpu_at);
}  // namespace detail

/// Runs superstep `step`'s `compute` on this rank and returns its result.
/// `compute` must be pure over what the rank still holds: it may read its
/// inputs and reuse scratch whose state it resets, but it must not fold
/// into running totals — the caller does that with the returned value.
/// When the fault plan crashes this rank at `step`, the first result is
/// lost and `compute` runs again in a "recover" span.
template <class Compute>
std::invoke_result_t<Compute&> run_superstep(Comm& comm, int step,
                                             Compute&& compute) {
  if (crash_superstep(comm) != step) return compute();
  (void)compute();  // the execution the crash loses
  const double cpu_at = detail::begin_recovery(comm, step);
  std::invoke_result_t<Compute&> result = [&] {
    obs::ScopedSpan span("recover", "chaos");
    return compute();
  }();
  detail::end_recovery(comm, cpu_at);
  return result;
}

}  // namespace tricount::mpisim
