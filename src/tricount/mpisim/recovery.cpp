#include "tricount/mpisim/recovery.hpp"

#include "tricount/mpisim/runtime.hpp"
#include "tricount/obs/flight.hpp"
#include "tricount/util/time.hpp"

namespace tricount::mpisim {

int crash_superstep(Comm& comm) {
  const FaultInjector* injector = comm.world().fault_injector();
  return injector != nullptr ? injector->crash_superstep(comm.rank()) : -1;
}

namespace detail {

double begin_recovery(Comm& comm, int step) {
  comm.world().chaos_counters(comm.rank()).crashes += 1;
  if (obs::FlightRecorder* flight = obs::FlightRecorder::current()) {
    // Dump at the crash instant: the last "superstep" counter in the
    // crashing rank's stream is exactly the failed superstep.
    flight->instant("chaos.crash", "chaos", static_cast<double>(step));
    flight->try_auto_dump("chaos-crash");
  }
  return util::thread_cpu_seconds();
}

void end_recovery(Comm& comm, double cpu_at) {
  ChaosCounters& cc = comm.world().chaos_counters(comm.rank());
  cc.recoveries += 1;
  cc.recovery_seconds += util::thread_cpu_seconds() - cpu_at;
}

}  // namespace detail

}  // namespace tricount::mpisim
