#include "tricount/obs/graceful.hpp"

#include <atomic>
#include <cstdlib>

#include "tricount/obs/flight.hpp"

namespace tricount::obs {

namespace {

std::atomic<int> g_shutdown_signal{0};
std::atomic<int> g_mode{static_cast<int>(ShutdownMode::kFlagOnly)};
// Written only before handlers can fire (registration happens on the main
// thread before long-running work); read by the handler.
std::string g_telemetry_path;  // NOLINT(runtime/string)

extern "C" void handle_shutdown_signal(int signum) {
  g_shutdown_signal.store(signum, std::memory_order_relaxed);
  if (static_cast<ShutdownMode>(g_mode.load(std::memory_order_relaxed)) ==
      ShutdownMode::kFlagOnly) {
    return;
  }
  // kFlushAndExit: salvage artifacts, then exit cleanly. Not async-signal-
  // safe — the same accepted trade as the flight fatal-signal handlers.
  if (FlightRecorder* recorder = FlightRecorder::current()) {
    recorder->try_auto_dump(signum == SIGINT ? "signal:SIGINT"
                                             : "signal:SIGTERM");
    if (!g_telemetry_path.empty()) {
      try {
        recorder->live_trace().publish(g_telemetry_path);
      } catch (...) {  // a failed flush must not turn shutdown into a crash
      }
    }
  }
  std::_Exit(0);
}

}  // namespace

void install_shutdown_handlers(ShutdownMode mode) {
  g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
  std::signal(SIGINT, handle_shutdown_signal);
  std::signal(SIGTERM, handle_shutdown_signal);
}

bool shutdown_requested() {
  return g_shutdown_signal.load(std::memory_order_relaxed) != 0;
}

int shutdown_signal() {
  return g_shutdown_signal.load(std::memory_order_relaxed);
}

void set_shutdown_telemetry(const std::string& path) {
  g_telemetry_path = path;
}

void reset_shutdown_for_tests() {
  g_shutdown_signal.store(0, std::memory_order_relaxed);
}

}  // namespace tricount::obs
