// Graceful shutdown: SIGINT/SIGTERM handling for long-lived runs.
//
// The flight recorder's fatal-signal handlers cover crashes (SIGSEGV &
// co.), but an *operator* signal — ctrl-C on a long `tricount_cli count`,
// `kill -TERM` on the tricountd daemon — used to take the default
// terminate path, losing flight/telemetry/metrics artifacts and exiting
// non-zero. This module installs INT/TERM handlers with two policies:
//
//  * kFlagOnly — the handler just records the signal; the owner polls
//    shutdown_requested() from its main loop, drains in-flight work,
//    flushes artifacts itself, and exits 0. This is what tricountd uses.
//  * kFlushAndExit — for batch tools with no event loop: the handler
//    auto-dumps the current flight recorder, publishes its live view
//    (when a publish path was registered), and _Exit(0)s. Like the
//    flight fatal-signal path, the flush is not async-signal-safe — an
//    accepted trade for an artifact that usually survives (see
//    flight.hpp).
#pragma once

#include <csignal>
#include <string>

namespace tricount::obs {

enum class ShutdownMode {
  kFlagOnly,      ///< handler sets a flag; owner drains and exits
  kFlushAndExit,  ///< handler flushes artifacts and _Exit(0)s
};

/// Installs SIGINT/SIGTERM handlers with the given policy. Idempotent;
/// process-wide; the latest mode wins.
void install_shutdown_handlers(ShutdownMode mode);

/// True once SIGINT or SIGTERM was received (kFlagOnly mode).
bool shutdown_requested();

/// The signal number that requested shutdown, or 0.
int shutdown_signal();

/// Registers the path the kFlushAndExit handler publishes the current
/// flight recorder's live view to on signal. Empty clears it.
void set_shutdown_telemetry(const std::string& path);

/// Clears the shutdown flag (tests raise() real signals).
void reset_shutdown_for_tests();

}  // namespace tricount::obs
