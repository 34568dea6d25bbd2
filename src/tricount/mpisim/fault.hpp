// Fault-injection interface of the chaos subsystem (docs/chaos.md).
//
// mpisim owns only the *interface*: an installed FaultInjector is asked,
// for every point-to-point transmission attempt, which fault (if any) to
// inject, plus the per-rank straggler/crash schedule. The concrete
// seeded implementation lives in src/tricount/chaos/ so the simulator
// never depends on the chaos library.
//
// Determinism contract: every method must be a pure function of its
// arguments and the injector's configuration — never of wall-clock time
// or thread scheduling — so a fault plan replays bit-for-bit.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace tricount::mpisim {

/// What the fabric does to one transmission attempt. `drop` wins over the
/// other fields; `duplicate` delivers a second identical copy; `reorder`
/// jumps the mailbox queue; `delay_seconds` holds the message back behind
/// later traffic and adds modeled latency.
struct FaultAction {
  bool drop = false;
  bool duplicate = false;
  bool reorder = false;
  double delay_seconds = 0.0;
};

/// Decides the fate of messages and ranks. Installed on a World via
/// WorldOptions; when none is installed, mpisim takes its fast path and
/// the chaos machinery costs one pointer load per operation.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  /// Fault for transmission attempt `attempt` (1-based; retransmissions
  /// increment it) of sequence number `seq` on channel (source, dest, tag).
  virtual FaultAction on_message(int source, int dest, int tag,
                                 std::uint64_t seq, int attempt) const = 0;

  /// Modeled compute slowdown for `rank` (>= 1; 1 = healthy).
  virtual double straggler_factor(int rank) const = 0;

  /// Superstep at which `rank` fail-restarts once, or -1 for never.
  virtual int crash_superstep(int rank) const = 0;

  /// Transmission attempts per message before the sender gives up with a
  /// ChaosError (kRetransmitTimeout).
  virtual int max_retries() const { return 50; }

  /// Sender-side wait for an ack before retransmitting.
  virtual double retry_timeout_seconds() const { return 0.01; }
};

/// Per-rank tallies of injected faults and the protocol's reactions.
/// Written only by the owning rank's thread; read after the world joins.
/// Fault *injections* are deterministic per plan; `retransmits` can vary
/// with host scheduling (an ack may or may not beat the timeout).
struct ChaosCounters {
  std::uint64_t drops_injected = 0;
  std::uint64_t duplicates_injected = 0;
  std::uint64_t reorders_injected = 0;
  std::uint64_t delays_injected = 0;
  double delay_modeled_seconds = 0.0;

  std::uint64_t acks_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t duplicates_discarded = 0;
  std::uint64_t out_of_order_stashed = 0;

  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  double recovery_seconds = 0.0;

  std::uint64_t straggler_steps = 0;
  double straggler_injected_seconds = 0.0;

  std::uint64_t total_injected() const {
    return drops_injected + duplicates_injected + reorders_injected +
           delays_injected;
  }

  ChaosCounters& operator+=(const ChaosCounters& other) {
    drops_injected += other.drops_injected;
    duplicates_injected += other.duplicates_injected;
    reorders_injected += other.reorders_injected;
    delays_injected += other.delays_injected;
    delay_modeled_seconds += other.delay_modeled_seconds;
    acks_sent += other.acks_sent;
    retransmits += other.retransmits;
    duplicates_discarded += other.duplicates_discarded;
    out_of_order_stashed += other.out_of_order_stashed;
    crashes += other.crashes;
    recoveries += other.recoveries;
    recovery_seconds += other.recovery_seconds;
    straggler_steps += other.straggler_steps;
    straggler_injected_seconds += other.straggler_injected_seconds;
    return *this;
  }
};

/// Typed failure of the chaos machinery itself: a message that stayed
/// undeliverable after max_retries(), or the watchdog declaring a job
/// stalled.
class ChaosError : public std::runtime_error {
 public:
  enum class Kind { kRetransmitTimeout, kWatchdogStall };

  ChaosError(Kind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}

  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

}  // namespace tricount::mpisim
