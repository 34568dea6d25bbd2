// A rank's incoming-message queue with MPI-style matching.
//
// Matching honours MPI's non-overtaking rule: among messages that match a
// receive's (source, tag) pattern, the earliest-arriving one is delivered
// first. Wildcards kAnySource / kAnyTag are supported. Only kData
// messages take part in matching; kAck control messages are consumed
// exclusively through try_pop_ack by the reliable-delivery protocol.
//
// The chaos subsystem injects faults through two extra entry points:
// push_front (reordering — the message overtakes everything queued) and
// push_deferred (modeled delay — the message stays invisible until later
// pushes arrive, or until a blocked receiver would otherwise starve, so
// delays can never deadlock a run).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "tricount/mpisim/message.hpp"

namespace tricount::mpisim {

class Mailbox {
 public:
  Mailbox() = default;
  /// `progress` (optional) is bumped on every push and successful pop; the
  /// watchdog watches it to detect a stalled world.
  explicit Mailbox(std::atomic<std::uint64_t>* progress)
      : progress_(progress) {}

  /// Enqueues a message (called by the sender's thread).
  void push(Message message);

  /// Chaos: enqueues at the *front* of the queue, overtaking every message
  /// already waiting — a fabric reordering fault.
  void push_front(Message message);

  /// Chaos: holds the message invisible until `hold_pushes` further pushes
  /// arrive. A receiver that would otherwise block releases all deferred
  /// messages instead of starving, so deferral affects ordering, never
  /// liveness.
  void push_deferred(Message message, int hold_pushes);

  /// Blocks until a message matching (source, tag) is available and
  /// removes it. Throws std::runtime_error if the world is shut down by a
  /// failure while waiting (see fail()).
  Message pop(int source, int tag);

  /// Bounded-wait variant: waits up to `timeout_seconds` for a match.
  /// Returns false on timeout; throws like pop() if the world failed.
  bool pop_for(int source, int tag, double timeout_seconds, Message& out);

  /// Non-blocking variant; returns false if no matching message is queued.
  bool try_pop(int source, int tag, Message& out);

  /// Non-blocking removal of the oldest kAck message, if any.
  bool try_pop_ack(Message& out);

  /// Returns true if a matching message is queued (MPI_Iprobe analogue).
  bool probe(int source, int tag);

  /// Points the live gauges at this mailbox: `depth` receives the
  /// queued-message count and `bytes` the queued payload bytes after
  /// every queue mutation. Same null-tolerant pattern as the watchdog's
  /// `progress` pointer; wired by World when an obs::FlightRecorder is
  /// installed, zero cost otherwise. The atomics must outlive the world.
  void set_gauges(std::atomic<std::uint64_t>* depth,
                  std::atomic<std::uint64_t>* bytes) {
    depth_gauge_ = depth;
    bytes_gauge_ = bytes;
  }

  /// Marks the world as failed and wakes all waiters so a crashing rank
  /// cannot leave its peers blocked forever.
  void fail();

  /// Discards every queued and deferred message. Called between jobs,
  /// when no rank runs.
  void drain();

  std::size_t queued() const;

  /// Snapshot of the owning rank's blocked receive, for the watchdog's
  /// stall diagnostic. `source`/`tag` are the match pattern (wildcards
  /// included) of the receive currently blocked in pop/pop_for.
  struct WaitInfo {
    bool waiting = false;
    int source = 0;
    int tag = 0;
  };
  WaitInfo waiting_info() const;

 private:
  static bool matches(const Message& m, int source, int tag) {
    return m.kind == MsgKind::kData &&
           (source == kAnySource || m.source == source) &&
           (tag == kAnyTag || m.tag == tag);
  }

  /// Finds the first matching message; returns queue_.size() if none.
  std::size_t find_locked(int source, int tag) const;

  /// Moves every deferred message into the live queue (starvation release).
  void release_deferred_locked();

  void note_progress() {
    if (progress_ != nullptr) {
      progress_->fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Publishes queue depth/bytes to the live gauges. Call with
  /// mutex_ held, after any queue_ mutation.
  void publish_depth_locked() {
    if (depth_gauge_ != nullptr) {
      depth_gauge_->store(queue_.size(), std::memory_order_relaxed);
    }
    if (bytes_gauge_ != nullptr) {
      bytes_gauge_->store(queued_bytes_, std::memory_order_relaxed);
    }
  }

  struct Deferred {
    Message message;
    int remaining = 0;
  };

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  std::vector<Deferred> deferred_;
  std::uint64_t queued_bytes_ = 0;  ///< payload bytes across queue_
  std::atomic<std::uint64_t>* progress_ = nullptr;
  std::atomic<std::uint64_t>* depth_gauge_ = nullptr;
  std::atomic<std::uint64_t>* bytes_gauge_ = nullptr;
  bool failed_ = false;
  bool waiting_ = false;
  int waiting_source_ = 0;
  int waiting_tag_ = 0;
};

}  // namespace tricount::mpisim
