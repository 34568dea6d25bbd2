// Comm: a rank's handle onto the simulated communicator.
//
// The API mirrors the subset of MPI the paper's algorithm needs: tagged
// buffered point-to-point transfers, sendrecv, and (in collectives.hpp)
// barrier/bcast/reduce/allreduce/gather/allgather/alltoallv/scan/exscan.
// Sends are buffered (the payload is copied into the destination mailbox
// and the call returns immediately), which corresponds to MPI_Bsend
// semantics and makes shift patterns like Cannon's trivially deadlock-free.
// With a FaultInjector installed on the World (chaos subsystem), the
// buffered fast path is replaced by reliable delivery: every (source,
// dest, tag) channel is sequence-numbered, receivers ack each data copy,
// discard duplicates, and re-order overtaken messages, while senders
// retransmit unacknowledged messages on a timeout — bounded by
// FaultInjector::max_retries(), after which a typed ChaosError is thrown.
// Sends stay non-blocking either way, preserving MPI_Bsend deadlock
// freedom. See docs/chaos.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <list>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "tricount/mpisim/mailbox.hpp"
#include "tricount/mpisim/message.hpp"

namespace tricount::mpisim {

class World;
class Comm;

/// Handle for a non-blocking point-to-point operation (isend/irecv).
///
/// Semantics mirror MPI_Request for the subset mpisim needs:
///  - Send requests complete immediately (sends are buffered; the payload
///    is copied before isend_bytes returns), so wait/test on them never
///    block. Completion does NOT imply the receiver has matched it.
///  - Receive requests match lazily at wait()/test() time against the
///    mailbox. Consequence: two outstanding irecvs with the same
///    (source, tag) pattern complete in the order wait/test is called on
///    them, not the order they were posted. Distinct tags (as in the
///    Cannon/SUMMA loops) are unaffected by this deviation.
///  - Wildcards (kAnySource/kAnyTag) are allowed on irecv.
/// Requests are move-only; waiting twice is a no-op (the message is
/// retained and returned again).
class Request {
 public:
  Request() = default;
  Request(Request&& other) noexcept { *this = std::move(other); }
  Request& operator=(Request&& other) noexcept {
    comm_ = std::exchange(other.comm_, nullptr);
    kind_ = std::exchange(other.kind_, Kind::kNone);
    peer_ = other.peer_;
    tag_ = other.tag_;
    done_ = std::exchange(other.done_, false);
    message_ = std::move(other.message_);
    return *this;
  }
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  /// True once the operation has completed (always true for sends).
  bool done() const { return done_; }
  /// True for a default-constructed or moved-from handle.
  bool empty() const { return kind_ == Kind::kNone; }

  /// Attempts completion without blocking; returns done().
  bool test();
  /// Blocks until complete and returns the message (empty for sends).
  Message& wait();

 private:
  friend class Comm;
  enum class Kind { kNone, kSend, kRecv };
  Request(Comm* comm, Kind kind, int peer, int tag, bool done)
      : comm_(comm), kind_(kind), peer_(peer), tag_(tag), done_(done) {}

  Comm* comm_ = nullptr;
  Kind kind_ = Kind::kNone;
  int peer_ = kAnySource;
  int tag_ = kAnyTag;
  bool done_ = false;
  Message message_;
};

/// Blocks until every request in `requests` has completed.
void wait_all(std::span<Request> requests);

class Comm {
 public:
  Comm(World& world, int rank);

  int rank() const { return rank_; }
  int size() const;

  // --- untyped point-to-point -------------------------------------------

  /// Buffered send: copies `payload` to `dest`'s mailbox and returns.
  void send_bytes(int dest, int tag, std::span<const std::byte> payload);

  /// Blocking receive matching (source, tag); wildcards allowed.
  Message recv_message(int source = kAnySource, int tag = kAnyTag);

  /// Simultaneous send and receive. Because sends are buffered this is
  /// send-then-receive, which matches MPI_Sendrecv's deadlock freedom.
  Message sendrecv_bytes(int dest, int send_tag,
                         std::span<const std::byte> payload, int source,
                         int recv_tag);

  /// Non-blocking probe for a matching message.
  bool iprobe(int source = kAnySource, int tag = kAnyTag);

  // --- non-blocking point-to-point ---------------------------------------

  /// Non-blocking buffered send. The payload is copied before this
  /// returns (MPI_Bsend semantics), so the returned request is already
  /// complete and the caller may immediately reuse or free the buffer.
  Request isend_bytes(int dest, int tag, std::span<const std::byte> payload);

  /// Non-blocking receive: returns a request that matches (source, tag)
  /// lazily at wait()/test() time. See the Request class comment for the
  /// same-pattern ordering caveat.
  Request irecv(int source = kAnySource, int tag = kAnyTag);

  /// Non-blocking counterpart of recv_message: delivers a matching
  /// message if one is available right now. Under a fault injector this
  /// services the reliable channels (acks, dedup, reordering) without
  /// blocking; a delayed (deferred) message only surfaces via a blocking
  /// receive, so test-loops should eventually fall back to wait().
  bool try_recv_message(int source, int tag, Message& out);

  /// Reliable-delivery quiesce: blocks until every send this rank issued
  /// has been acknowledged, retransmitting as needed. Called by
  /// PersistentWorld::run_job when the rank function returns; a no-op
  /// without a fault injector.
  void flush_sends();

  // --- typed convenience wrappers ---------------------------------------

  template <typename T>
  void send(int dest, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag, std::as_bytes(data));
  }

  template <typename T>
  void send(int dest, int tag, const std::vector<T>& data) {
    send<T>(dest, tag, std::span<const T>(data));
  }

  template <typename T>
  void send_value(int dest, int tag, const T& value) {
    send<T>(dest, tag, std::span<const T>(&value, 1));
  }

  template <typename T>
  std::vector<T> recv(int source = kAnySource, int tag = kAnyTag,
                      int* actual_source = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    Message m = recv_message(source, tag);
    if (actual_source != nullptr) *actual_source = m.source;
    return unpack<T>(m.payload);
  }

  template <typename T>
  T recv_value(int source = kAnySource, int tag = kAnyTag) {
    const auto v = recv<T>(source, tag);
    return v.at(0);
  }

  template <typename T>
  std::vector<T> sendrecv(int dest, int send_tag, std::span<const T> data,
                          int source, int recv_tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    Message m =
        sendrecv_bytes(dest, send_tag, std::as_bytes(data), source, recv_tag);
    return unpack<T>(m.payload);
  }

  template <typename T>
  std::vector<T> sendrecv(int dest, int send_tag, const std::vector<T>& data,
                          int source, int recv_tag) {
    return sendrecv<T>(dest, send_tag, std::span<const T>(data), source,
                       recv_tag);
  }

  // --- instrumentation ----------------------------------------------------

  PerfCounters& counters();
  const PerfCounters& counters() const;

  /// Next tag in the reserved collective tag space. Every rank executes
  /// collectives in the same order, so per-rank counters stay aligned.
  int next_collective_tag();

  World& world() { return world_; }

  template <typename T>
  static std::vector<T> unpack(std::span<const std::byte> payload) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (payload.size() % sizeof(T) != 0) {
      throw std::runtime_error("mpisim: payload size not a multiple of T");
    }
    std::vector<T> out(payload.size() / sizeof(T));
    if (!out.empty()) {
      std::memcpy(out.data(), payload.data(), payload.size());
    }
    return out;
  }

 private:
  // --- reliable delivery (active only when a FaultInjector is installed)

  /// A sent-but-unacknowledged message, kept for retransmission. The
  /// payload copy is the price of surviving drops.
  struct PendingSend {
    int dest = 0;
    int tag = 0;
    std::uint64_t seq = 0;
    std::vector<std::byte> payload;
    double deadline = 0.0;  // steady-clock seconds of the next retransmit
    int attempts = 0;
    /// Causal-trace identity of the logical message (obs::MsgTrace): the
    /// id every wire attempt shares and the post instant of the original
    /// send call. Zero when no trace is installed.
    std::uint64_t trace_id = 0;
    double post_us = 0.0;
  };

  /// Receiver-side state of one (peer, tag) channel: the next in-order
  /// sequence number and the stash of messages that overtook it.
  struct RecvChannel {
    std::uint64_t next_seq = 1;
    std::map<std::uint64_t, Message> stash;
  };

  void reliable_send(int dest, int tag, std::span<const std::byte> payload);
  Message reliable_recv(int source, int tag);
  /// Non-blocking reliable receive: drains acks/duplicates and returns
  /// false when nothing deliverable is queued right now.
  bool reliable_try_recv(int source, int tag, Message& out);
  /// Puts one attempt of `p` on the wire, applying the injected fault.
  void transmit(const PendingSend& p);
  /// Drains acks and retransmits overdue sends; throws ChaosError once a
  /// message exhausts its retry budget.
  void service_reliable();
  void send_ack(const Message& received);
  /// Delivers the next in-order stashed message matching (source, tag).
  bool take_from_stash(int source, int tag, Message& out);
  /// Tallies one wire attempt into the per-rank counters and the p×p
  /// matrix. Retransmissions still count toward messages_sent/bytes_sent
  /// (the α–β model sees the protocol's real cost) but land in the
  /// matrix's chaos columns instead of the user/collective ones.
  void count_send(int dest, int tag, std::size_t bytes,
                  bool retransmit = false);
  /// Mirrors unacked_.size() into the live-telemetry slot (no-op when no
  /// obs::Telemetry is installed).
  void publish_unacked_depth() const;

  World& world_;
  int rank_;
  int collective_seq_ = 0;
  std::map<std::pair<int, int>, std::uint64_t> send_seq_;
  std::map<std::pair<int, int>, RecvChannel> recv_channels_;
  std::list<PendingSend> unacked_;
};

}  // namespace tricount::mpisim
