#include "tricount/mpisim/comm.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "tricount/mpisim/runtime.hpp"
#include "tricount/obs/flight.hpp"
#include "tricount/obs/msgtrace.hpp"
#include "tricount/util/time.hpp"

namespace tricount::mpisim {

namespace {

/// How long a reliable receive waits on the mailbox before coming back up
/// to drain acks and retransmit — the protocol's reaction latency.
constexpr double kReliablePollSeconds = 2e-4;

/// How many later pushes a delayed message hides behind (the deferral in
/// Mailbox::push_deferred). Small and fixed: the visible effect is the
/// reordering; the modeled latency is carried by the chaos counters.
constexpr int kDelayHoldPushes = 2;

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void chaos_trace_instant(const char* name) {
  if (obs::FlightRecorder* flight = obs::FlightRecorder::current()) {
    flight->instant(name, "chaos");
  }
}

}  // namespace

PerfCounters& PerfCounters::operator+=(const PerfCounters& other) {
  messages_sent += other.messages_sent;
  bytes_sent += other.bytes_sent;
  messages_received += other.messages_received;
  bytes_received += other.bytes_received;
  collective_messages_sent += other.collective_messages_sent;
  collective_bytes_sent += other.collective_bytes_sent;
  collective_messages_received += other.collective_messages_received;
  collective_bytes_received += other.collective_bytes_received;
  chaos_messages_sent += other.chaos_messages_sent;
  chaos_bytes_sent += other.chaos_bytes_sent;
  chaos_acks_sent += other.chaos_acks_sent;
  comm_cpu_seconds += other.comm_cpu_seconds;
  return *this;
}

PerfCounters PerfCounters::operator-(const PerfCounters& other) const {
  PerfCounters d;
  d.messages_sent = messages_sent - other.messages_sent;
  d.bytes_sent = bytes_sent - other.bytes_sent;
  d.messages_received = messages_received - other.messages_received;
  d.bytes_received = bytes_received - other.bytes_received;
  d.collective_messages_sent =
      collective_messages_sent - other.collective_messages_sent;
  d.collective_bytes_sent = collective_bytes_sent - other.collective_bytes_sent;
  d.collective_messages_received =
      collective_messages_received - other.collective_messages_received;
  d.collective_bytes_received =
      collective_bytes_received - other.collective_bytes_received;
  d.chaos_messages_sent = chaos_messages_sent - other.chaos_messages_sent;
  d.chaos_bytes_sent = chaos_bytes_sent - other.chaos_bytes_sent;
  d.chaos_acks_sent = chaos_acks_sent - other.chaos_acks_sent;
  d.comm_cpu_seconds = comm_cpu_seconds - other.comm_cpu_seconds;
  return d;
}

CommCell& CommCell::operator+=(const CommCell& other) {
  user_messages += other.user_messages;
  user_bytes += other.user_bytes;
  collective_messages += other.collective_messages;
  collective_bytes += other.collective_bytes;
  chaos_messages += other.chaos_messages;
  chaos_bytes += other.chaos_bytes;
  return *this;
}

CommCell CommMatrix::row_total(int source) const {
  CommCell total;
  for (int d = 0; d < size_; ++d) total += at(source, d);
  return total;
}

CommCell CommMatrix::col_total(int dest) const {
  CommCell total;
  for (int s = 0; s < size_; ++s) total += at(s, dest);
  return total;
}

Comm::Comm(World& world, int rank) : world_(world), rank_(rank) {}

int Comm::size() const { return world_.size(); }

PerfCounters& Comm::counters() { return world_.counters(rank_); }

const PerfCounters& Comm::counters() const { return world_.counters(rank_); }

int Comm::next_collective_tag() {
  // Cycle within the reserved space; 2^30 distinct tags is far more than
  // any run performs, so reuse cannot collide with in-flight traffic.
  const int tag = kReservedTagBase + collective_seq_;
  collective_seq_ = (collective_seq_ + 1) & ((1 << 30) - 1 - kReservedTagBase);
  return tag;
}

void Comm::count_send(int dest, int tag, std::size_t bytes, bool retransmit) {
  PerfCounters& c = counters();
  c.messages_sent += 1;
  c.bytes_sent += bytes;
  CommCell& cell = world_.comm_matrix().at(rank_, dest);
  if (retransmit) {
    // Protocol overhead: visible in the matrix's chaos columns (and the
    // chaos_* counters) instead of inflating the algorithm's traffic.
    c.chaos_messages_sent += 1;
    c.chaos_bytes_sent += bytes;
    cell.chaos_messages += 1;
    cell.chaos_bytes += bytes;
  } else if (is_collective_tag(tag)) {
    c.collective_messages_sent += 1;
    c.collective_bytes_sent += bytes;
    cell.collective_messages += 1;
    cell.collective_bytes += bytes;
  } else {
    cell.user_messages += 1;
    cell.user_bytes += bytes;
  }
}

void Comm::send_bytes(int dest, int tag, std::span<const std::byte> payload) {
  if (dest < 0 || dest >= size()) {
    throw std::invalid_argument("mpisim: send to invalid rank");
  }
  const double t0 = util::thread_cpu_seconds();
  if (world_.fault_injector() != nullptr) {
    reliable_send(dest, tag, payload);
  } else {
    obs::MsgTrace* mt = obs::MsgTrace::current();
    const double post_us = mt != nullptr ? mt->now_us() : 0.0;
    Message m;
    m.source = rank_;
    m.tag = tag;
    if (mt != nullptr) m.trace_id = mt->next_trace_id();
    m.payload.assign(payload.begin(), payload.end());
    const std::uint64_t trace_id = m.trace_id;
    world_.mailbox(dest).push(std::move(m));
    count_send(dest, tag, payload.size());
    if (mt != nullptr) {
      obs::MsgRecord r;
      r.kind = obs::MsgRecord::kSend;
      r.collective = is_collective_tag(tag);
      r.peer = dest;
      r.tag = tag;
      r.id = trace_id;
      r.bytes = payload.size();
      r.post_us = post_us;
      r.wire_us = mt->now_us();
      mt->record(r);
    }
  }
  counters().comm_cpu_seconds += util::thread_cpu_seconds() - t0;
}

Message Comm::recv_message(int source, int tag) {
  const double t0 = util::thread_cpu_seconds();
  obs::MsgTrace* mt = obs::MsgTrace::current();
  const double post_us = mt != nullptr ? mt->now_us() : 0.0;
  Message m = world_.fault_injector() != nullptr
                  ? reliable_recv(source, tag)
                  : world_.mailbox(rank_).pop(source, tag);
  PerfCounters& c = counters();
  c.messages_received += 1;
  c.bytes_received += m.payload.size();
  if (is_collective_tag(m.tag)) {
    c.collective_messages_received += 1;
    c.collective_bytes_received += m.payload.size();
  }
  if (mt != nullptr) {
    // Only application-level deliveries are recorded, so duplicates and
    // retransmitted copies the reliable channel discards never produce a
    // second kRecv for the same trace id.
    obs::MsgRecord r;
    r.kind = obs::MsgRecord::kRecv;
    r.collective = is_collective_tag(m.tag);
    r.peer = m.source;
    r.tag = m.tag;
    r.id = m.trace_id;
    r.seq = m.seq;
    r.bytes = m.payload.size();
    r.post_us = post_us;
    r.wire_us = mt->now_us();
    mt->record(r);
  }
  c.comm_cpu_seconds += util::thread_cpu_seconds() - t0;
  return m;
}

// ---------------------------------------------------------------------------
// Reliable delivery (chaos runs)

void Comm::reliable_send(int dest, int tag,
                         std::span<const std::byte> payload) {
  service_reliable();
  const std::uint64_t seq = ++send_seq_[{dest, tag}];
  PendingSend pending{
      dest,
      tag,
      seq,
      std::vector<std::byte>(payload.begin(), payload.end()),
      steady_seconds() + world_.fault_injector()->retry_timeout_seconds(),
      1,
      /*trace_id=*/0,
      /*post_us=*/0.0};
  if (obs::MsgTrace* mt = obs::MsgTrace::current()) {
    pending.trace_id = mt->next_trace_id();
    pending.post_us = mt->now_us();
  }
  unacked_.push_back(std::move(pending));
  publish_unacked_depth();
  transmit(unacked_.back());
}

void Comm::publish_unacked_depth() const {
  obs::FlightRecorder* recorder = obs::FlightRecorder::current();
  if (recorder == nullptr || rank_ >= recorder->ranks()) return;
  recorder->gauges(rank_).unacked_sends.store(unacked_.size(),
                                              std::memory_order_relaxed);
}

void Comm::transmit(const PendingSend& p) {
  const FaultInjector& injector = *world_.fault_injector();
  const FaultAction action =
      injector.on_message(rank_, p.dest, p.tag, p.seq, p.attempts);
  ChaosCounters& cc = world_.chaos_counters(rank_);
  // Every wire attempt counts toward messages_sent/bytes_sent,
  // retransmissions included: the α–β model should see the protocol's
  // real cost under faults. Retransmissions are attributed to the
  // matrix's chaos columns so the overhead stays distinguishable.
  const bool retransmit = p.attempts > 1;
  count_send(p.dest, p.tag, p.payload.size(), retransmit);

  obs::MsgTrace* mt = obs::MsgTrace::current();
  auto record_attempt = [&](bool was_dropped) {
    if (mt == nullptr) return;
    obs::MsgRecord r;
    r.kind = obs::MsgRecord::kSend;
    r.collective = is_collective_tag(p.tag);
    r.dropped = was_dropped;
    r.peer = p.dest;
    r.tag = p.tag;
    r.gen = p.attempts - 1;
    r.id = p.trace_id;
    r.seq = p.seq;
    r.bytes = p.payload.size();
    // A retransmit is a fresh decision made now (often from inside a
    // receive loop), not at the original send call — re-stamp its post.
    r.post_us = retransmit ? mt->now_us() : p.post_us;
    r.wire_us = mt->now_us();
    mt->record(r);
  };

  if (action.drop) {
    cc.drops_injected += 1;
    chaos_trace_instant("chaos.drop");
    record_attempt(/*was_dropped=*/true);
    return;
  }
  Message m;
  m.source = rank_;
  m.tag = p.tag;
  m.kind = MsgKind::kData;
  m.seq = p.seq;
  m.trace_id = p.trace_id;
  m.payload = p.payload;
  Mailbox& mb = world_.mailbox(p.dest);
  if (action.delay_seconds > 0.0) {
    cc.delays_injected += 1;
    cc.delay_modeled_seconds += action.delay_seconds;
    chaos_trace_instant("chaos.delay");
    mb.push_deferred(std::move(m), kDelayHoldPushes);
  } else if (action.reorder) {
    cc.reorders_injected += 1;
    chaos_trace_instant("chaos.reorder");
    mb.push_front(std::move(m));
  } else {
    mb.push(std::move(m));
  }
  if (action.duplicate) {
    cc.duplicates_injected += 1;
    chaos_trace_instant("chaos.duplicate");
    Message copy;
    copy.source = rank_;
    copy.tag = p.tag;
    copy.kind = MsgKind::kData;
    copy.seq = p.seq;
    copy.trace_id = p.trace_id;
    copy.payload = p.payload;
    mb.push(std::move(copy));
  }
  // One causal record per transmit call: the injected duplicate is the
  // same wire attempt, and the receiver discards it before delivery.
  record_attempt(/*was_dropped=*/false);
}

void Comm::service_reliable() {
  Mailbox& mb = world_.mailbox(rank_);
  Message ack;
  while (mb.try_pop_ack(ack)) {
    unacked_.remove_if([&](const PendingSend& p) {
      return p.dest == ack.source && p.tag == ack.tag && p.seq == ack.seq;
    });
    publish_unacked_depth();
  }
  if (unacked_.empty()) return;
  const FaultInjector& injector = *world_.fault_injector();
  const double now = steady_seconds();
  for (PendingSend& p : unacked_) {
    if (now < p.deadline) continue;
    if (p.attempts >= injector.max_retries()) {
      std::ostringstream what;
      what << "chaos: message to rank " << p.dest << " (tag " << p.tag
           << ", seq " << p.seq << ", " << p.payload.size()
           << " bytes) unacknowledged after " << p.attempts << " attempts";
      throw ChaosError(ChaosError::Kind::kRetransmitTimeout, what.str());
    }
    p.attempts += 1;
    p.deadline = now + injector.retry_timeout_seconds();
    world_.chaos_counters(rank_).retransmits += 1;
    transmit(p);
  }
}

void Comm::send_ack(const Message& received) {
  // Acks ride the control plane: pushed directly and never faulted.
  // Faulting acks could strand a retransmission after the receiving rank
  // has exited (it would never re-ack); data-plane faults already
  // exercise every protocol path. They stay out of messages_sent (the
  // α–β model never saw them) but are attributed as zero-byte protocol
  // messages in the matrix's chaos columns and the chaos_acks counter.
  Message ack;
  ack.source = rank_;
  ack.tag = received.tag;
  ack.kind = MsgKind::kAck;
  ack.seq = received.seq;
  ack.trace_id = received.trace_id;
  world_.mailbox(received.source).push(std::move(ack));
  world_.chaos_counters(rank_).acks_sent += 1;
  counters().chaos_acks_sent += 1;
  world_.comm_matrix().at(rank_, received.source).chaos_messages += 1;
  if (obs::MsgTrace* mt = obs::MsgTrace::current()) {
    obs::MsgRecord r;
    r.kind = obs::MsgRecord::kAck;
    r.collective = is_collective_tag(received.tag);
    r.peer = received.source;
    r.tag = received.tag;
    r.id = received.trace_id;
    r.seq = received.seq;
    r.post_us = mt->now_us();
    r.wire_us = r.post_us;
    mt->record(r);
  }
}

bool Comm::take_from_stash(int source, int tag, Message& out) {
  for (auto& [key, channel] : recv_channels_) {
    if (source != kAnySource && key.first != source) continue;
    if (tag != kAnyTag && key.second != tag) continue;
    const auto it = channel.stash.find(channel.next_seq);
    if (it == channel.stash.end()) continue;
    out = std::move(it->second);
    channel.stash.erase(it);
    channel.next_seq += 1;
    return true;
  }
  return false;
}

Message Comm::reliable_recv(int source, int tag) {
  Mailbox& mb = world_.mailbox(rank_);
  ChaosCounters& cc = world_.chaos_counters(rank_);
  for (;;) {
    service_reliable();
    Message m;
    if (take_from_stash(source, tag, m)) return m;
    if (!mb.pop_for(source, tag, kReliablePollSeconds, m)) continue;
    // Ack every received copy — the sender may be retransmitting because
    // an earlier copy's ack raced its timeout.
    send_ack(m);
    RecvChannel& channel = recv_channels_[{m.source, m.tag}];
    if (m.seq < channel.next_seq || channel.stash.count(m.seq) != 0) {
      cc.duplicates_discarded += 1;
      continue;
    }
    if (m.seq == channel.next_seq) {
      channel.next_seq += 1;
      return m;
    }
    cc.out_of_order_stashed += 1;
    channel.stash.emplace(m.seq, std::move(m));
  }
}

void Comm::flush_sends() {
  if (world_.fault_injector() == nullptr) return;
  while (!unacked_.empty()) {
    service_reliable();
    if (unacked_.empty()) break;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(kReliablePollSeconds));
  }
}

// ---------------------------------------------------------------------------
// Non-blocking point-to-point

bool Request::test() {
  if (done_) return true;
  if (kind_ != Kind::kRecv || comm_ == nullptr) return done_;
  Message m;
  if (comm_->try_recv_message(peer_, tag_, m)) {
    message_ = std::move(m);
    done_ = true;
  }
  return done_;
}

Message& Request::wait() {
  if (done_) return message_;
  if (kind_ != Kind::kRecv || comm_ == nullptr) {
    throw std::logic_error("mpisim: wait on an empty request");
  }
  message_ = comm_->recv_message(peer_, tag_);
  done_ = true;
  return message_;
}

void wait_all(std::span<Request> requests) {
  for (Request& r : requests) {
    if (!r.empty()) r.wait();
  }
}

Request Comm::isend_bytes(int dest, int tag,
                          std::span<const std::byte> payload) {
  send_bytes(dest, tag, payload);
  return Request(this, Request::Kind::kSend, dest, tag, /*done=*/true);
}

Request Comm::irecv(int source, int tag) {
  return Request(this, Request::Kind::kRecv, source, tag, /*done=*/false);
}

bool Comm::try_recv_message(int source, int tag, Message& out) {
  const double t0 = util::thread_cpu_seconds();
  obs::MsgTrace* mt = obs::MsgTrace::current();
  const double post_us = mt != nullptr ? mt->now_us() : 0.0;
  const bool got = world_.fault_injector() != nullptr
                       ? reliable_try_recv(source, tag, out)
                       : world_.mailbox(rank_).try_pop(source, tag, out);
  PerfCounters& c = counters();
  if (got) {
    c.messages_received += 1;
    c.bytes_received += out.payload.size();
    if (is_collective_tag(out.tag)) {
      c.collective_messages_received += 1;
      c.collective_bytes_received += out.payload.size();
    }
    if (mt != nullptr) {
      obs::MsgRecord r;
      r.kind = obs::MsgRecord::kRecv;
      r.collective = is_collective_tag(out.tag);
      r.peer = out.source;
      r.tag = out.tag;
      r.id = out.trace_id;
      r.seq = out.seq;
      r.bytes = out.payload.size();
      r.post_us = post_us;
      r.wire_us = mt->now_us();
      mt->record(r);
    }
  }
  c.comm_cpu_seconds += util::thread_cpu_seconds() - t0;
  return got;
}

bool Comm::reliable_try_recv(int source, int tag, Message& out) {
  Mailbox& mb = world_.mailbox(rank_);
  ChaosCounters& cc = world_.chaos_counters(rank_);
  for (;;) {
    service_reliable();
    if (take_from_stash(source, tag, out)) return true;
    Message m;
    if (!mb.try_pop(source, tag, m)) return false;
    send_ack(m);
    RecvChannel& channel = recv_channels_[{m.source, m.tag}];
    if (m.seq < channel.next_seq || channel.stash.count(m.seq) != 0) {
      cc.duplicates_discarded += 1;
      continue;  // consumed a duplicate; look again without blocking
    }
    if (m.seq == channel.next_seq) {
      channel.next_seq += 1;
      out = std::move(m);
      return true;
    }
    cc.out_of_order_stashed += 1;
    channel.stash.emplace(m.seq, std::move(m));
    // The popped copy overtook its channel; keep draining — the in-order
    // message may already be queued behind it.
  }
}

Message Comm::sendrecv_bytes(int dest, int send_tag,
                             std::span<const std::byte> payload, int source,
                             int recv_tag) {
  send_bytes(dest, send_tag, payload);
  return recv_message(source, recv_tag);
}

bool Comm::iprobe(int source, int tag) {
  if (world_.fault_injector() != nullptr) {
    service_reliable();
    for (const auto& [key, channel] : recv_channels_) {
      if (source != kAnySource && key.first != source) continue;
      if (tag != kAnyTag && key.second != tag) continue;
      if (channel.stash.count(channel.next_seq) != 0) return true;
    }
  }
  return world_.mailbox(rank_).probe(source, tag);
}

}  // namespace tricount::mpisim
