#include "tricount/obs/msgtrace.hpp"

#include <atomic>
#include <set>

#include "tricount/obs/build_info.hpp"
#include "tricount/util/log.hpp"
#include "tricount/util/time.hpp"

namespace tricount::obs {

namespace {

std::atomic<MsgTrace*> g_current{nullptr};

}  // namespace

const char* to_string(MsgRecord::Kind kind) {
  switch (kind) {
    case MsgRecord::kSend: return "send";
    case MsgRecord::kRecv: return "recv";
    case MsgRecord::kAck: return "ack";
  }
  return "?";
}

MsgTrace::MsgTrace(int ranks, std::size_t capacity)
    : ranks_(ranks < 0 ? 0 : ranks),
      capacity_(capacity == 0 ? 1 : capacity),
      epoch_seconds_(util::wall_seconds()),
      buffers_(static_cast<std::size_t>(ranks_) + 1) {}

MsgTrace::~MsgTrace() {
  MsgTrace* expected = this;
  g_current.compare_exchange_strong(expected, nullptr);
}

void MsgTrace::install() { g_current.store(this); }

void MsgTrace::uninstall() {
  MsgTrace* expected = this;
  g_current.compare_exchange_strong(expected, nullptr);
}

MsgTrace* MsgTrace::current() {
  return g_current.load(std::memory_order_relaxed);
}

std::size_t MsgTrace::buffer_index_for_caller() const {
  const int rank = util::current_rank();
  return (rank >= 0 && rank < ranks_) ? static_cast<std::size_t>(rank)
                                      : static_cast<std::size_t>(ranks_);
}

MsgTrace::Buffer& MsgTrace::buffer_for_caller() {
  return buffers_[buffer_index_for_caller()];
}

std::uint64_t MsgTrace::next_trace_id() {
  const std::size_t index = buffer_index_for_caller();
  // High bits carry the buffer index, low bits its local sequence: ids
  // are process-unique without any cross-thread synchronization.
  return (static_cast<std::uint64_t>(index + 1) << 40) |
         ++buffers_[index].id_seq;
}

double MsgTrace::now_us() const {
  return (util::wall_seconds() - epoch_seconds_) * 1e6;
}

void MsgTrace::note_superstep(int step) { buffer_for_caller().step = step; }

void MsgTrace::record(MsgRecord r) {
  Buffer& buffer = buffer_for_caller();
  if (buffer.records.size() >= capacity_) {
    buffer.dropped += 1;
    return;
  }
  r.step = buffer.step;
  buffer.records.push_back(r);
}

Trace MsgTrace::trace() const {
  Trace out;
  json::Value rings = json::Value::array();
  std::set<std::uint64_t> started;  // trace ids whose flow has its 's'
  for (std::size_t index = 0; index < buffers_.size(); ++index) {
    const bool world = index == static_cast<std::size_t>(ranks_);
    const int tid = world ? 0 : static_cast<int>(index) + 1;
    const Buffer& buffer = buffers_[index];
    out.set_thread_name(tid, world ? "world" : "rank " + std::to_string(index));
    for (const MsgRecord& r : buffer.records) {
      out.add_complete(tid, to_string(r.kind), kMsgCategory, r.post_us,
                       r.wire_us - r.post_us,
                       {{"peer", r.peer},
                        {"tag", r.tag},
                        {"step", r.step},
                        {"gen", r.gen},
                        {"id", static_cast<double>(r.id)},
                        {"seq", static_cast<double>(r.seq)},
                        {"bytes", static_cast<double>(r.bytes)},
                        {"collective", r.collective ? 1.0 : 0.0},
                        {"dropped", r.dropped ? 1.0 : 0.0}});
      if (r.kind == MsgRecord::kSend && !r.dropped &&
          started.insert(r.id).second) {
        out.add_flow('s', tid, kMsgCategory, kMsgCategory, r.post_us, r.id);
      } else if (r.kind == MsgRecord::kRecv) {
        out.add_flow('f', tid, kMsgCategory, kMsgCategory, r.post_us, r.id);
      }
    }
    json::Value ring = json::Value::object();
    ring.set("tid", tid);
    ring.set("recorded", static_cast<std::uint64_t>(buffer.records.size()));
    ring.set("dropped", buffer.dropped);
    rings.push_back(std::move(ring));
  }
  json::Value& other = out.other_data();
  other.set("ranks", ranks_);
  other.set("capacity", static_cast<std::uint64_t>(capacity_));
  other.set("rings", std::move(rings));
  other.set("build", build_info_json());
  return out;
}

}  // namespace tricount::obs
