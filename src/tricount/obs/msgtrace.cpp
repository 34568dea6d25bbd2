#include "tricount/obs/msgtrace.hpp"

#include <atomic>
#include <limits>

#include "tricount/util/log.hpp"
#include "tricount/util/time.hpp"

namespace tricount::obs {

namespace {

std::atomic<MsgTrace*> g_current{nullptr};

constexpr std::size_t kMaxLintViolations = 32;

constexpr const char* kSchema = "tricount.msgtrace.v1";

bool parse_kind(const std::string& text, MsgRecord::Kind& out) {
  if (text == "send") {
    out = MsgRecord::kSend;
  } else if (text == "recv") {
    out = MsgRecord::kRecv;
  } else if (text == "ack") {
    out = MsgRecord::kAck;
  } else {
    return false;
  }
  return true;
}

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

std::uint64_t MsgTrace::recorded() const {
  std::uint64_t total = 0;
  for (const Buffer& b : buffers_) total += b.records.size();
  return total;
}

std::uint64_t MsgTrace::dropped() const {
  std::uint64_t total = 0;
  for (const Buffer& b : buffers_) total += b.dropped;
  return total;
}

json::Value MsgTrace::to_json() const {
  json::Value root = json::Value::object();
  root.set("schema", kSchema);
  root.set("capacity", static_cast<double>(capacity_));
  root.set("recorded", static_cast<double>(recorded()));
  root.set("dropped", static_cast<double>(dropped()));
  json::Value run = json::Value::object();
  run.set("ranks", static_cast<double>(ranks_));
  root.set("run", std::move(run));

  json::Value ranks = json::Value::array();
  for (std::size_t i = 0; i < buffers_.size(); ++i) {
    const Buffer& buffer = buffers_[i];
    const bool trailing = i == static_cast<std::size_t>(ranks_);
    if (trailing && buffer.records.empty() && buffer.dropped == 0) continue;
    json::Value entry = json::Value::object();
    entry.set("rank", trailing ? -1.0 : static_cast<double>(i));
    entry.set("recorded", static_cast<double>(buffer.records.size()));
    entry.set("dropped", static_cast<double>(buffer.dropped));
    json::Value records = json::Value::array();
    for (const MsgRecord& r : buffer.records) {
      json::Value rec = json::Value::object();
      rec.set("kind", to_string(r.kind));
      rec.set("peer", static_cast<double>(r.peer));
      rec.set("tag", static_cast<double>(r.tag));
      rec.set("step", static_cast<double>(r.step));
      rec.set("gen", static_cast<double>(r.gen));
      rec.set("id", static_cast<double>(r.id));
      rec.set("seq", static_cast<double>(r.seq));
      rec.set("bytes", static_cast<double>(r.bytes));
      rec.set("post_us", r.post_us);
      rec.set("wire_us", r.wire_us);
      if (r.collective) rec.set("collective", true);
      if (r.dropped) rec.set("dropped", true);
      records.push_back(std::move(rec));
    }
    entry.set("records", std::move(records));
    ranks.push_back(std::move(entry));
  }
  root.set("ranks", std::move(ranks));
  return root;
}

std::vector<std::string> lint_msgtrace(const json::Value& root) {
  std::vector<std::string> violations;
  auto flag = [&](const std::string& what) {
    if (violations.size() < kMaxLintViolations) violations.push_back(what);
  };

  if (!root.is_object()) {
    flag("msgtrace: document is not an object");
    return violations;
  }
  const json::Value* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != kSchema) {
    flag(std::string("msgtrace: schema is not ") + kSchema);
  }
  int world = 0;
  const json::Value* run = root.find("run");
  if (run == nullptr || !run->is_object()) {
    flag("msgtrace: missing run object");
  } else {
    const json::Value* ranks = run->find("ranks");
    if (ranks == nullptr || !ranks->is_int(1)) {
      flag("msgtrace: run.ranks is not an integer in [1, 2^31)");
    } else {
      world = ranks->as_int();
    }
  }
  // Without a valid world size, ids are checked against int's range.
  const int last_rank =
      world > 0 ? world - 1 : std::numeric_limits<int>::max();
  const json::Value* buffers = root.find("ranks");
  if (buffers == nullptr || !buffers->is_array()) {
    flag("msgtrace: missing ranks array");
    return violations;
  }
  if (buffers->size() < static_cast<std::size_t>(world)) {
    flag("msgtrace: fewer rank buffers than run.ranks");
  }
  for (std::size_t b = 0; b < buffers->size(); ++b) {
    const json::Value& entry = buffers->at(b);
    const std::string where = "ranks[" + std::to_string(b) + "]";
    if (!entry.is_object()) {
      flag("msgtrace: " + where + " is not an object");
      continue;
    }
    const json::Value* rank = entry.find("rank");
    if (rank == nullptr || !rank->is_int(-1, last_rank)) {
      flag("msgtrace: " + where + ".rank out of range");
    }
    const json::Value* records = entry.find("records");
    if (records == nullptr || !records->is_array()) {
      flag("msgtrace: " + where + " has no records array");
      continue;
    }
    const json::Value* recorded = entry.find("recorded");
    if (recorded == nullptr || !recorded->is_uint() ||
        recorded->as_uint() != records->size()) {
      flag("msgtrace: " + where + ".recorded disagrees with records length");
    }
    double last_wire = 0.0;
    for (std::size_t i = 0; i < records->size(); ++i) {
      if (violations.size() >= kMaxLintViolations) return violations;
      const json::Value& rec = records->at(i);
      const std::string at = where + ".records[" + std::to_string(i) + "]";
      if (!rec.is_object()) {
        flag("msgtrace: " + at + " is not an object");
        continue;
      }
      const json::Value* kind = rec.find("kind");
      MsgRecord::Kind parsed = MsgRecord::kSend;
      if (kind == nullptr || !kind->is_string() ||
          !parse_kind(kind->as_string(), parsed)) {
        flag("msgtrace: " + at + " has unknown kind");
      }
      const json::Value* peer = rec.find("peer");
      if (peer == nullptr || !peer->is_int(0, last_rank)) {
        flag("msgtrace: " + at + ".peer out of range");
      }
      const json::Value* step = rec.find("step");
      if (step == nullptr || !step->is_int(-1)) {
        flag("msgtrace: " + at + ".step is not an integer >= -1");
      }
      const json::Value* gen = rec.find("gen");
      if (gen == nullptr || !gen->is_int(0)) {
        flag("msgtrace: " + at + ".gen is not an integer >= 0");
      }
      const json::Value* bytes = rec.find("bytes");
      if (bytes == nullptr || !bytes->is_uint()) {
        flag("msgtrace: " + at + ".bytes is not an integer >= 0");
      }
      const json::Value* post = rec.find("post_us");
      const json::Value* wire = rec.find("wire_us");
      if (post == nullptr || !post->is_number() || wire == nullptr ||
          !wire->is_number()) {
        flag("msgtrace: " + at + " missing post_us/wire_us");
        continue;
      }
      if (wire->as_number() < post->as_number()) {
        flag("msgtrace: " + at + " wire_us precedes post_us");
      }
      if (i > 0 && wire->as_number() < last_wire) {
        flag("msgtrace: " + at + " wire_us regressed within the rank");
      }
      last_wire = wire->as_number();
    }
  }
  return violations;
}

}  // namespace tricount::obs
