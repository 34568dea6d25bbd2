#include "tricount/obs/trace.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <map>
#include <stdexcept>

#include "tricount/obs/msgtrace.hpp"

namespace tricount::obs {

namespace {

/// Collects at most 32 violations.
struct Violations {
  std::vector<std::string> list;
  void operator()(const std::string& what) {
    if (list.size() < 32) list.push_back(what);
  }
};

const double kEps = 5e-3;  // 5 ns in µs: absorbs float rounding

/// The checks of a message trace (MsgTrace::trace()): one `msg` span per
/// captured record, on the tid of the buffer that recorded it, and one
/// flow pair per message.
void lint_messages(const Trace& trace, Violations& violation) {
  const json::Value& other = trace.other_data();
  int world = 0;
  if (const json::Value* ranks = other.find("ranks");
      ranks == nullptr || !ranks->is_int(1)) {
    violation("msg: otherData.ranks is not an integer in [1, 2^31)");
  } else {
    world = ranks->as_int();
  }
  // Without a valid world size, peers are checked against int's range.
  constexpr int kIntMax = std::numeric_limits<int>::max();
  const int last_rank = world > 0 ? world - 1 : kIntMax;

  struct Timeline {
    std::uint64_t spans = 0;
    double last_end = 0.0;
  };
  std::map<int, Timeline> timelines;
  std::map<std::uint64_t, std::pair<int, int>> flows;  // id -> (s, f)
  for (const TraceEvent& e : trace.events()) {
    if (e.cat != kMsgCategory) continue;
    if (e.ph == 's' || e.ph == 'f') {
      ++(e.ph == 's' ? flows[e.id].first : flows[e.id].second);
    }
    if (e.ph != 'X') continue;
    const std::string at =
        "msg '" + e.name + "' on tid " + std::to_string(e.tid);
    if (e.name != to_string(MsgRecord::kSend) &&
        e.name != to_string(MsgRecord::kRecv) &&
        e.name != to_string(MsgRecord::kAck)) {
      violation(at + " has an unknown name");
    }
    if (e.tid < 0 || (world > 0 && e.tid > world)) {
      violation(at + " is on no ring's tid");
    }
    const auto int_arg = [&](const char* key, int lo, int hi,
                             const char* what) {
      const double* v = e.arg(key);
      if (v == nullptr || !json::Value(*v).is_int(lo, hi)) {
        violation(at + ": " + key + " " + what);
      }
    };
    int_arg("peer", 0, last_rank, "is outside the world");
    int_arg("step", -1, kIntMax, "is not an integer >= -1");
    int_arg("gen", 0, kIntMax, "is not an integer >= 0");
    if (const double* bytes = e.arg("bytes");
        bytes == nullptr || !json::Value(*bytes).is_uint()) {
      violation(at + ": bytes is not an integer >= 0");
    }
    // A buffer records in wire order, so span ends never run backwards
    // within a tid (posts may: a retransmit re-stamps its post).
    Timeline& timeline = timelines[e.tid];
    const double end = e.ts_us + e.dur_us;
    if (timeline.spans++ > 0 && end < timeline.last_end - kEps) {
      violation(at + " ends before the span recorded before it");
    }
    timeline.last_end = end;
  }

  std::uint64_t dropped = 0;
  try {
    const json::Value& rings = other.get("rings");
    if (world > 0 && rings.size() != static_cast<std::size_t>(world) + 1) {
      violation("msg: otherData.rings is not one ring per rank plus the "
                "world ring");
    }
    for (std::size_t i = 0; i < rings.size(); ++i) {
      const json::Value& ring = rings.at(i);
      const int tid = ring.get("tid").as_int();
      dropped += ring.get("dropped").as_uint();
      if (ring.get("recorded").as_uint() != timelines[tid].spans) {
        violation("msg: the ring of tid " + std::to_string(tid) +
                  " recorded other than its span count");
      }
    }
  } catch (const std::exception& e) {
    violation(std::string("msg: otherData.rings: ") + e.what());
  }
  // A full buffer stops recording, so a truncated capture may hold one
  // end of a flow without the other; it never holds an end twice.
  for (const auto& [id, ends] : flows) {
    if (ends.first > 1 || ends.second > 1 ||
        (dropped == 0 && ends.first != ends.second)) {
      violation("msg: flow " + std::to_string(id) + " has " +
                std::to_string(ends.first) + " start(s) and " +
                std::to_string(ends.second) + " finish(es)");
    }
  }
}

/// The checks of a service session trace (Service::session_artifact(),
/// laid out as session_trace declares): one span per executed request,
/// one instant per shed or rejected request, and the tallies in
/// otherData.session.
void lint_session(const Trace& trace, Violations& violation) {
  namespace st = session_trace;
  const auto cache_tag = [](std::string_view cat) {
    return cat == st::kHit || cat == st::kMiss || cat == st::kCoalesced ||
           cat == st::kNone;
  };
  // A failed request's category; an empty one is written as "default".
  const auto error_code = [&](std::string_view cat) {
    return !cat.empty() && cat != "default" && !cache_tag(cat);
  };
  try {
    const json::Value& other = trace.other_data();
    if (const json::Value* ranks = other.find("ranks");
        ranks == nullptr || !ranks->is_int(1)) {
      violation("session: otherData.ranks is not an integer >= 1");
    }
    const json::Value& session = other.get("session");
    const std::uint64_t admitted = session.get("admitted").as_uint();
    const std::uint64_t shed = session.get("shed").as_uint();
    const std::uint64_t rejected = session.get("rejected").as_uint();
    if (admitted + shed + rejected != session.get("requests").as_uint()) {
      violation("session: admitted + shed + rejected != requests");
    }

    std::uint64_t spans = 0;
    std::uint64_t shed_instants = 0;
    std::uint64_t rejected_instants = 0;
    std::uint64_t hits = 0;
    std::uint64_t ok_applies = 0;
    std::uint64_t ok_windows = 0;
    for (const TraceEvent& e : trace.events()) {
      const std::string at =
          (e.ph == 'i' ? "request instant '" : "request span '") + e.name +
          "'";
      // The arg `key` when it is an unsigned integer (at most 1 for a
      // flag), else nullptr and a violation.
      const auto uint_arg = [&](const char* key, bool flag) -> const double* {
        const double* v = e.arg(key);
        if (v != nullptr && json::Value(*v).is_uint() && (!flag || *v <= 1.0)) {
          return v;
        }
        violation(at + ": " + key +
                  (flag ? " is not 0 or 1" : " is not an unsigned integer"));
        return nullptr;
      };
      if (e.ph == 'i') {
        if (e.tid != st::kAdmissionTid) {
          violation(at + ": not on the admission tid");
        }
        uint_arg(st::kId, false);
        if (!error_code(e.cat)) {
          violation(at + ": shed or rejected request without an error code");
        }
        ++(e.cat == "shed" ? shed_instants : rejected_instants);
        continue;
      }
      if (e.ph != 'X') {
        violation("session: event '" + e.name + "' is neither a request "
                  "span nor a request instant");
        continue;
      }
      ++spans;
      if (e.tid != st::kDispatcherTid) {
        violation(at + ": not on the dispatcher tid");
      }
      uint_arg(st::kId, false);
      uint_arg(st::kGraphVersion, false);
      uint_arg(st::kBatched, true);
      const double* ok = uint_arg(st::kOk, true);
      const double* supersteps = uint_arg(st::kSupersteps, false);
      const double* queue_us = e.arg(st::kQueueUs);
      if (queue_us == nullptr || *queue_us < 0.0) {
        violation(at + ": queue_us is missing or negative");
      }
      if ((e.cat == st::kHit || e.cat == st::kCoalesced) &&
          supersteps != nullptr && *supersteps != 0.0) {
        violation(at + ": cache " + e.cat + " ran supersteps");
      }
      if (e.cat == st::kHit) ++hits;
      if (ok == nullptr) continue;
      if (*ok == 0.0) {
        if (!error_code(e.cat)) {
          violation(at + ": failed request without an error code");
        }
      } else if (!cache_tag(e.cat)) {
        violation(at + ": unknown cache disposition '" + e.cat + "'");
      } else if (e.name == "graph.apply") {
        ++ok_applies;
      } else if (e.name == "graph.window") {
        ++ok_windows;
      }
    }
    if (spans != admitted) violation("session: request spans != admitted");
    if (shed_instants != shed) violation("session: shed instants != shed");
    if (rejected_instants != rejected) {
      violation("session: rejected instants != rejected");
    }
    if (session.get("cache").get("hits").as_uint() != hits) {
      violation("session.cache.hits != number of 'hit' spans");
    }

    // Streaming maintenance: the delta block, the tc.delta.* counters and
    // the request spans must agree.
    const json::Value& delta = session.get("delta");
    const std::uint64_t batches = delta.get("batches").as_uint();
    if (batches == 0 && (delta.get("edges_applied").as_uint() != 0 ||
                         delta.get("triangles_added").as_uint() != 0 ||
                         delta.get("triangles_removed").as_uint() != 0)) {
      violation("session.delta: nonzero tallies without any batch");
    }
    if (const json::Value* metrics = other.find("metrics")) {
      const json::Value* counters = metrics->find("counters");
      for (const char* field : {"batches", "edges_applied", "wedges_probed",
                                "triangles_added", "triangles_removed"}) {
        const std::string name = std::string("tc.delta.") + field;
        const json::Value* v =
            counters != nullptr ? counters->find(name) : nullptr;
        if ((v != nullptr ? v->as_uint() : 0) != delta.get(field).as_uint()) {
          violation(std::string("session.delta.") + field +
                    " != metrics counter " + name);
        }
      }
    }
    // Every applied batch came from an ok graph.apply or graph.window;
    // a window that evicted nothing applies no batch.
    if (batches < ok_applies || batches > ok_applies + ok_windows) {
      violation("session.delta.batches inconsistent with the ok "
                "graph.apply/graph.window spans");
    }

    const json::Value& latency = session.get("latency_us");
    if (latency.get("count").as_uint() > 0) {
      const double p50 = latency.get("p50").as_number();
      const double p95 = latency.get("p95").as_number();
      const double p99 = latency.get("p99").as_number();
      if (!(p50 <= p95 && p95 <= p99)) {
        violation("session.latency_us: quantiles not monotone");
      }
    }
  } catch (const std::exception& e) {
    violation(std::string("session: otherData.session: ") + e.what());
  }
}

}  // namespace

const double* TraceEvent::arg(std::string_view key) const {
  for (const auto& [arg_name, value] : args) {
    if (arg_name == key) return &value;
  }
  return nullptr;
}

void Trace::set_thread_name(int tid, std::string name) {
  for (auto& [existing_tid, existing_name] : thread_names_) {
    if (existing_tid == tid) {
      existing_name = std::move(name);
      return;
    }
  }
  thread_names_.emplace_back(tid, std::move(name));
}

void Trace::add_complete(int tid, std::string name, std::string cat,
                         double ts_us, double dur_us, TraceArgs args) {
  events_.push_back(TraceEvent{std::move(name), std::move(cat), 'X', tid,
                               ts_us, dur_us, std::move(args)});
}

void Trace::add_instant(int tid, std::string name, std::string cat,
                        double ts_us, TraceArgs args) {
  events_.push_back(TraceEvent{std::move(name), std::move(cat), 'i', tid,
                               ts_us, 0.0, std::move(args)});
}

void Trace::add_counter(int tid, std::string name, std::string cat,
                        double ts_us, double value) {
  events_.push_back(TraceEvent{std::move(name), std::move(cat), 'C', tid,
                               ts_us, 0.0, {{"value", value}}});
}

void Trace::add_flow(char ph, int tid, std::string name, std::string cat,
                     double ts_us, std::uint64_t id) {
  events_.push_back(TraceEvent{std::move(name), std::move(cat), ph, tid,
                               ts_us, 0.0, {}, id});
}

json::Value Trace::to_json() const {
  json::Value events = json::Value::array();
  for (const auto& [tid, name] : thread_names_) {
    json::Value meta = json::Value::object();
    meta.set("name", "thread_name");
    meta.set("ph", "M");
    meta.set("pid", 0);
    meta.set("tid", tid);
    json::Value args = json::Value::object();
    args.set("name", name);
    meta.set("args", std::move(args));
    events.push_back(std::move(meta));
  }
  for (const TraceEvent& e : events_) {
    json::Value event = json::Value::object();
    event.set("name", e.name);
    event.set("cat", e.cat.empty() ? "default" : e.cat);
    event.set("ph", std::string(1, e.ph));
    event.set("pid", 0);
    event.set("tid", e.tid);
    event.set("ts", e.ts_us);
    if (e.ph == 'X') event.set("dur", e.dur_us);
    if (e.ph == 'i') event.set("s", "t");  // instant scope: thread
    if (e.ph == 's' || e.ph == 'f') event.set("id", e.id);
    if (e.ph == 'f') event.set("bp", "e");  // bind to the enclosing slice
    if (!e.args.empty()) {
      json::Value args = json::Value::object();
      for (const auto& [key, value] : e.args) args.set(key, value);
      event.set("args", std::move(args));
    }
    events.push_back(std::move(event));
  }
  json::Value root = json::Value::object();
  root.set("traceEvents", std::move(events));
  root.set("displayTimeUnit", "ms");
  root.set("otherData", other_data_);
  return root;
}

void Trace::write_file(const std::string& path) const {
  json::write_file(to_json(), path);
}

void Trace::publish(const std::string& path) const {
  static std::atomic<std::uint64_t> serial{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(serial.fetch_add(1, std::memory_order_relaxed));
  try {
    write_file(tmp);
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("trace: cannot publish " + path);
  }
}

Trace Trace::from_json(const json::Value& root) {
  const json::Value* events = root.is_array() ? &root : root.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    throw std::runtime_error("trace: missing traceEvents array");
  }
  Trace out;
  if (const json::Value* other = root.find("otherData")) {
    if (!other->is_object()) {
      throw std::runtime_error("trace: otherData is not an object");
    }
    out.other_data_ = *other;
  }
  for (std::size_t i = 0; i < events->size(); ++i) {
    const json::Value& e = events->at(i);
    const std::string& ph = e.get("ph").as_string();
    if (ph.size() != 1) throw std::runtime_error("trace: bad ph");
    const int tid = e.get("tid").as_int();
    if (ph == "M") {
      if (e.get("name").as_string() == "thread_name") {
        out.set_thread_name(tid, e.get("args").get("name").as_string());
      }
      continue;
    }
    TraceEvent event;
    event.name = e.get("name").as_string();
    if (const json::Value* cat = e.find("cat")) event.cat = cat->as_string();
    event.ph = ph[0];
    event.tid = tid;
    event.ts_us = e.get("ts").as_number();
    if (event.ph == 'X') event.dur_us = e.get("dur").as_number();
    if (event.ph == 's' || event.ph == 'f') event.id = e.get("id").as_uint();
    if (const json::Value* args = e.find("args")) {
      for (const auto& [key, value] : args->members()) {
        if (value.is_number()) event.args.emplace_back(key, value.as_number());
      }
    }
    out.events_.push_back(std::move(event));
  }
  return out;
}

std::vector<std::string> lint_trace(const Trace& trace) {
  Violations violation;
  bool messages = false;

  struct Span {
    double start;
    double end;
    const TraceEvent* event;
  };
  // tid -> spans, collected in one pass.
  std::vector<std::pair<int, std::vector<Span>>> per_tid;
  auto spans_of = [&](int tid) -> std::vector<Span>& {
    for (auto& [t, spans] : per_tid) {
      if (t == tid) return spans;
    }
    per_tid.emplace_back(tid, std::vector<Span>{});
    return per_tid.back().second;
  };

  for (const TraceEvent& e : trace.events()) {
    if (e.name.empty()) violation("event with empty name");
    messages = messages || e.cat == kMsgCategory;
    if (e.ph != 'X' && e.ph != 'i' && e.ph != 'C' && e.ph != 's' &&
        e.ph != 'f') {
      violation("unknown phase code '" + std::string(1, e.ph) + "'");
      continue;
    }
    if (e.ts_us < 0) violation("negative timestamp in '" + e.name + "'");
    if (e.ph == 'X') {
      if (e.dur_us < 0) violation("negative duration in '" + e.name + "'");
      spans_of(e.tid).push_back(Span{e.ts_us, e.ts_us + e.dur_us, &e});
    }
  }

  // Per timeline, spans must either nest or be disjoint. Sort by start
  // (longer span first on ties, so a parent precedes the children it
  // starts with) and sweep with a stack of open spans.
  for (auto& [tid, spans] : per_tid) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      if (a.start != b.start) return a.start < b.start;
      return a.end > b.end;
    });
    std::vector<const Span*> open;
    for (const Span& s : spans) {
      while (!open.empty() && open.back()->end <= s.start + kEps) {
        open.pop_back();
      }
      if (!open.empty() && open.back()->end < s.end - kEps) {
        violation("spans overlap without nesting on tid " +
                  std::to_string(tid) + ": '" + open.back()->event->name +
                  "' vs '" + s.event->name + "'");
      }
      open.push_back(&s);
    }
  }
  if (messages || trace.other_data().find("run") != nullptr) {
    lint_messages(trace, violation);
  }
  if (trace.other_data().find("session") != nullptr) {
    lint_session(trace, violation);
  }
  return violation.list;
}

}  // namespace tricount::obs
