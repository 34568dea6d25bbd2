#include "tricount/obs/trace.hpp"

#include <algorithm>
#include <stdexcept>

#include "tricount/util/log.hpp"
#include "tricount/util/time.hpp"

namespace tricount::obs {

// ---------------------------------------------------------------------------
// Trace

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
                         double ts_us, double dur_us,
                         std::vector<std::pair<std::string, double>> args) {
  TraceEvent e;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.ph = 'X';
  e.tid = tid;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void Trace::add_instant(int tid, std::string name, std::string cat,
                        double ts_us) {
  TraceEvent e;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.ph = 'i';
  e.tid = tid;
  e.ts_us = ts_us;
  events_.push_back(std::move(e));
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
  return root;
}

void Trace::write_file(const std::string& path) const {
  json::write_file(to_json(), path);
}

Trace Trace::from_json(const json::Value& root) {
  const json::Value* events = root.is_array() ? &root : root.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    throw std::runtime_error("trace: missing traceEvents array");
  }
  Trace out;
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
  std::vector<std::string> violations;
  auto violation = [&](const std::string& what) {
    if (violations.size() < 32) violations.push_back(what);
  };

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
    if (e.ph != 'X' && e.ph != 'i') {
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
  const double eps = 5e-3;  // 5 ns in µs: absorbs float rounding
  for (auto& [tid, spans] : per_tid) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      if (a.start != b.start) return a.start < b.start;
      return a.end > b.end;
    });
    std::vector<const Span*> open;
    for (const Span& s : spans) {
      while (!open.empty() && open.back()->end <= s.start + eps) {
        open.pop_back();
      }
      if (!open.empty() && open.back()->end < s.end - eps) {
        violation("spans overlap without nesting on tid " +
                  std::to_string(tid) + ": '" + open.back()->event->name +
                  "' vs '" + s.event->name + "'");
      }
      open.push_back(&s);
    }
  }
  return violations;
}

// ---------------------------------------------------------------------------
// Tracer

std::atomic<Tracer*> Tracer::g_current{nullptr};

Tracer::Tracer(int ranks)
    : ranks_(ranks),
      epoch_seconds_(util::wall_seconds()),
      buffers_(static_cast<std::size_t>(ranks) + 1) {
  if (ranks <= 0) throw std::invalid_argument("Tracer: ranks must be > 0");
}

Tracer::~Tracer() {
  Tracer* expected = this;
  g_current.compare_exchange_strong(expected, nullptr);
}

void Tracer::install() { g_current.store(this); }

void Tracer::uninstall() {
  Tracer* expected = this;
  g_current.compare_exchange_strong(expected, nullptr);
}

Tracer::Buffer& Tracer::buffer_for_caller() {
  const int rank = util::current_rank();
  const std::size_t index = (rank >= 0 && rank < ranks_)
                                ? static_cast<std::size_t>(rank)
                                : static_cast<std::size_t>(ranks_);
  return buffers_[index];
}

double Tracer::now_us() const {
  return (util::wall_seconds() - epoch_seconds_) * 1e6;
}

void Tracer::begin(const char* name, const char* cat) {
  Buffer& buffer = buffer_for_caller();
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ph = 'X';
  e.tid = util::current_rank() + 1;
  e.ts_us = now_us();
  e.dur_us = -1.0;
  buffer.open.push_back(buffer.events.size());
  buffer.events.push_back(std::move(e));
}

void Tracer::end() {
  Buffer& buffer = buffer_for_caller();
  if (buffer.open.empty()) {
    throw std::logic_error("Tracer: end() without a matching begin()");
  }
  TraceEvent& e = buffer.events[buffer.open.back()];
  buffer.open.pop_back();
  e.dur_us = now_us() - e.ts_us;
}

void Tracer::instant(const char* name, const char* cat) {
  Buffer& buffer = buffer_for_caller();
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ph = 'i';
  e.tid = util::current_rank() + 1;
  e.ts_us = now_us();
  buffer.events.push_back(std::move(e));
}

Trace Tracer::collect() const {
  Trace out;
  out.set_thread_name(0, "driver");
  for (int r = 0; r < ranks_; ++r) {
    out.set_thread_name(r + 1, "rank " + std::to_string(r));
  }
  std::vector<TraceEvent> merged;
  for (const Buffer& buffer : buffers_) {
    if (!buffer.open.empty()) {
      throw std::logic_error(
          "Tracer: collect() with " + std::to_string(buffer.open.size()) +
          " unclosed span(s) — begin/end calls are unbalanced");
    }
    merged.insert(merged.end(), buffer.events.begin(), buffer.events.end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  for (TraceEvent& e : merged) {
    if (e.ph == 'X') {
      out.add_complete(e.tid, std::move(e.name), std::move(e.cat), e.ts_us,
                       e.dur_us, std::move(e.args));
    } else {
      out.add_instant(e.tid, std::move(e.name), std::move(e.cat), e.ts_us);
    }
  }
  return out;
}

}  // namespace tricount::obs
