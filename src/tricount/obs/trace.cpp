#include "tricount/obs/trace.hpp"

#include <algorithm>
#include <stdexcept>

namespace tricount::obs {

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
  root.set("otherData", other_data_);
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
    if (e.ph != 'X' && e.ph != 'i' && e.ph != 'C') {
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

}  // namespace tricount::obs
