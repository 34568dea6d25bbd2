// Chrome trace-event JSON: the one file format for timed events.
//
// Two producers fill the same Trace container:
//
//  * The flight recorder (obs/flight.hpp): FlightRecorder::trace() turns
//    the measured spans, instants and counters in its per-rank rings into
//    a Trace, and every flight dump is that trace written to one file.
//
//  * The modeled run trace (core/artifacts.hpp): built after a run from
//    the per-superstep samples, on a virtual timeline where superstep
//    boundaries are aligned across ranks and communication spans are
//    drawn from the α–β model, so the timeline totals match
//    PhaseBreakdown::modeled_seconds exactly.
//
// The export format is the Chrome trace-event JSON object understood by
// chrome://tracing and Perfetto: one process, one "thread" per rank
// (tid = rank + 1; tid 0 is the cross-rank timeline), and run metadata in
// the top-level `otherData` object. See docs/observability.md.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "tricount/obs/json.hpp"

namespace tricount::obs {

/// Numeric event arguments, in order (the trace format's `args`).
using TraceArgs = std::vector<std::pair<std::string, double>>;

/// One exported event. `ph` is the trace-event phase: 'X' (complete span),
/// 'i' (instant) or 'C' (counter). Timestamps are microseconds, as the
/// format requires.
struct TraceEvent {
  std::string name;
  std::string cat;
  char ph = 'X';
  int tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;  ///< spans only
  TraceArgs args;
};

/// An ordered collection of events plus thread naming and run metadata,
/// serializable to (and parseable from) the Chrome trace-event JSON format.
class Trace {
 public:
  void set_thread_name(int tid, std::string name);
  void add_complete(int tid, std::string name, std::string cat, double ts_us,
                    double dur_us, TraceArgs args = {});
  void add_instant(int tid, std::string name, std::string cat, double ts_us,
                   TraceArgs args = {});
  /// A counter sample: one 'C' event whose args carry {"value": value}.
  void add_counter(int tid, std::string name, std::string cat, double ts_us,
                   double value);

  const std::vector<TraceEvent>& events() const { return events_; }
  const std::vector<std::pair<int, std::string>>& thread_names() const {
    return thread_names_;
  }
  /// The top-level `otherData` object (a JSON object; empty unless a
  /// producer records run metadata in it).
  json::Value& other_data() { return other_data_; }
  const json::Value& other_data() const { return other_data_; }

  /// {"traceEvents": [...], "otherData": {...}} with metadata events for
  /// thread names.
  json::Value to_json() const;
  void write_file(const std::string& path) const;

  /// Rebuilds a Trace from to_json() output (or any trace file using the
  /// same subset). Throws std::runtime_error on schema violations.
  static Trace from_json(const json::Value& root);

 private:
  std::vector<TraceEvent> events_;
  std::vector<std::pair<int, std::string>> thread_names_;
  json::Value other_data_ = json::Value::object();
};

/// Checks span invariants and returns human-readable violations (empty
/// means the trace is well formed): non-empty names, non-negative
/// timestamps/durations, known phase codes, and — per tid — spans that
/// either nest properly or are disjoint (no partial overlap).
std::vector<std::string> lint_trace(const Trace& trace);

}  // namespace tricount::obs
