// Chrome trace-event JSON: the one file format for timed events.
//
// Four producers fill the same Trace container:
//
//  * The flight recorder (obs/flight.hpp): FlightRecorder::trace() turns
//    the measured spans, instants and counters in its per-rank rings into
//    a Trace, and every flight dump is that trace written to one file.
//    Its live view (live_trace()) is what `--flight-telemetry` and
//    `tricountd --telemetry` publish for `tricount_top`.
//
//  * The message trace (obs/msgtrace.hpp): MsgTrace::trace() turns each
//    captured message record into a `msg` span and joins each message's
//    send to its receive with a flow pair.
//
//  * The service session (service/service.hpp): one span per executed
//    request on the dispatcher's tid, one instant per shed or rejected
//    request, and the session tallies in `otherData.session`.
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

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tricount/obs/json.hpp"

namespace tricount::obs {

/// Numeric event arguments, in order (the trace format's `args`).
using TraceArgs = std::vector<std::pair<std::string, double>>;

/// One exported event. `ph` is the trace-event phase: 'X' (complete span),
/// 'i' (instant), 'C' (counter), or 's'/'f' (the start and finish of a
/// flow arrow). Timestamps are microseconds, as the format requires.
struct TraceEvent {
  std::string name;
  std::string cat;
  char ph = 'X';
  int tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;  ///< spans only
  TraceArgs args;
  std::uint64_t id = 0;  ///< flows only: the id both ends share

  /// The arg named `key`, or nullptr when the event has none.
  const double* arg(std::string_view key) const;
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
  /// One end of flow `id`: ph 's' starts it, ph 'f' finishes it (written
  /// with `bp: "e"`, binding to the slice that encloses `ts_us`).
  void add_flow(char ph, int tid, std::string name, std::string cat,
                double ts_us, std::uint64_t id);

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
  /// Writes the trace to `path` atomically: to a temporary name unique to
  /// this call, then renamed over `path`. A reader never sees a torn
  /// file, and two writers of one path never share a temporary.
  void publish(const std::string& path) const;

  /// Rebuilds a Trace from to_json() output (or any trace file using the
  /// same subset). Throws std::runtime_error on schema violations.
  static Trace from_json(const json::Value& root);

 private:
  std::vector<TraceEvent> events_;
  std::vector<std::pair<int, std::string>> thread_names_;
  json::Value other_data_ = json::Value::object();
};

/// The layout of a service session trace, which Service::session_artifact()
/// writes and lint_trace checks (docs/service.md, "Observability").
namespace session_trace {
/// Shed and rejected requests: one instant each, with the `kId` arg.
inline constexpr int kAdmissionTid = 0;
/// Executed requests: one span each, with all six args below. The
/// dispatcher runs one request at a time, so its spans never overlap.
inline constexpr int kDispatcherTid = 1;
inline constexpr const char* kId = "id";
inline constexpr const char* kGraphVersion = "graph_version";
inline constexpr const char* kBatched = "batched";  ///< 0 or 1
inline constexpr const char* kOk = "ok";            ///< 0 or 1
inline constexpr const char* kSupersteps = "supersteps";
inline constexpr const char* kQueueUs = "queue_us";  ///< admission wait
/// An ok span's category: its cache disposition. The category of a
/// failed span, and of every instant, is the request's error code.
inline constexpr std::string_view kHit = "hit";    ///< from the result cache
inline constexpr std::string_view kMiss = "miss";  ///< computed and cached
/// A batch-local duplicate of a miss, answered without computing.
inline constexpr std::string_view kCoalesced = "coalesced";
inline constexpr std::string_view kNone = "none";  ///< not cacheable
}  // namespace session_trace

/// Checks span invariants and returns human-readable violations (empty
/// means the trace is well formed): non-empty names, non-negative
/// timestamps/durations, known phase codes, and — per tid — spans that
/// either nest properly or are disjoint (no partial overlap). A trace
/// with `msg` events or a `run` header in its otherData is a message
/// trace (docs/observability.md, "Causal message tracing") and also gets
/// its checks: the world size in `otherData.ranks`, each `msg` span's
/// name and integer args, span ends non-decreasing per tid in file order,
/// each ring's `recorded` equal to its span count, and — when no ring
/// dropped records — exactly one 's' and one 'f' per flow id. A trace
/// with `otherData.session` is a service session (docs/service.md,
/// "Observability") and also gets its checks: admitted + shed + rejected
/// equal the requests, one span per admitted request on the dispatcher's
/// tid and one instant per shed or rejected one on the admission tid,
/// integer request args (`ok` and `batched` 0 or 1), hits and coalesced
/// requests ran no superstep, an ok span's category is a cache
/// disposition and a failed span's or an instant's its error code, the
/// cache hits equal the `hit` spans, the delta block equals the
/// `tc.delta.*` counters and agrees with the ok `graph.apply` and
/// `graph.window` spans, and the latency quantiles are monotone.
std::vector<std::string> lint_trace(const Trace& trace);

}  // namespace tricount::obs
