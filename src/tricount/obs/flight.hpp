// Flight recorder: the one recorder of measured events. An always-on,
// bounded, lock-free ring of fixed-size records per rank
// (docs/observability.md) that overwrites its oldest records, so it can
// stay installed for a whole run or a whole service session. trace()
// turns the rings into a Chrome trace (obs/trace.hpp): spans, instants
// and counters, one tid per ring. dump() writes that trace as one file,
// and chaos crash injection, the mpisim hang watchdog and fatal signals
// all trigger a dump automatically, so the last few thousand events per
// rank survive exactly the runs that lose their post-mortem artifacts.
//
// The recorder also holds each rank's live gauges (RankGauges): values a
// progress view needs but a ring should not hold, since a record per
// change would crowd out the history. live_trace() cuts trace() down to
// what `tricount_top` reads (docs/observability.md, "Live telemetry").
//
// Concurrency: rank threads write only their own ring (plus one trailing
// ring shared by non-rank threads, claimed per-slot via an atomic head),
// and each slot carries a seqlock so trace() can snapshot every ring
// while the run is still writing. Torn slots are skipped.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "tricount/obs/trace.hpp"

namespace tricount::obs {

/// One fixed-size flight record. Names and categories are truncated to
/// the inline buffers; all call sites pass short static strings.
struct FlightRecord {
  enum Kind : std::uint32_t { kBegin = 0, kEnd = 1, kInstant = 2,
                              kCounter = 3 };
  double ts_us = 0.0;
  std::uint32_t kind = kBegin;
  double value = 0.0;
  char name[40] = {};
  char cat[16] = {};
};

/// One rank's live gauges. Producers store with relaxed ordering on the
/// hot path; trace() reads them at the snapshot time, so readers tolerate
/// slight cross-field skew (a progress view, not an audit log).
struct alignas(64) RankGauges {
  std::atomic<std::uint64_t> total_supersteps{0};
  std::atomic<std::uint64_t> mailbox_depth{0};
  std::atomic<std::uint64_t> mailbox_bytes{0};
  std::atomic<std::uint64_t> unacked_sends{0};
  std::atomic<std::uint64_t> triangles{0};
  std::atomic<std::uint64_t> lookups{0};
  std::atomic<std::uint64_t> graph_bytes{0};
  std::atomic<std::uint64_t> partition_bytes{0};
  std::atomic<std::uint64_t> scratch_bytes{0};
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  /// One ring per rank plus a trailing ring for non-rank threads
  /// (driver, watchdog). `capacity` is records per ring.
  explicit FlightRecorder(int ranks,
                          std::size_t capacity = kDefaultCapacity);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  int ranks() const { return ranks_; }
  std::size_t capacity() const { return capacity_; }

  /// Publishes this recorder as the process-wide current one. The
  /// recorder must outlive the run it observes.
  void install();
  void uninstall();
  static FlightRecorder* current();

  // --- recording (hot path; callers tolerate `current() == nullptr`) ----
  void span_begin(const char* name, const char* cat);
  void span_end(const char* name);
  void instant(const char* name, const char* cat, double value = 0.0);
  void counter(const char* name, const char* cat, double value);

  /// Rank r's gauges. They must outlive every world wired to them:
  /// mpisim points mailbox queue gauges straight at these atomics.
  RankGauges& gauges(int rank) {
    return gauges_[static_cast<std::size_t>(rank)];
  }
  /// The installed recorder's gauges for the calling rank thread, or
  /// nullptr (none installed, a non-rank thread, or a rank past its
  /// world).
  static RankGauges* caller_gauges();
  /// Microseconds since this recorder was made: the clock of its events.
  double now_us() const;

  // --- reading and dumping ----------------------------------------------
  /// A snapshot of every ring as one Chrome trace. Rank ring r is tid
  /// r + 1 ("rank r") and the non-rank ring is tid 0 ("world"). A begin
  /// and the end that closes it become one 'X' span; an end pairs only
  /// with the innermost open begin of its name and is dropped otherwise
  /// (its begin was overwritten or torn), so spans stay nested. A begin
  /// still open at the snapshot becomes a span ending at the snapshot
  /// with args {"open": 1}. Instants are 'i' and counters 'C' events,
  /// each with {"value": v}. Each rank's nonzero gauges follow its ring
  /// as 'C' events of category "gauge" at the snapshot time. `otherData`
  /// holds ranks, capacity, each ring's recorded/dropped counts (`rings`)
  /// and the build provenance. Safe to call from any thread while ranks
  /// keep recording.
  Trace trace() const;

  /// The live view: trace() holding, per tid, only the open spans and
  /// the last value of each counter, gauges included. A rank's phase is
  /// its innermost open span and its progress the `superstep` counter.
  Trace live_trace() const;

  /// Writes trace(), with `reason` added to its otherData, as
  /// `dir`/flight.json (`dir` created if missing) and returns that path.
  /// Safe to call from any thread while ranks keep recording.
  std::string dump(const std::string& dir, const std::string& reason);

  /// Arms automatic dumps into `dir`; empty disables them.
  void set_auto_dump_dir(const std::string& dir);
  /// First trigger wins: dumps into the armed directory at most once per
  /// recorder, so a crash cascade doesn't overwrite the first (most
  /// informative) dump. No-op when no directory is armed. Never throws.
  void try_auto_dump(const char* reason) noexcept;
  bool auto_dumped() const { return auto_dumped_.load(); }

  /// Installs fatal-signal handlers (SIGSEGV/SIGABRT/SIGBUS/SIGFPE/
  /// SIGILL) that try_auto_dump("signal:...") on the current recorder
  /// and re-raise. Best-effort by nature: the dump path is not
  /// async-signal-safe, which is an accepted trade for a crash artifact
  /// that usually survives. Idempotent; process-wide.
  static void install_signal_handlers();

 private:
  struct Slot {
    std::atomic<std::uint32_t> seq{0};
    FlightRecord record;
  };
  struct Ring {
    std::atomic<std::uint64_t> head{0};
    std::vector<Slot> slots;
  };

  /// trace() (`live` false) or live_trace() (`live` true).
  Trace build_trace(bool live) const;
  Ring& ring_for_caller();
  void record(FlightRecord::Kind kind, const char* name, const char* cat,
              double value);
  /// Seqlock-consistent snapshot of one ring, sorted by timestamp; torn
  /// or never-written slots are skipped.
  std::vector<FlightRecord> snapshot(const Ring& ring,
                                     std::uint64_t& recorded,
                                     std::uint64_t& dropped) const;

  int ranks_ = 0;
  std::size_t capacity_ = 0;
  double epoch_seconds_ = 0.0;
  std::vector<Ring> rings_;  // ranks_ + 1, trailing = non-rank threads
  std::unique_ptr<RankGauges[]> gauges_;  // atomics: not vector-movable
  std::string auto_dump_dir_;
  std::atomic<bool> auto_dumped_{false};
  std::mutex dump_mutex_;
};

/// Renders a live view (FlightRecorder::live_trace(), as `tricount_top`
/// reads it back) as a fixed-width table: per rank its phase, superstep
/// progress, queue depths, memory gauges and counts, then a totals line,
/// and a service line when tid 0 carries "service" counters. Throws
/// std::runtime_error when otherData has no `ranks`.
std::string render_telemetry(const Trace& live);

/// RAII span on the installed flight recorder; a no-op when none is.
/// Every span site (preprocessing layers, intersect, shift, collectives,
/// recover, ...) records through this one type.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* cat)
      : flight_(FlightRecorder::current()), name_(name) {
    if (flight_ != nullptr) flight_->span_begin(name, cat);
  }
  ~ScopedSpan() {
    if (flight_ != nullptr) flight_->span_end(name_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  FlightRecorder* flight_;
  const char* name_;
};

}  // namespace tricount::obs
