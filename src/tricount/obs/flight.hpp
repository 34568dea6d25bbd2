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
// Concurrency: rank threads write only their own ring (plus one trailing
// ring shared by non-rank threads, claimed per-slot via an atomic head),
// and each slot carries a seqlock so trace() can snapshot every ring
// while the run is still writing. Torn slots are skipped.
#pragma once

#include <atomic>
#include <cstdint>
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

  // --- reading and dumping ----------------------------------------------
  /// A snapshot of every ring as one Chrome trace. Rank ring r is tid
  /// r + 1 ("rank r") and the non-rank ring is tid 0 ("world"). A begin
  /// and the end that closes it become one 'X' span; an end pairs only
  /// with the innermost open begin of its name and is dropped otherwise
  /// (its begin was overwritten or torn), so spans stay nested. A begin
  /// still open at the snapshot becomes a span ending at the snapshot
  /// with args {"open": 1}. Instants are 'i' and counters 'C' events,
  /// each with {"value": v}. `otherData` holds ranks, capacity, each
  /// ring's recorded/dropped counts (`rings`) and the build provenance.
  /// Safe to call from any thread while ranks keep recording.
  Trace trace() const;

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
  std::string auto_dump_dir_;
  std::atomic<bool> auto_dumped_{false};
  std::mutex dump_mutex_;
};

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
