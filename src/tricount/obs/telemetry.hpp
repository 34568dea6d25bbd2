// Live telemetry: a shared, lock-free snapshot of a running world that
// can be read *while* the run is in flight (docs/observability.md).
//
// Each rank owns one cache-line-padded slot of atomics — superstep
// progress, mailbox/reliable-delivery queue depths, per-subsystem memory
// accounting (graph, partition, kernel scratch, mailbox bytes), and
// rolling tc.* counters. Producers store with relaxed ordering on the
// hot path; any thread may render a consistent-enough JSON snapshot
// (tricount.telemetry.v1) at any time and publish it atomically
// (tmp + rename), which is what `tricount_top` and `tricount_perf
// watch` poll.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "tricount/obs/json.hpp"
#include "tricount/obs/metrics.hpp"

namespace tricount::obs {

/// One rank's live state. All stores are relaxed; readers tolerate
/// slight cross-field skew (this is a progress view, not an audit log).
/// `phase` must only ever hold pointers to string literals.
struct alignas(64) RankTelemetry {
  std::atomic<const char*> phase{"idle"};
  std::atomic<std::int32_t> superstep{-1};
  std::atomic<std::int32_t> total_supersteps{0};
  std::atomic<std::uint64_t> mailbox_depth{0};
  std::atomic<std::uint64_t> mailbox_bytes{0};
  std::atomic<std::uint64_t> unacked_sends{0};
  std::atomic<std::uint64_t> triangles{0};
  std::atomic<std::uint64_t> lookups{0};
  std::atomic<std::uint64_t> graph_bytes{0};
  std::atomic<std::uint64_t> partition_bytes{0};
  std::atomic<std::uint64_t> scratch_bytes{0};
};

/// Live state of a resident service daemon (docs/service.md): admission
/// queue depth, in-flight batch size, cache accounting, and the current
/// graph version. One instance per Service, registered on the installed
/// Telemetry so `tricount_top` shows the daemon's health next to the
/// per-rank rows. All relaxed atomics, same contract as RankTelemetry.
struct ServiceTelemetry {
  std::atomic<std::uint64_t> queue_depth{0};
  std::atomic<std::uint64_t> queue_capacity{0};
  std::atomic<std::uint64_t> in_flight{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  std::atomic<std::uint64_t> graph_version{0};
};

class Telemetry {
 public:
  explicit Telemetry(int ranks);
  ~Telemetry();

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  int ranks() const { return ranks_; }
  RankTelemetry& rank(int r) { return slots_[static_cast<std::size_t>(r)]; }
  const RankTelemetry& rank(int r) const {
    return slots_[static_cast<std::size_t>(r)];
  }
  /// The calling rank thread's slot, or nullptr on non-rank threads or
  /// ranks outside this telemetry's world.
  RankTelemetry* for_caller();
  /// The installed instance's slot for the calling rank thread, or nullptr.
  static RankTelemetry* caller_slot();

  /// Publishes this instance process-wide (mirrors
  /// FlightRecorder::install).
  /// Must outlive every world it observes: mpisim::World wires mailbox
  /// queue-depth gauges straight at these atomics.
  void install();
  void uninstall();
  static Telemetry* current();

  /// Registers (or, with nullptr, unregisters) a service slot. Not owned;
  /// must outlive its registration. When set, snapshot_json() gains a
  /// "service" object — absent otherwise so batch-run snapshots are
  /// byte-identical to pre-service builds.
  void set_service(ServiceTelemetry* service) { service_.store(service); }
  ServiceTelemetry* service() const { return service_.load(); }

  /// A tricount.telemetry.v1 snapshot of every rank slot.
  json::Value snapshot_json() const;
  /// Writes snapshot_json() to `path` atomically (tmp file + rename), so
  /// a concurrent reader never sees a torn file.
  void publish(const std::string& path) const;

  /// Exports the memory-accounting totals as gauges ("obs.mem.*") into a
  /// metrics registry — deliberately *not* wired into the run artifact
  /// (baseline byte-stability), but available to ad-hoc consumers.
  void export_memory_gauges(Registry& registry) const;

 private:
  int ranks_ = 0;
  std::unique_ptr<RankTelemetry[]> slots_;  // atomics: not vector-movable
  std::atomic<ServiceTelemetry*> service_{nullptr};
};

/// Renders a tricount.telemetry.v1 snapshot as the fixed-width table
/// tricount_top and `tricount_perf watch` print. Throws
/// std::runtime_error on a wrong schema.
std::string render_telemetry(const json::Value& snapshot);

}  // namespace tricount::obs
