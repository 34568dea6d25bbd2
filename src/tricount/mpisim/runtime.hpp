// Runtime: a world of p ranks, each an OS thread running the same rank
// function (the SPMD main).
//
// PersistentWorld is the one world implementation: its rank threads park
// between jobs, and each run_job runs one rank function on all of them.
// run_world is its one-job case.
//
// Each rank gets a Comm handle; ranks may communicate only through it.
// If any rank throws, the world is failed (all blocked receives wake and
// throw) and the first exception is rethrown to the caller, so a bug in
// one rank cannot hang the whole test suite.
//
// Two optional services are configured through WorldOptions:
//  * a FaultInjector (chaos subsystem, docs/chaos.md) interposed on every
//    point-to-point transmission, and
//  * a hang watchdog that fails the job with a per-rank blocked-state
//    diagnostic when no rank makes progress for a configurable wall-time,
//    instead of letting a deadlock hang ctest forever.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "tricount/mpisim/comm.hpp"
#include "tricount/mpisim/fault.hpp"
#include "tricount/mpisim/mailbox.hpp"

namespace tricount::mpisim {

struct WorldOptions {
  /// When non-null, every point-to-point transmission consults it and the
  /// Comm layer switches to sequenced, acked, retransmitting delivery.
  /// Not owned; must outlive the world.
  const FaultInjector* fault_injector = nullptr;

  /// Wall-seconds without any mailbox progress before the watchdog fails
  /// the job. 0 = auto: the TRICOUNT_WATCHDOG_SECONDS environment
  /// variable if set, else 30 s when a fault injector is installed, else
  /// disabled. Negative disables unconditionally.
  double watchdog_seconds = 0.0;
};

/// Everything one job measured: per-rank traffic counters, the (source,
/// dest) communication matrix, and — when a fault injector is installed —
/// per-rank chaos tallies.
struct WorldReport {
  std::vector<PerfCounters> counters;
  CommMatrix comm_matrix;
  std::vector<ChaosCounters> chaos;
};

/// Shared world state: the mailboxes and the current job's tallies. Owned
/// by a PersistentWorld; Comm handles reference it.
class World {
 public:
  explicit World(int size, const WorldOptions& options = {});

  int size() const { return size_; }
  Mailbox& mailbox(int rank) { return *mailboxes_.at(static_cast<size_t>(rank)); }
  PerfCounters& counters(int rank) { return counters_.at(static_cast<size_t>(rank)); }
  /// The p×p (source, dest) traffic matrix. Rank r's thread writes only
  /// row r, so sends record without locks; read after ranks have joined.
  CommMatrix& comm_matrix() { return comm_matrix_; }

  /// The installed fault injector, or nullptr (the common case).
  const FaultInjector* fault_injector() const { return fault_injector_; }

  /// Rank r's chaos tallies; written only by rank r's thread.
  ChaosCounters& chaos_counters(int rank) {
    return chaos_counters_.at(static_cast<size_t>(rank));
  }

  /// Monotone count of mailbox pushes/pops, watched by the watchdog.
  std::uint64_t progress() const {
    return progress_.load(std::memory_order_relaxed);
  }

  /// Wakes every blocked receiver with a failure. Called when a rank
  /// throws.
  void fail_all();

  /// Closes a job once every rank has returned: drains every mailbox, so
  /// no stale copy, ack or delayed message reaches the next job, and
  /// returns the job's tallies, leaving zeroed ones for the next job.
  WorldReport end_job();

 private:
  int size_;
  std::atomic<std::uint64_t> progress_{0};
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<PerfCounters> counters_;
  std::vector<ChaosCounters> chaos_counters_;
  CommMatrix comm_matrix_;
  const FaultInjector* fault_injector_ = nullptr;
};

using RankFn = std::function<void(Comm&)>;

/// A world whose rank threads stay alive across many SPMD jobs. Each rank
/// thread parks on a condition variable between jobs and the mailboxes
/// are reused, so a job costs one wakeup instead of p thread creations —
/// what a resident service answering sub-millisecond queries needs
/// (docs/service.md).
///
///  * run_job returns only what that job produced (counters, comm matrix
///    and chaos tallies), so per-request artifacts attribute traffic to
///    the request that caused it, not to the world's lifetime.
///  * Jobs never overlap, so draining the mailboxes between jobs is all
///    the isolation a fault injector needs: each job's Comm handles
///    restart their channel sequence numbers against empty mailboxes.
///  * A chaos crash replays inside the rank (mpisim/recovery.hpp) and
///    fails nothing. If a rank throws, the world is failed and then
///    *stays* failed: the world is poisoned, run_job refuses further
///    jobs, and the owner must rebuild the world.
///
/// Single-rank worlds run jobs inline on the caller's thread.
class PersistentWorld {
 public:
  explicit PersistentWorld(int size, const WorldOptions& options = {});
  ~PersistentWorld();

  PersistentWorld(const PersistentWorld&) = delete;
  PersistentWorld& operator=(const PersistentWorld&) = delete;

  int size() const { return size_; }
  /// The installed fault injector, or nullptr.
  const FaultInjector* fault_injector() const {
    return world_->fault_injector();
  }
  /// True after a job failed; every later run_job throws immediately.
  bool poisoned() const { return poisoned_; }
  /// Jobs completed successfully since construction.
  std::uint64_t jobs_run() const { return jobs_run_; }

  /// Runs `fn` as one SPMD job on the resident rank threads, blocks until
  /// every rank returns, and reports only this job's traffic. Each rank
  /// thread is tagged with its rank via util::set_current_rank, so log
  /// lines and trace events are attributed to the right rank.
  WorldReport run_job(const RankFn& fn);

 private:
  void worker(int rank);
  /// Runs `fn` as rank `rank`; a throw fails the world.
  void run_rank(const RankFn& fn, int rank);
  /// Blocks until every rank of the job has returned. With a watchdog
  /// budget the waiting thread doubles as the watchdog.
  void await_ranks();

  int size_;
  double watchdog_seconds_ = 0.0;  ///< resolved budget; 0 = off
  std::unique_ptr<World> world_;
  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable job_cv_;   // workers wait here between jobs
  std::condition_variable done_cv_;  // run_job waits here for completion
  const RankFn* job_ = nullptr;
  std::uint64_t generation_ = 0;
  int running_ = 0;
  bool stop_ = false;
  bool poisoned_ = false;
  std::uint64_t jobs_run_ = 0;
  std::exception_ptr first_error_;
};

/// Runs `fn` on `size` ranks as the one job of a fresh PersistentWorld and
/// returns what it measured. Rethrows the first rank exception, if any.
WorldReport run_world(int size, const RankFn& fn,
                      const WorldOptions& options = {});

}  // namespace tricount::mpisim
