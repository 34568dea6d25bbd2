#include "tricount/mpisim/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "tricount/obs/flight.hpp"
#include "tricount/util/log.hpp"

namespace tricount::mpisim {

// ---------------------------------------------------------------------------
// Mailbox

void Mailbox::push(Message message) {
  {
    std::scoped_lock lock(mutex_);
    queued_bytes_ += message.payload.size();
    queue_.push_back(std::move(message));
    // Every arrival ages the deferred messages; release the ones whose
    // hold has expired, preserving their original relative order.
    if (!deferred_.empty()) {
      std::size_t keep = 0;
      for (std::size_t i = 0; i < deferred_.size(); ++i) {
        if (--deferred_[i].remaining <= 0) {
          queued_bytes_ += deferred_[i].message.payload.size();
          queue_.push_back(std::move(deferred_[i].message));
        } else {
          // keep == i would self-move, gutting the held payload.
          if (keep != i) deferred_[keep] = std::move(deferred_[i]);
          ++keep;
        }
      }
      deferred_.resize(keep);
    }
    publish_depth_locked();
  }
  note_progress();
  cv_.notify_all();
}

void Mailbox::push_front(Message message) {
  {
    std::scoped_lock lock(mutex_);
    queued_bytes_ += message.payload.size();
    queue_.push_front(std::move(message));
    publish_depth_locked();
  }
  note_progress();
  cv_.notify_all();
}

void Mailbox::push_deferred(Message message, int hold_pushes) {
  {
    std::scoped_lock lock(mutex_);
    deferred_.push_back(Deferred{std::move(message), std::max(1, hold_pushes)});
  }
  // Deliberately no notify: the message is invisible until released by a
  // later push or by a starving receiver (release_deferred_locked).
}

void Mailbox::release_deferred_locked() {
  for (Deferred& d : deferred_) {
    queued_bytes_ += d.message.payload.size();
    queue_.push_back(std::move(d.message));
  }
  deferred_.clear();
  publish_depth_locked();
}

std::size_t Mailbox::find_locked(int source, int tag) const {
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (matches(queue_[i], source, tag)) return i;
  }
  return queue_.size();
}

Message Mailbox::pop(int source, int tag) {
  std::unique_lock lock(mutex_);
  std::size_t at = queue_.size();
  waiting_ = true;
  waiting_source_ = source;
  waiting_tag_ = tag;
  cv_.wait(lock, [&] {
    if (failed_) return true;
    at = find_locked(source, tag);
    if (at < queue_.size()) return true;
    if (!deferred_.empty()) {
      // Nothing deliverable but delayed messages exist: a blocked
      // receiver outwaits any modeled delay rather than deadlocking.
      release_deferred_locked();
      at = find_locked(source, tag);
    }
    return at < queue_.size();
  });
  waiting_ = false;
  if (at >= queue_.size()) {
    throw std::runtime_error(
        "mpisim: receive aborted, a peer rank failed while this rank was "
        "blocked");
  }
  Message m = std::move(queue_[at]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(at));
  queued_bytes_ -= m.payload.size();
  publish_depth_locked();
  note_progress();
  return m;
}

bool Mailbox::pop_for(int source, int tag, double timeout_seconds,
                      Message& out) {
  std::unique_lock lock(mutex_);
  std::size_t at = queue_.size();
  waiting_ = true;
  waiting_source_ = source;
  waiting_tag_ = tag;
  const bool ready = cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_seconds), [&] {
        if (failed_) return true;
        at = find_locked(source, tag);
        if (at < queue_.size()) return true;
        if (!deferred_.empty()) {
          release_deferred_locked();
          at = find_locked(source, tag);
        }
        return at < queue_.size();
      });
  waiting_ = false;
  if (failed_ && at >= queue_.size()) {
    throw std::runtime_error(
        "mpisim: receive aborted, a peer rank failed while this rank was "
        "blocked");
  }
  if (!ready || at >= queue_.size()) return false;
  out = std::move(queue_[at]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(at));
  queued_bytes_ -= out.payload.size();
  publish_depth_locked();
  note_progress();
  return true;
}

bool Mailbox::try_pop(int source, int tag, Message& out) {
  std::scoped_lock lock(mutex_);
  const std::size_t at = find_locked(source, tag);
  if (at >= queue_.size()) return false;
  out = std::move(queue_[at]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(at));
  queued_bytes_ -= out.payload.size();
  publish_depth_locked();
  note_progress();
  return true;
}

bool Mailbox::try_pop_ack(Message& out) {
  std::scoped_lock lock(mutex_);
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    if (queue_[i].kind == MsgKind::kAck) {
      out = std::move(queue_[i]);
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
      queued_bytes_ -= out.payload.size();
      publish_depth_locked();
      note_progress();
      return true;
    }
  }
  return false;
}

bool Mailbox::probe(int source, int tag) {
  std::scoped_lock lock(mutex_);
  return find_locked(source, tag) < queue_.size();
}

void Mailbox::fail() {
  {
    std::scoped_lock lock(mutex_);
    failed_ = true;
  }
  cv_.notify_all();
}

void Mailbox::drain() {
  std::scoped_lock lock(mutex_);
  queue_.clear();
  deferred_.clear();
  queued_bytes_ = 0;
  publish_depth_locked();
}

std::size_t Mailbox::queued() const {
  std::scoped_lock lock(mutex_);
  return queue_.size();
}

Mailbox::WaitInfo Mailbox::waiting_info() const {
  std::scoped_lock lock(mutex_);
  return WaitInfo{waiting_, waiting_source_, waiting_tag_};
}

// ---------------------------------------------------------------------------
// World

World::World(int size, const WorldOptions& options)
    : size_(size),
      counters_(static_cast<size_t>(size)),
      chaos_counters_(static_cast<size_t>(size)),
      comm_matrix_(std::max(size, 0)),
      fault_injector_(options.fault_injector) {
  if (size <= 0) throw std::invalid_argument("mpisim: world size must be > 0");
  mailboxes_.reserve(static_cast<size_t>(size));
  obs::FlightRecorder* recorder = obs::FlightRecorder::current();
  if (recorder != nullptr && recorder->ranks() < size) {
    recorder = nullptr;  // sized for a different world; don't misattribute
  }
  for (int i = 0; i < size; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>(&progress_));
    if (recorder != nullptr) {
      obs::RankGauges& gauges = recorder->gauges(i);
      mailboxes_.back()->set_gauges(&gauges.mailbox_depth,
                                    &gauges.mailbox_bytes);
    }
  }
}

void World::fail_all() {
  for (auto& mb : mailboxes_) mb->fail();
}

WorldReport World::end_job() {
  for (auto& mb : mailboxes_) mb->drain();
  const auto p = static_cast<std::size_t>(size_);
  return WorldReport{
      std::exchange(counters_, std::vector<PerfCounters>(p)),
      std::exchange(comm_matrix_, CommMatrix(size_)),
      std::exchange(chaos_counters_, std::vector<ChaosCounters>(p))};
}

namespace {

/// Resolves the watchdog budget: explicit option, else environment, else
/// on-by-default (30 s) only when a fault injector can stall the world.
double watchdog_budget(const WorldOptions& options) {
  if (options.watchdog_seconds > 0.0) return options.watchdog_seconds;
  if (options.watchdog_seconds < 0.0) return 0.0;
  if (const char* env = std::getenv("TRICOUNT_WATCHDOG_SECONDS")) {
    const double parsed = std::strtod(env, nullptr);
    return parsed > 0.0 ? parsed : 0.0;
  }
  return options.fault_injector != nullptr ? 30.0 : 0.0;
}

/// One line per rank: what it is blocked on (operation, peer, tag) and how
/// deep its mailbox is — the actionable part of a watchdog failure.
std::string stall_diagnostic(World& world, double budget_seconds) {
  std::ostringstream out;
  out << "mpisim watchdog: no rank made progress for " << budget_seconds
      << " s; per-rank blocked state:";
  for (int r = 0; r < world.size(); ++r) {
    const Mailbox::WaitInfo info = world.mailbox(r).waiting_info();
    out << "\n  rank " << r << ": ";
    if (info.waiting) {
      out << "blocked in recv(source=";
      if (info.source == kAnySource) {
        out << "any";
      } else {
        out << info.source;
      }
      out << ", tag=";
      if (info.tag == kAnyTag) {
        out << "any";
      } else {
        out << info.tag;
      }
      out << ")";
    } else {
      out << "not blocked (computing or exited)";
    }
    out << ", " << world.mailbox(r).queued() << " queued";
  }
  return out.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// PersistentWorld

PersistentWorld::PersistentWorld(int size, const WorldOptions& options)
    : size_(size),
      watchdog_seconds_(watchdog_budget(options)),
      world_(std::make_unique<World>(size, options)) {
  if (size_ > 1) {
    threads_.reserve(static_cast<std::size_t>(size_));
    for (int r = 0; r < size_; ++r) {
      threads_.emplace_back(&PersistentWorld::worker, this, r);
    }
  }
}

PersistentWorld::~PersistentWorld() {
  {
    std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  job_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void PersistentWorld::worker(int rank) {
  // The thread is a rank for its whole lifetime: tag it once so log
  // lines and trace events from every job carry the rank.
  util::set_current_rank(rank);
  std::uint64_t seen = 0;
  while (true) {
    const RankFn* fn = nullptr;
    {
      std::unique_lock lock(mutex_);
      job_cv_.wait(lock, [&] { return stop_ || generation_ > seen; });
      if (stop_) return;
      seen = generation_;
      fn = job_;
    }
    run_rank(*fn, rank);
    {
      std::scoped_lock lock(mutex_);
      if (--running_ == 0) done_cv_.notify_all();
    }
  }
}

void PersistentWorld::run_rank(const RankFn& fn, int rank) {
  Comm comm(*world_, rank);
  try {
    fn(comm);
    // Reliable-delivery quiesce: a rank may not return while peers still
    // wait on its unacknowledged sends. No-op without a fault injector.
    comm.flush_sends();
  } catch (...) {
    {
      std::scoped_lock lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    world_->fail_all();
  }
}

void PersistentWorld::await_ranks() {
  std::unique_lock lock(mutex_);
  const auto joined = [&] { return running_ == 0; };
  if (watchdog_seconds_ <= 0.0) {
    done_cv_.wait(lock, joined);
    return;
  }
  using clock = std::chrono::steady_clock;
  const auto interval = std::chrono::duration<double>(
      std::clamp(watchdog_seconds_ / 4.0, 0.01, 0.5));
  std::uint64_t last_progress = world_->progress();
  auto last_change = clock::now();
  while (!done_cv_.wait_for(lock, interval, joined)) {
    const std::uint64_t now_progress = world_->progress();
    if (now_progress != last_progress) {
      last_progress = now_progress;
      last_change = clock::now();
      continue;
    }
    // Only declare a stall when someone is actually blocked; a world that
    // is purely computing is slow, not stuck.
    bool any_waiting = false;
    for (int r = 0; r < size_; ++r) {
      any_waiting = any_waiting || world_->mailbox(r).waiting_info().waiting;
    }
    const double stalled =
        std::chrono::duration<double>(clock::now() - last_change).count();
    if (!any_waiting || stalled < watchdog_seconds_) continue;
    const std::string diag = stall_diagnostic(*world_, watchdog_seconds_);
    TRICOUNT_LOG_ERROR("%s", diag.c_str());
    // Dump the flight rings before tearing the job down: the hang is
    // exactly the case where post-run artifacts never happen.
    if (obs::FlightRecorder* flight = obs::FlightRecorder::current()) {
      flight->instant("watchdog.stall", "chaos", watchdog_seconds_);
      flight->try_auto_dump("watchdog-stall");
    }
    if (!first_error_) {
      first_error_ = std::make_exception_ptr(
          ChaosError(ChaosError::Kind::kWatchdogStall, diag));
    }
    world_->fail_all();
    done_cv_.wait(lock, joined);
    return;
  }
}

WorldReport PersistentWorld::run_job(const RankFn& fn) {
  if (poisoned_) {
    throw std::runtime_error(
        "mpisim: persistent world poisoned by an earlier job failure; "
        "rebuild the world before running more jobs");
  }
  if (size_ == 1) {
    // Inline on the caller's thread; restore the caller's tag.
    const int previous_rank = util::current_rank();
    util::set_current_rank(0);
    run_rank(fn, 0);
    util::set_current_rank(previous_rank);
  } else {
    {
      std::scoped_lock lock(mutex_);
      job_ = &fn;
      running_ = size_;
      ++generation_;
    }
    job_cv_.notify_all();
    await_ranks();
  }
  if (first_error_) {
    poisoned_ = true;
    std::rethrow_exception(std::exchange(first_error_, nullptr));
  }
  ++jobs_run_;
  return world_->end_job();
}

WorldReport run_world(int size, const RankFn& fn,
                      const WorldOptions& options) {
  return PersistentWorld(size, options).run_job(fn);
}

}  // namespace tricount::mpisim
