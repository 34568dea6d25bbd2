#include "tricount/obs/flight.hpp"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "tricount/obs/build_info.hpp"
#include "tricount/util/log.hpp"
#include "tricount/util/time.hpp"

namespace tricount::obs {

namespace {

std::atomic<FlightRecorder*> g_current{nullptr};

void copy_truncated(char* dest, std::size_t dest_size, const char* src) {
  if (src == nullptr) {
    dest[0] = '\0';
    return;
  }
  std::strncpy(dest, src, dest_size - 1);
  dest[dest_size - 1] = '\0';
}

}  // namespace

FlightRecorder::FlightRecorder(int ranks, std::size_t capacity)
    : ranks_(ranks < 0 ? 0 : ranks),
      capacity_(capacity == 0 ? 1 : capacity),
      epoch_seconds_(util::wall_seconds()),
      rings_(static_cast<std::size_t>(ranks_) + 1) {
  for (Ring& ring : rings_) {
    ring.slots = std::vector<Slot>(capacity_);
  }
}

FlightRecorder::~FlightRecorder() {
  FlightRecorder* expected = this;
  g_current.compare_exchange_strong(expected, nullptr);
}

void FlightRecorder::install() { g_current.store(this); }

void FlightRecorder::uninstall() {
  FlightRecorder* expected = this;
  g_current.compare_exchange_strong(expected, nullptr);
}

FlightRecorder* FlightRecorder::current() {
  return g_current.load(std::memory_order_relaxed);
}

FlightRecorder::Ring& FlightRecorder::ring_for_caller() {
  const int rank = util::current_rank();
  const std::size_t index = (rank >= 0 && rank < ranks_)
                                ? static_cast<std::size_t>(rank)
                                : static_cast<std::size_t>(ranks_);
  return rings_[index];
}

void FlightRecorder::record(FlightRecord::Kind kind, const char* name,
                            const char* cat, double value) {
  Ring& ring = ring_for_caller();
  // fetch_add claims the slot, so the shared non-rank ring tolerates
  // concurrent writers (driver + watchdog); rank rings are single-writer
  // anyway.
  const std::uint64_t h = ring.head.fetch_add(1, std::memory_order_acq_rel);
  Slot& slot = ring.slots[h % capacity_];
  slot.seq.fetch_add(1, std::memory_order_acq_rel);  // odd: write in flight
  slot.record.ts_us = (util::wall_seconds() - epoch_seconds_) * 1e6;
  slot.record.kind = kind;
  slot.record.value = value;
  copy_truncated(slot.record.name, sizeof slot.record.name, name);
  copy_truncated(slot.record.cat, sizeof slot.record.cat, cat);
  slot.seq.fetch_add(1, std::memory_order_release);  // even: stable
}

void FlightRecorder::span_begin(const char* name, const char* cat) {
  record(FlightRecord::kBegin, name, cat, 0.0);
}

void FlightRecorder::span_end(const char* name) {
  record(FlightRecord::kEnd, name, nullptr, 0.0);
}

void FlightRecorder::instant(const char* name, const char* cat,
                             double value) {
  record(FlightRecord::kInstant, name, cat, value);
}

void FlightRecorder::counter(const char* name, const char* cat,
                             double value) {
  record(FlightRecord::kCounter, name, cat, value);
}

std::vector<FlightRecord> FlightRecorder::snapshot(
    const Ring& ring, std::uint64_t& recorded,
    std::uint64_t& dropped) const {
  const std::uint64_t head = ring.head.load(std::memory_order_acquire);
  const std::uint64_t n = std::min<std::uint64_t>(head, capacity_);
  recorded = head;
  dropped = head - n;
  std::vector<FlightRecord> out;
  out.reserve(n);
  for (std::uint64_t i = head - n; i < head; ++i) {
    const Slot& slot = ring.slots[i % capacity_];
    const std::uint32_t before = slot.seq.load(std::memory_order_acquire);
    FlightRecord rec = slot.record;
    const std::uint32_t after = slot.seq.load(std::memory_order_acquire);
    // Skip torn slots (writer mid-flight), slots claimed but not yet
    // written (seq still 0 from a racing fetch_add on head), and —
    // conservatively — anything with an empty name.
    if (before != after || (before & 1u) != 0 || before == 0 ||
        rec.name[0] == '\0') {
      continue;
    }
    out.push_back(rec);
  }
  // A slot overwritten between head load and seq check can carry a newer
  // record at an older position; sorting restores the time order that
  // trace() pairs begins and ends in.
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightRecord& a, const FlightRecord& b) {
                     return a.ts_us < b.ts_us;
                   });
  return out;
}

Trace FlightRecorder::trace() const {
  Trace out;
  json::Value rings = json::Value::array();
  for (std::size_t index = 0; index < rings_.size(); ++index) {
    const bool world = index == static_cast<std::size_t>(ranks_);
    const int tid = world ? 0 : static_cast<int>(index) + 1;
    std::uint64_t recorded = 0;
    std::uint64_t dropped = 0;
    const std::vector<FlightRecord> records =
        snapshot(rings_[index], recorded, dropped);
    // Read after the snapshot, so a span still open ends at or after
    // every record it encloses.
    const double snapshot_us = (util::wall_seconds() - epoch_seconds_) * 1e6;
    out.set_thread_name(tid, world ? "world" : "rank " + std::to_string(index));
    std::vector<const FlightRecord*> open;
    for (const FlightRecord& rec : records) {
      switch (rec.kind) {
        case FlightRecord::kBegin:
          open.push_back(&rec);
          break;
        case FlightRecord::kEnd:
          if (!open.empty() && std::strcmp(open.back()->name, rec.name) == 0) {
            out.add_complete(tid, open.back()->name, open.back()->cat,
                             open.back()->ts_us,
                             rec.ts_us - open.back()->ts_us);
            open.pop_back();
          }
          break;
        case FlightRecord::kInstant:
          out.add_instant(tid, rec.name, rec.cat, rec.ts_us,
                          {{"value", rec.value}});
          break;
        case FlightRecord::kCounter:
          out.add_counter(tid, rec.name, rec.cat, rec.ts_us, rec.value);
          break;
      }
    }
    for (const FlightRecord* begin : open) {
      out.add_complete(tid, begin->name, begin->cat, begin->ts_us,
                       snapshot_us - begin->ts_us, {{"open", 1.0}});
    }
    json::Value ring = json::Value::object();
    ring.set("tid", tid);
    ring.set("recorded", recorded);
    ring.set("dropped", dropped);
    rings.push_back(std::move(ring));
  }
  json::Value& other = out.other_data();
  other.set("ranks", ranks_);
  other.set("capacity", static_cast<std::uint64_t>(capacity_));
  other.set("rings", std::move(rings));
  other.set("build", build_info_json());
  return out;
}

std::string FlightRecorder::dump(const std::string& dir,
                                 const std::string& reason) {
  const std::lock_guard<std::mutex> lock(dump_mutex_);
  std::filesystem::create_directories(dir);
  Trace out = trace();
  out.other_data().set("reason", reason);
  const std::string path = dir + "/flight.json";
  out.write_file(path);
  return path;
}

void FlightRecorder::set_auto_dump_dir(const std::string& dir) {
  auto_dump_dir_ = dir;
}

void FlightRecorder::try_auto_dump(const char* reason) noexcept {
  if (auto_dump_dir_.empty()) return;
  bool expected = false;
  if (!auto_dumped_.compare_exchange_strong(expected, true)) return;
  try {
    const std::string path =
        dump(auto_dump_dir_, reason != nullptr ? reason : "unknown");
    TRICOUNT_LOG_INFO("flight: dumped the rings to %s (%s)", path.c_str(),
                      reason != nullptr ? reason : "unknown");
  } catch (const std::exception& e) {
    TRICOUNT_LOG_WARN("flight: auto dump failed: %s", e.what());
  }
}

namespace {

void flight_signal_handler(int sig) {
  // Not async-signal-safe; a best-effort crash artifact (see header).
  FlightRecorder* recorder = FlightRecorder::current();
  if (recorder != nullptr) {
    char reason[32];
    std::snprintf(reason, sizeof reason, "signal:%d", sig);
    recorder->try_auto_dump(reason);
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

void FlightRecorder::install_signal_handlers() {
  static std::atomic<bool> installed{false};
  bool expected = false;
  if (!installed.compare_exchange_strong(expected, true)) return;
  for (const int sig : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
    std::signal(sig, flight_signal_handler);
  }
}

}  // namespace tricount::obs
