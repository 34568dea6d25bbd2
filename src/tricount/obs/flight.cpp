#include "tricount/obs/flight.hpp"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "tricount/obs/build_info.hpp"
#include "tricount/util/log.hpp"
#include "tricount/util/table.hpp"
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

/// Each gauge's counter name in a trace.
constexpr std::pair<const char*, std::atomic<std::uint64_t> RankGauges::*>
    kGauges[] = {
        {"total_supersteps", &RankGauges::total_supersteps},
        {"mailbox_depth", &RankGauges::mailbox_depth},
        {"mailbox_bytes", &RankGauges::mailbox_bytes},
        {"unacked_sends", &RankGauges::unacked_sends},
        {"triangles", &RankGauges::triangles},
        {"lookups", &RankGauges::lookups},
        {"graph_bytes", &RankGauges::graph_bytes},
        {"partition_bytes", &RankGauges::partition_bytes},
        {"scratch_bytes", &RankGauges::scratch_bytes},
};

}  // namespace

FlightRecorder::FlightRecorder(int ranks, std::size_t capacity)
    : ranks_(ranks < 0 ? 0 : ranks),
      capacity_(capacity == 0 ? 1 : capacity),
      epoch_seconds_(util::wall_seconds()),
      rings_(static_cast<std::size_t>(ranks_) + 1),
      gauges_(new RankGauges[static_cast<std::size_t>(ranks_)]) {
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

RankGauges* FlightRecorder::caller_gauges() {
  FlightRecorder* recorder = current();
  const int rank = util::current_rank();
  if (recorder == nullptr || rank < 0 || rank >= recorder->ranks_) {
    return nullptr;
  }
  return &recorder->gauges(rank);
}

double FlightRecorder::now_us() const {
  return (util::wall_seconds() - epoch_seconds_) * 1e6;
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
  slot.record.ts_us = now_us();
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

Trace FlightRecorder::trace() const { return build_trace(false); }

Trace FlightRecorder::live_trace() const { return build_trace(true); }

Trace FlightRecorder::build_trace(bool live) const {
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
    const double snapshot_us = now_us();
    out.set_thread_name(tid, world ? "world" : "rank " + std::to_string(index));
    std::vector<const FlightRecord*> open;
    // The live view keeps only each counter's last sample.
    std::map<std::string_view, const FlightRecord*> last;
    for (const FlightRecord& rec : records) {
      switch (rec.kind) {
        case FlightRecord::kBegin:
          open.push_back(&rec);
          break;
        case FlightRecord::kEnd:
          if (!open.empty() && std::strcmp(open.back()->name, rec.name) == 0) {
            if (!live) {
              out.add_complete(tid, open.back()->name, open.back()->cat,
                               open.back()->ts_us,
                               rec.ts_us - open.back()->ts_us);
            }
            open.pop_back();
          }
          break;
        case FlightRecord::kInstant:
          if (!live) {
            out.add_instant(tid, rec.name, rec.cat, rec.ts_us,
                            {{"value", rec.value}});
          }
          break;
        case FlightRecord::kCounter:
          if (live) {
            last[rec.name] = &rec;
          } else {
            out.add_counter(tid, rec.name, rec.cat, rec.ts_us, rec.value);
          }
          break;
      }
    }
    for (const FlightRecord* begin : open) {
      out.add_complete(tid, begin->name, begin->cat, begin->ts_us,
                       snapshot_us - begin->ts_us, {{"open", 1.0}});
    }
    for (const auto& [name, rec] : last) {
      out.add_counter(tid, rec->name, rec->cat, rec->ts_us, rec->value);
    }
    if (!world) {
      const RankGauges& gauges = gauges_[index];
      for (const auto& [name, gauge] : kGauges) {
        const std::uint64_t value =
            (gauges.*gauge).load(std::memory_order_relaxed);
        if (value != 0) {
          out.add_counter(tid, name, "gauge", snapshot_us,
                          static_cast<double>(value));
        }
      }
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

std::string render_telemetry(const Trace& live) {
  const json::Value* ranks_value = live.other_data().find("ranks");
  if (ranks_value == nullptr || !ranks_value->is_int(0)) {
    throw std::runtime_error("telemetry: not a live view (no otherData.ranks)");
  }
  const int ranks = ranks_value->as_int();
  // Per tid: the innermost open span and the last value of each counter.
  // Tid 0 contributes only the "service" counters a daemon adds.
  struct Timeline {
    std::string phase = "idle";
    double phase_ts = -1.0;
    std::map<std::string, double> counters;
    double get(const char* name, double fallback = 0.0) const {
      const auto it = counters.find(name);
      return it != counters.end() ? it->second : fallback;
    }
  };
  std::vector<Timeline> timelines(static_cast<std::size_t>(ranks) + 1);
  for (const TraceEvent& e : live.events()) {
    if (e.tid < 0 || e.tid > ranks) continue;
    Timeline& t = timelines[static_cast<std::size_t>(e.tid)];
    if (e.ph == 'X' && e.arg("open") != nullptr && e.ts_us >= t.phase_ts) {
      t.phase = e.name;
      t.phase_ts = e.ts_us;
    } else if (e.ph == 'C' && e.arg("value") != nullptr &&
               (e.tid != 0 || e.cat == "service")) {
      t.counters[e.name] = *e.arg("value");
    }
  }

  util::Table table({"rank", "phase", "superstep", "mbox depth", "unacked",
                     "graph KiB", "part KiB", "scratch KiB", "mbox KiB",
                     "triangles", "lookups"});
  double triangles = 0.0;
  double lookups = 0.0;
  double mem_bytes = 0.0;
  for (int r = 0; r < ranks; ++r) {
    const Timeline& t = timelines[static_cast<std::size_t>(r) + 1];
    char progress[32];
    std::snprintf(progress, sizeof progress, "%d/%d",
                  static_cast<int>(t.get("superstep", -1.0)),
                  static_cast<int>(t.get("total_supersteps")));
    table.row()
        .cell(static_cast<std::uint64_t>(r))
        .cell(t.phase)
        .cell(std::string(progress))
        .cell(t.get("mailbox_depth"), 0)
        .cell(t.get("unacked_sends"), 0)
        .cell(t.get("graph_bytes") / 1024.0, 1)
        .cell(t.get("partition_bytes") / 1024.0, 1)
        .cell(t.get("scratch_bytes") / 1024.0, 1)
        .cell(t.get("mailbox_bytes") / 1024.0, 1)
        .cell(t.get("triangles"), 0)
        .cell(t.get("lookups"), 0);
    triangles += t.get("triangles");
    lookups += t.get("lookups");
    mem_bytes += t.get("graph_bytes") + t.get("partition_bytes") +
                 t.get("scratch_bytes") + t.get("mailbox_bytes");
  }
  std::string out = table.str();
  char line[200];
  std::snprintf(line, sizeof line,
                "totals: %.0f triangles, %.0f lookups, %.1f KiB tracked\n",
                triangles, lookups, mem_bytes / 1024.0);
  out += line;
  const Timeline& service = timelines[0];
  if (!service.counters.empty()) {
    const double hits = service.get("cache_hits");
    const double lookups_served = hits + service.get("cache_misses");
    std::snprintf(
        line, sizeof line,
        "service: queue %.0f/%.0f, in-flight %.0f, %.0f reqs (%.0f shed), "
        "cache %.0f%% hit, graph v%.0f\n",
        service.get("queue_depth"), service.get("queue_capacity"),
        service.get("in_flight"), service.get("requests"),
        service.get("shed"),
        lookups_served > 0 ? 100.0 * hits / lookups_served : 0.0,
        service.get("graph_version"));
    out += line;
  }
  return out;
}

}  // namespace tricount::obs
