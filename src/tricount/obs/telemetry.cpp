#include "tricount/obs/telemetry.hpp"

#include <cstdio>
#include <stdexcept>

#include "tricount/obs/build_info.hpp"
#include "tricount/util/log.hpp"
#include "tricount/util/table.hpp"
#include "tricount/util/time.hpp"

namespace tricount::obs {

namespace {

std::atomic<Telemetry*> g_current{nullptr};

}  // namespace

Telemetry::Telemetry(int ranks)
    : ranks_(ranks < 1 ? 1 : ranks),
      slots_(new RankTelemetry[static_cast<std::size_t>(ranks_)]) {}

Telemetry::~Telemetry() {
  Telemetry* expected = this;
  g_current.compare_exchange_strong(expected, nullptr);
}

RankTelemetry* Telemetry::for_caller() {
  const int rank = util::current_rank();
  if (rank < 0 || rank >= ranks_) return nullptr;
  return &slots_[static_cast<std::size_t>(rank)];
}

void Telemetry::install() { g_current.store(this); }

void Telemetry::uninstall() {
  Telemetry* expected = this;
  g_current.compare_exchange_strong(expected, nullptr);
}

Telemetry* Telemetry::current() {
  return g_current.load(std::memory_order_relaxed);
}

RankTelemetry* Telemetry::caller_slot() {
  Telemetry* telemetry = current();
  return telemetry != nullptr ? telemetry->for_caller() : nullptr;
}

json::Value Telemetry::snapshot_json() const {
  json::Value root = json::Value::object();
  root.set("schema", "tricount.telemetry.v1");
  root.set("ranks", ranks_);
  root.set("wall_seconds", util::wall_seconds());
  root.set("build", build_info_json());

  std::uint64_t total_triangles = 0;
  std::uint64_t total_lookups = 0;
  std::uint64_t total_mem = 0;
  json::Value per_rank = json::Value::array();
  for (int r = 0; r < ranks_; ++r) {
    const RankTelemetry& t = slots_[static_cast<std::size_t>(r)];
    const std::uint64_t graph = t.graph_bytes.load(std::memory_order_relaxed);
    const std::uint64_t partition =
        t.partition_bytes.load(std::memory_order_relaxed);
    const std::uint64_t scratch =
        t.scratch_bytes.load(std::memory_order_relaxed);
    const std::uint64_t mailbox =
        t.mailbox_bytes.load(std::memory_order_relaxed);

    json::Value row = json::Value::object();
    row.set("rank", r);
    row.set("phase", t.phase.load(std::memory_order_relaxed));
    row.set("superstep",
            static_cast<int>(t.superstep.load(std::memory_order_relaxed)));
    row.set("total_supersteps",
            static_cast<int>(
                t.total_supersteps.load(std::memory_order_relaxed)));
    row.set("mailbox_depth",
            t.mailbox_depth.load(std::memory_order_relaxed));
    row.set("unacked_sends",
            t.unacked_sends.load(std::memory_order_relaxed));
    row.set("triangles", t.triangles.load(std::memory_order_relaxed));
    row.set("lookups", t.lookups.load(std::memory_order_relaxed));
    json::Value mem = json::Value::object();
    mem.set("graph_bytes", graph);
    mem.set("partition_bytes", partition);
    mem.set("scratch_bytes", scratch);
    mem.set("mailbox_bytes", mailbox);
    row.set("mem", std::move(mem));
    per_rank.push_back(std::move(row));

    total_triangles += t.triangles.load(std::memory_order_relaxed);
    total_lookups += t.lookups.load(std::memory_order_relaxed);
    total_mem += graph + partition + scratch + mailbox;
  }
  root.set("per_rank", std::move(per_rank));

  json::Value totals = json::Value::object();
  totals.set("triangles", total_triangles);
  totals.set("lookups", total_lookups);
  totals.set("mem_bytes", total_mem);
  root.set("totals", std::move(totals));

  // Daemon health, present only while a service is registered so batch
  // runs keep emitting byte-identical snapshots.
  if (const ServiceTelemetry* svc = service_.load()) {
    const std::uint64_t hits = svc->cache_hits.load(std::memory_order_relaxed);
    const std::uint64_t misses =
        svc->cache_misses.load(std::memory_order_relaxed);
    json::Value service = json::Value::object();
    service.set("queue_depth", svc->queue_depth.load(std::memory_order_relaxed));
    service.set("queue_capacity",
                svc->queue_capacity.load(std::memory_order_relaxed));
    service.set("in_flight", svc->in_flight.load(std::memory_order_relaxed));
    service.set("requests", svc->requests.load(std::memory_order_relaxed));
    service.set("shed", svc->shed.load(std::memory_order_relaxed));
    service.set("cache_hits", hits);
    service.set("cache_misses", misses);
    service.set("cache_hit_rate",
                hits + misses > 0
                    ? static_cast<double>(hits) /
                          static_cast<double>(hits + misses)
                    : 0.0);
    service.set("graph_version",
                svc->graph_version.load(std::memory_order_relaxed));
    root.set("service", std::move(service));
  }
  return root;
}

void Telemetry::publish(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  json::write_file(snapshot_json(), tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("telemetry: cannot publish " + path);
  }
}

void Telemetry::export_memory_gauges(Registry& registry) const {
  std::uint64_t graph = 0;
  std::uint64_t partition = 0;
  std::uint64_t scratch = 0;
  std::uint64_t mailbox = 0;
  for (int r = 0; r < ranks_; ++r) {
    const RankTelemetry& t = slots_[static_cast<std::size_t>(r)];
    graph += t.graph_bytes.load(std::memory_order_relaxed);
    partition += t.partition_bytes.load(std::memory_order_relaxed);
    scratch += t.scratch_bytes.load(std::memory_order_relaxed);
    mailbox += t.mailbox_bytes.load(std::memory_order_relaxed);
  }
  registry.gauge("obs.mem.graph_bytes").set(static_cast<double>(graph));
  registry.gauge("obs.mem.partition_bytes")
      .set(static_cast<double>(partition));
  registry.gauge("obs.mem.scratch_bytes").set(static_cast<double>(scratch));
  registry.gauge("obs.mem.mailbox_bytes").set(static_cast<double>(mailbox));
}

std::string render_telemetry(const json::Value& snapshot) {
  const json::Value* schema = snapshot.find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->as_string() != "tricount.telemetry.v1") {
    throw std::runtime_error("telemetry: not a tricount.telemetry.v1 file");
  }
  util::Table table({"rank", "phase", "superstep", "mbox depth", "unacked",
                     "graph KiB", "part KiB", "scratch KiB", "mbox KiB",
                     "triangles", "lookups"});
  const json::Value& per_rank = snapshot.get("per_rank");
  for (std::size_t i = 0; i < per_rank.size(); ++i) {
    const json::Value& row = per_rank.at(i);
    const json::Value& mem = row.get("mem");
    char progress[32];
    std::snprintf(progress, sizeof progress, "%d/%d",
                  static_cast<int>(row.get("superstep").as_number()),
                  static_cast<int>(row.get("total_supersteps").as_number()));
    table.row()
        .cell(row.get("rank").as_uint())
        .cell(row.get("phase").as_string())
        .cell(std::string(progress))
        .cell(row.get("mailbox_depth").as_uint())
        .cell(row.get("unacked_sends").as_uint())
        .cell(mem.get("graph_bytes").as_number() / 1024.0, 1)
        .cell(mem.get("partition_bytes").as_number() / 1024.0, 1)
        .cell(mem.get("scratch_bytes").as_number() / 1024.0, 1)
        .cell(mem.get("mailbox_bytes").as_number() / 1024.0, 1)
        .cell(row.get("triangles").as_uint())
        .cell(row.get("lookups").as_uint());
  }
  std::string out = table.str();
  const json::Value* totals = snapshot.find("totals");
  if (totals != nullptr && totals->is_object()) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "totals: %llu triangles, %llu lookups, %.1f KiB tracked\n",
                  static_cast<unsigned long long>(
                      totals->get("triangles").as_uint()),
                  static_cast<unsigned long long>(
                      totals->get("lookups").as_uint()),
                  totals->get("mem_bytes").as_number() / 1024.0);
    out += line;
  }
  const json::Value* service = snapshot.find("service");
  if (service != nullptr && service->is_object()) {
    char line[200];
    std::snprintf(
        line, sizeof line,
        "service: queue %llu/%llu, in-flight %llu, %llu reqs (%llu shed), "
        "cache %.0f%% hit, graph v%llu\n",
        static_cast<unsigned long long>(service->get("queue_depth").as_uint()),
        static_cast<unsigned long long>(
            service->get("queue_capacity").as_uint()),
        static_cast<unsigned long long>(service->get("in_flight").as_uint()),
        static_cast<unsigned long long>(service->get("requests").as_uint()),
        static_cast<unsigned long long>(service->get("shed").as_uint()),
        service->get("cache_hit_rate").as_number() * 100.0,
        static_cast<unsigned long long>(
            service->get("graph_version").as_uint()));
    out += line;
  }
  return out;
}

}  // namespace tricount::obs
