// bench_e2e: the measured wall-clock ledger (see README.md beside this
// file for the workloads, the metrics and how to read them).
//
// One invocation runs one named workload on a 4-rank world and checks
// every answer against the serial reference. Untraced, it measures what a
// user sees. With --traced it times the public calls of each layer
// (core::, cetric::, stream::, service::, mpisim::) from the outside,
// reads only the counters those calls already return, and lints that the
// layers reconcile with the whole. Every metric is printed as
// `name value unit`; the last line of stdout is a JSON summary. Inputs are
// generated from --seed; the program under test sees only the generated
// edge file and request lines.
#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "tricount/cetric/cetric.hpp"
#include "tricount/core/counter2d.hpp"
#include "tricount/core/dist_graph.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/core/per_vertex.hpp"
#include "tricount/core/preprocess.hpp"
#include "tricount/core/resident.hpp"
#include "tricount/core/summa2d.hpp"
#include "tricount/graph/csr.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/io.hpp"
#include "tricount/graph/serial_count.hpp"
#include "tricount/mpisim/cart2d.hpp"
#include "tricount/mpisim/runtime.hpp"
#include "tricount/obs/build_info.hpp"
#include "tricount/obs/json.hpp"
#include "tricount/service/cache.hpp"
#include "tricount/service/protocol.hpp"
#include "tricount/service/service.hpp"
#include "tricount/stream/stream.hpp"
#include "tricount/util/argparse.hpp"
#include "tricount/util/rng.hpp"
#include "tricount/util/time.hpp"

namespace {

using namespace tricount;
using graph::Edge;
using graph::EdgeList;
using graph::TriangleCount;
using graph::VertexId;
using obs::json::Value;

/// One 2x2 grid everywhere. One client in a closed loop then keeps at
/// most four threads runnable, so the load never oversubscribes a
/// four-core host (README "Load shape").
constexpr int kRanks = 4;
/// Set-ups per invocation; setup_s is their median.
constexpr int kSetups = 5;
/// A served-stream set-up builds a StreamState (seconds each), so fewer.
constexpr int kStreamSetups = 3;
/// Floor on the samples of each timed class, however short --seconds is.
constexpr std::size_t kMinSamples = 3;
/// served-read: uncached counts per uncached verb.
constexpr int kCountsPerVerb = 2;
/// served-stream: repeated (cache-hit) counts after each re-read.
constexpr int kHitsPerRound = 30;

double now() { return util::wall_seconds(); }

template <typename Fn>
double timed(Fn&& fn) {
  const double start = now();
  fn();
  return now() - start;
}

/// Timings (or per-call counts) of one operation class.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  std::size_t size() const { return values_.size(); }
  double sum() const {
    return std::accumulate(values_.begin(), values_.end(), 0.0);
  }
  /// Quantile by linear interpolation between order statistics.
  double quantile(double q) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] +
           (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
  }
  double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// What one invocation prints and records.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Value diagnostics = Value::object();
  Value lints = Value::array();
  bool lints_ok = true;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }

  /// Tallies one operation; an error response or a wrong answer fails it.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "bench_e2e: FAILED %s\n", what.c_str());
    }
  }

  /// A reconciliation lint: `value` must lie in [lo, hi]. Unenforced
  /// lints are recorded for the reader but cannot fail the run.
  void lint(const std::string& name, double value, double lo, double hi,
            bool enforced) {
    const bool ok = value >= lo && value <= hi;
    Value row = Value::object();
    row.set("name", name);
    row.set("value", value);
    row.set("lo", lo);
    row.set("hi", hi);
    row.set("enforced", enforced);
    row.set("ok", ok);
    lints.push_back(std::move(row));
    if (enforced && !ok) {
      lints_ok = false;
      std::fprintf(stderr, "bench_e2e: lint %s = %.4f outside [%.4f, %.4f]\n",
                   name.c_str(), value, lo, hi);
    }
  }
};

// --------------------------------------------------------------- inputs

/// A generated graph: Graph500 RMAT with edge factor 16, or a
/// Watts–Strogatz small world with k = 16, beta = 0.1.
struct Input {
  std::string family;
  int scale = 0;       ///< rmat: n = 2^scale
  VertexId n = 0;      ///< ws
  static constexpr int kWsDegree = 16;
  static constexpr double kWsBeta = 0.1;

  EdgeList generate(std::uint64_t seed) const {
    if (family == "rmat") {
      graph::RmatParams params;
      params.scale = scale;
      params.edge_factor = 16.0;
      params.seed = seed;
      return graph::rmat(params);
    }
    return graph::watts_strogatz(n, kWsDegree, kWsBeta, seed);
  }

  Value describe() const {
    Value out = Value::object();
    out.set("family", family);
    if (family == "rmat") {
      out.set("scale", scale);
      out.set("edge_factor", 16);
    } else {
      out.set("n", static_cast<std::uint64_t>(n));
      out.set("k", kWsDegree);
      out.set("beta", kWsBeta);
    }
    return out;
  }
};

enum class Kind { kCold, kServedRead, kServedStream };

struct Workload {
  std::string name;
  Kind kind = Kind::kCold;
  Input input;
  /// The graph --traced probes the stream layer on: the input itself when
  /// served, else the same family at the served size, because a
  /// StreamState of the cold RMAT input takes ~20 s to build.
  Input stream_probe;
};

std::vector<Workload> workloads(bool small) {
  const Input rmat_cold{.family = "rmat", .scale = small ? 10 : 17};
  const Input rmat_served{.family = "rmat", .scale = small ? 10 : 15};
  const Input ws_cold{.family = "ws", .n = VertexId{1} << (small ? 11 : 18)};
  const Input ws_served{.family = "ws", .n = VertexId{1} << (small ? 11 : 15)};
  return {
      {"cold-rmat", Kind::kCold, rmat_cold, rmat_served},
      {"cold-ws", Kind::kCold, ws_cold, ws_served},
      {"served-read", Kind::kServedRead, rmat_served, rmat_served},
      {"served-stream", Kind::kServedStream, rmat_served, rmat_served},
  };
}

/// A benchmark-owned file under tmp/ beside the binary (so inside the
/// build directory), removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    const std::filesystem::path dir =
        std::filesystem::read_symlink("/proc/self/exe").parent_path() / "tmp";
    std::filesystem::create_directories(dir);
    path_ = (dir / ("bench_e2e-" + std::to_string(getpid()) + "-" + tag +
                    ".bin"))
                .string();
  }
  ~TempFile() {
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TriangleCount serial_count(const EdgeList& g) {
  return graph::count_triangles_serial(graph::Csr::from_edges(g));
}

/// The workload's input: generated from the seed, counted once by the
/// serial reference, and written as the edge file the program reads —
/// shuffled and randomly oriented, so loading it pays a real simplify.
struct Prepared {
  Prepared(const Workload& workload, std::uint64_t seed)
      : file(workload.name), graph(workload.input.generate(seed)) {
    serial_seconds = timed([&] { reference = serial_count(graph); });
    EdgeList raw = graph;
    util::Xoshiro256 rng(util::stream_seed(seed, 0xf11e));
    for (std::size_t i = raw.edges.size(); i > 1; --i) {
      std::swap(raw.edges[i - 1], raw.edges[rng.bounded(i)]);
    }
    for (Edge& e : raw.edges) {
      if ((rng() & 1) != 0) std::swap(e.u, e.v);
    }
    graph::write_binary(raw, file.path());
  }

  TempFile file;
  EdgeList graph;
  TriangleCount reference = 0;
  double serial_seconds = 0.0;
};

std::uint64_t edge_key(Edge e) {
  return (static_cast<std::uint64_t>(std::min(e.u, e.v)) << 32) |
         std::max(e.u, e.v);
}

/// The benchmark's own copy of the live edge set: draws valid delta
/// batches and gives the final serial recount its input.
class EdgeMirror {
 public:
  explicit EdgeMirror(const EdgeList& g) : n_(g.num_vertices), live_(g.edges) {
    index_.reserve(live_.size());
    for (std::size_t i = 0; i < live_.size(); ++i) {
      index_.emplace(edge_key(live_[i]), i);
    }
  }

  /// 0.1% of the edges per batch, alternating deletes of live edges and
  /// inserts of absent pairs, each undirected edge at most once.
  stream::Batch draw(util::Xoshiro256& rng) const {
    const std::size_t ops = std::max<std::size_t>(2, live_.size() / 1000);
    stream::Batch batch;
    std::unordered_set<std::uint64_t> used;
    while (batch.ops.size() < ops) {
      if (batch.ops.size() % 2 == 0) {
        const Edge e = live_[rng.bounded(live_.size())];
        if (used.insert(edge_key(e)).second) {
          batch.ops.push_back({false, e});
        }
      } else {
        const auto u = static_cast<VertexId>(rng.bounded(n_));
        const auto v = static_cast<VertexId>(rng.bounded(n_));
        const Edge e{std::min(u, v), std::max(u, v)};
        if (u != v && !index_.contains(edge_key(e)) &&
            used.insert(edge_key(e)).second) {
          batch.ops.push_back({true, e});
        }
      }
    }
    return batch;
  }

  void apply(const stream::Batch& batch) {
    for (const stream::DeltaOp& op : batch.ops) {
      if (op.insert) {
        index_.emplace(edge_key(op.edge), live_.size());
        live_.push_back(op.edge);
        continue;
      }
      const auto it = index_.find(edge_key(op.edge));
      const std::size_t at = it->second;
      index_.erase(it);
      if (at + 1 != live_.size()) {
        live_[at] = live_.back();
        index_[edge_key(live_[at])] = at;
      }
      live_.pop_back();
    }
  }

  EdgeList edge_list() const { return graph::simplify(EdgeList{n_, live_}); }

 private:
  VertexId n_;
  std::vector<Edge> live_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
};

std::string apply_params(const stream::Batch& batch) {
  Value ops = Value::array();
  for (const stream::DeltaOp& op : batch.ops) {
    ops.push_back((op.insert ? "+" : "-") + std::to_string(op.edge.u) + " " +
                  std::to_string(op.edge.v));
  }
  Value params = Value::object();
  params.set("ops", std::move(ops));
  return params.dump();
}

// --------------------------------------------------------------- client

struct Response {
  std::string line;
  double seconds = 0.0;
};

std::string request_line(std::uint64_t id, const std::string& verb,
                         const std::string& params) {
  return "{\"id\":" + std::to_string(id) + ",\"verb\":\"" + verb +
         "\",\"params\":" + params + "}";
}

/// One closed-loop client of an in-process Service running its own
/// dispatcher thread, as tricountd does: one request outstanding, timed
/// from submit until the response line reaches the client.
class Client {
 public:
  explicit Client(std::size_t cache_capacity)
      : service_(service_options(cache_capacity),
                 [this](const std::string& line) { deliver(line); }) {}

  Response call(const std::string& verb, const std::string& params) {
    const std::string line = request_line(++next_id_, verb, params);
    const double start = now();
    service_.submit(line);
    std::unique_lock<std::mutex> lock(mutex_);
    arrived_.wait(lock, [&] { return !responses_.empty(); });
    Response out{std::move(responses_.front()), now() - start};
    responses_.pop_front();
    return out;
  }

 private:
  static service::ServiceOptions service_options(std::size_t cache_capacity) {
    service::ServiceOptions options;
    options.ranks = kRanks;
    options.cache_capacity = cache_capacity;
    return options;
  }

  void deliver(const std::string& line) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      responses_.push_back(line);
    }
    arrived_.notify_one();
  }

  std::mutex mutex_;
  std::condition_variable arrived_;
  std::deque<std::string> responses_;
  std::uint64_t next_id_ = 0;
  // Last: destroyed first, joining the dispatcher that calls deliver().
  service::Service service_;
};

/// A numeric field of a successful response's result; ~0 when the
/// response is an error or lacks the field, so it never matches a count.
std::uint64_t field(const Response& response, const char* key) {
  const Value doc = Value::parse(response.line);
  const Value* ok = doc.find("ok");
  if (ok == nullptr || ok->type() != Value::Type::kBool || !ok->as_bool()) {
    return ~std::uint64_t{0};
  }
  const Value* value = doc.get("result").find(key);
  return value != nullptr && value->is_number() ? value->as_uint()
                                                : ~std::uint64_t{0};
}

/// Constructs a client and loads the input file through `graph.load`,
/// `reps` times; each set-up is timed and the last client is kept.
/// served-stream also builds the stream state (`delta.stats`).
std::unique_ptr<Client> served_setup(const Prepared& in, Kind kind,
                                     std::size_t cache_capacity, int reps,
                                     Samples& setup, Report& report) {
  Value load = Value::object();
  load.set("path", in.file.path());
  std::unique_ptr<Client> client;
  for (int i = 0; i < reps; ++i) {
    client.reset();
    // Each set-up's dispatcher and rank threads are new and may get a
    // fresh malloc arena; returning the last set-up's freed pages keeps
    // the repeated set-ups out of peak_rss_mb.
    malloc_trim(0);
    Response loaded;
    Response stats;
    setup.add(timed([&] {
      client = std::make_unique<Client>(cache_capacity);
      loaded = client->call("graph.load", load.dump());
      if (kind == Kind::kServedStream) {
        stats = client->call("delta.stats", "{}");
      }
    }));
    report.check(field(loaded, "num_edges") == in.graph.num_edges(),
                 "graph.load");
    if (kind == Kind::kServedStream) {
      report.check(field(stats, "triangles") == in.reference, "delta.stats");
    }
  }
  return client;
}

// ----------------------------------------------------- untraced workloads

/// The two timed classes of a workload ("main" and "side", README table)
/// plus its set-ups.
struct EndToEnd {
  Samples setup;
  Samples main;
  Samples side;
};

void run_cold(const Prepared& in, double seconds, EndToEnd& e2e,
              Report& report) {
  EdgeList g;
  for (int i = 0; i < kSetups; ++i) {
    g = EdgeList{};
    e2e.setup.add(timed(
        [&] { g = graph::simplify(graph::read_binary(in.file.path())); }));
  }
  const double deadline = now() + seconds;
  while (now() < deadline || e2e.main.size() < kMinSamples) {
    core::RunResult two_d;
    e2e.main.add(timed([&] { two_d = core::count_triangles_2d(g, kRanks); }));
    report.check(two_d.triangles == in.reference, "2d count");
    core::RunResult cetric_run;
    e2e.side.add(timed(
        [&] { cetric_run = cetric::count_triangles_cetric(g, kRanks); }));
    report.check(cetric_run.triangles == in.reference, "cetric count");
  }
}

void run_served_read(const Prepared& in, double seconds, EndToEnd& e2e,
                     Report& report) {
  struct Verb {
    const char* verb;
    const char* params;
    const char* total;  ///< result field holding the triangle total
  };
  const std::array<Verb, 4> verbs = {{
      {"count", R"({"algo":"cetric"})", "triangles"},
      {"count", R"({"algo":"summa"})", "triangles"},
      {"pervertex", R"({"top":10})", "total_triangles"},
      {"clustering", "{}", "triangles"},
  }};
  const std::unique_ptr<Client> client = served_setup(
      in, Kind::kServedRead, 0, kSetups, e2e.setup, report);
  const double deadline = now() + seconds;
  for (std::size_t i = 0; now() < deadline || e2e.side.size() < kMinSamples;
       ++i) {
    for (int j = 0; j < kCountsPerVerb; ++j) {
      const Response count = client->call("count", "{}");
      e2e.main.add(count.seconds);
      report.check(field(count, "triangles") == in.reference, "count");
    }
    const Verb& verb = verbs[i % verbs.size()];
    const Response answer = client->call(verb.verb, verb.params);
    e2e.side.add(answer.seconds);
    report.check(field(answer, verb.total) == in.reference,
                 std::string(verb.verb) + " " + verb.params);
  }
}

void run_served_stream(const Prepared& in, std::uint64_t seed,
                       double seconds, EndToEnd& e2e, Report& report) {
  const std::unique_ptr<Client> client = served_setup(
      in, Kind::kServedStream, 128, kStreamSetups, e2e.setup, report);
  EdgeMirror mirror(in.graph);
  util::Xoshiro256 rng(util::stream_seed(seed, 0xba7c));
  Samples hits;
  std::uint64_t applied = 0;
  TriangleCount expected = in.reference;
  const double deadline = now() + seconds;
  while (now() < deadline || e2e.main.size() < kMinSamples) {
    const stream::Batch batch = mirror.draw(rng);
    const Response apply = client->call("graph.apply", apply_params(batch));
    e2e.main.add(apply.seconds);
    report.check(field(apply, "applied") == batch.ops.size(), "graph.apply");
    expected = field(apply, "triangles");
    mirror.apply(batch);
    applied += batch.ops.size();

    const Response reread = client->call("count", "{}");
    e2e.side.add(reread.seconds);
    report.check(field(reread, "triangles") == expected, "re-read count");
    for (int h = 0; h < kHitsPerRound; ++h) {
      const Response hit = client->call("count", "{}");
      hits.add(hit.seconds);
      report.check(field(hit, "triangles") == expected, "cache-hit count");
    }
  }
  report.check(serial_count(mirror.edge_list()) == expected,
               "final count vs a serial recount of the live edges");
  report.diagnostics.set("hit_p50_us", hits.median() * 1e6);
  report.diagnostics.set("hit_p99_us", hits.quantile(0.99) * 1e6);
  report.diagnostics.set("hit_samples",
                         static_cast<std::uint64_t>(hits.size()));
  report.diagnostics.set("apply_edges_per_s",
                         static_cast<double>(applied) / e2e.main.sum());
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void emit_end_to_end(const EndToEnd& e2e, Report& report) {
  report.metric("setup_s", e2e.setup.median(), "s");
  report.metric("main_p50_ms", e2e.main.median() * 1e3, "ms");
  report.metric("side_p50_ms", e2e.side.median() * 1e3, "ms");
  report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  // Tails stay in the ledger: on the reference host their run-to-run
  // spread reaches the largest bound a metric may have (README "Noise").
  report.diagnostics.set("main_p90_ms", e2e.main.quantile(0.9) * 1e3);
  report.diagnostics.set("side_p90_ms", e2e.side.quantile(0.9) * 1e3);
  report.diagnostics.set("setup_samples",
                         static_cast<std::uint64_t>(e2e.setup.size()));
  report.diagnostics.set("main_samples",
                         static_cast<std::uint64_t>(e2e.main.size()));
  report.diagnostics.set("side_samples",
                         static_cast<std::uint64_t>(e2e.side.size()));
}

// ---------------------------------------------------------------- traced

constexpr std::array<const char*, 5> kCoreLayers = {
    "core.slice_s", "core.redistribute_s", "core.degree_order_s",
    "core.scatter_2d_s", "core.cannon_s"};

/// One 2D count composed from its public calls in preprocess() order,
/// each timed on every rank, with the counters those calls return.
struct ComposedRun {
  double wall = 0.0;              ///< around the whole run_world call
  std::array<double, 5> layer{};  ///< slowest rank per call (kCoreLayers)
  double span = 0.0;              ///< slowest rank, first call to last
  double intersect_cpu = 0.0;     ///< Σ shifts of the slowest rank's compute
  double shift_cpu = 0.0;         ///< Σ shifts of the slowest rank's comm CPU
  double rank_intersect_cpu = 0.0;  ///< Σ ranks and shifts of compute
  double imbalance = 1.0;         ///< max / avg per-rank compute (Table 3)
  std::uint64_t pre_bytes = 0;
  std::uint64_t shift_bytes = 0;
  std::uint64_t messages = 0;
  kernels::KernelCounters kernel;
  TriangleCount triangles = 0;
};

ComposedRun run_composed(const EdgeList& g) {
  struct RankOut {
    std::array<double, 6> at{};
    std::array<mpisim::PerfCounters, 5> traffic;  ///< per call, as kCoreLayers
    core::CountOutput count;
  };
  std::vector<RankOut> ranks(kRanks);
  ComposedRun run;
  run.wall = timed([&] {
    mpisim::run_world(kRanks, [&](mpisim::Comm& comm) {
      RankOut& out = ranks[static_cast<std::size_t>(comm.rank())];
      mpisim::Cart2D grid(comm);
      const core::Config config;
      // No barriers between the calls: they would cost the overlap the
      // plain pipeline gets from fast ranks starting the next call early.
      mpisim::PerfCounters before = comm.counters();
      auto stamp = [&](std::size_t i) {
        out.at[i] = now();
        if (i > 0) out.traffic[i - 1] = comm.counters() - before;
        before = comm.counters();
      };
      stamp(0);
      const core::LocalSlice input =
          core::block_slice_from_edges(g, comm.rank(), comm.size());
      stamp(1);
      core::Blocks blocks;
      {
        // Scoped as in preprocess(): the slices are freed before counting.
        const core::CyclicSlice cyclic = core::cyclic_redistribute(comm, input);
        stamp(2);
        const core::RelabeledSlice relabeled =
            core::degree_relabel(comm, cyclic);
        stamp(3);
        blocks = core::scatter_2d(grid, relabeled, config.enumeration);
      }
      stamp(4);
      out.count = core::cannon_count(grid, std::move(blocks), config);
      stamp(5);
    });
  });

  std::vector<double> compute(ranks.size(), 0.0);
  for (const RankOut& out : ranks) {
    for (std::size_t i = 0; i < run.layer.size(); ++i) {
      run.layer[i] = std::max(run.layer[i], out.at[i + 1] - out.at[i]);
      run.messages += out.traffic[i].messages_sent;
    }
    run.span = std::max(run.span, out.at[5] - out.at[0]);
    for (std::size_t i = 0; i + 1 < out.traffic.size(); ++i) {
      run.pre_bytes += out.traffic[i].bytes_sent;
    }
    run.shift_bytes += out.traffic[4].user_bytes_sent();
    run.kernel += out.count.kernel;
  }
  for (std::size_t s = 0; s < ranks[0].count.shifts.size(); ++s) {
    double compute_max = 0.0;
    double comm_max = 0.0;
    for (std::size_t r = 0; r < ranks.size(); ++r) {
      const core::PhaseSample& sample = ranks[r].count.shifts[s];
      compute_max = std::max(compute_max, sample.compute_cpu_seconds);
      comm_max = std::max(comm_max, sample.comm_cpu_seconds);
      compute[r] += sample.compute_cpu_seconds;
    }
    run.intersect_cpu += compute_max;
    run.shift_cpu += comm_max;
  }
  run.rank_intersect_cpu = std::accumulate(compute.begin(), compute.end(), 0.0);
  if (run.rank_intersect_cpu > 0.0) {
    run.imbalance = *std::max_element(compute.begin(), compute.end()) *
                    static_cast<double>(compute.size()) /
                    run.rank_intersect_cpu;
  }
  run.triangles = ranks[0].count.total_triangles;
  return run;
}

/// Slowest rank's thread CPU (compute + communication) in one superstep.
double max_cpu(const std::vector<core::PhaseSample>& per_rank) {
  double slowest = 0.0;
  for (const core::PhaseSample& s : per_rank) {
    slowest = std::max(slowest, s.compute_cpu_seconds + s.comm_cpu_seconds);
  }
  return slowest;
}

/// Runs both, swapping their order on odd rounds so neither side always
/// runs on caches the other warmed.
template <typename A, typename B>
void in_turn(std::size_t round, A&& a, B&& b) {
  if (round % 2 == 0) {
    a();
    b();
  } else {
    b();
    a();
  }
}

/// Per-call cost of a sub-microsecond operation: `batches` timings of 100
/// calls each, divided by 100.
template <typename Fn>
Samples per_call(int batches, Fn&& fn) {
  Samples out;
  for (int b = 0; b < batches; ++b) {
    out.add(timed([&] {
              for (int i = 0; i < 100; ++i) fn();
            }) /
            100.0);
  }
  return out;
}

/// graph: the load every workload starts from. Returns the loaded graph.
EdgeList trace_graph(const Prepared& in, Report& report) {
  Samples read;
  Samples simplify;
  EdgeList g;
  for (int i = 0; i < kSetups; ++i) {
    EdgeList raw;
    g = EdgeList{};
    read.add(timed([&] { raw = graph::read_binary(in.file.path()); }));
    simplify.add(timed([&] { g = graph::simplify(std::move(raw)); }));
  }
  report.metric("graph.read_s", read.median(), "s");
  report.metric("graph.simplify_s", simplify.median(), "s");
  report.metric("graph.serial_s", in.serial_seconds, "s");
  return g;
}

/// mpisim: a fresh world per cold count, one job per served request.
void trace_mpisim(mpisim::PersistentWorld& world, Report& report) {
  Samples spawn;
  for (int i = 0; i < 20; ++i) {
    spawn.add(timed([] { mpisim::run_world(kRanks, [](mpisim::Comm&) {}); }));
  }
  Samples job;
  for (int i = 0; i < 200; ++i) {
    job.add(timed([&] { world.run_job([](mpisim::Comm&) {}); }));
  }
  report.metric("mpisim.spawn_ms", spawn.median() * 1e3, "ms");
  report.metric("mpisim.job_us", job.median() * 1e6, "us");
}

/// cetric: per-superstep CPU of the slowest rank, and the cut traffic.
void trace_cetric(const EdgeList& g, const Prepared& in, Report& report) {
  Samples partition;
  Samples ghost;
  Samples local;
  Samples cut;
  core::CetricRankCounters totals;
  for (int i = 0; i < 3; ++i) {
    const core::RunResult run = cetric::count_triangles_cetric(g, kRanks);
    report.check(run.triangles == in.reference, "cetric count");
    partition.add(max_cpu(run.step_samples(0)));
    ghost.add(max_cpu(run.step_samples(1)));
    local.add(max_cpu(run.shift_samples(0)));
    cut.add(max_cpu(run.shift_samples(1)));
    totals = run.total_cetric();
  }
  report.metric("cetric.partition_cpu_s", partition.median(), "s");
  report.metric("cetric.ghost_cpu_s", ghost.median(), "s");
  report.metric("cetric.local_cpu_s", local.median(), "s");
  report.metric("cetric.cut_cpu_s", cut.median(), "s");
  report.metric("cetric.cut_wedges",
                static_cast<double>(totals.cut_wedges_sent), "count");
  report.metric("cetric.cut_bytes",
                static_cast<double>(totals.cut_wedge_bytes_sent), "bytes");
}

/// resident: the preprocessed partition a served count reuses, and the
/// per-query copy of its blocks. Returns the partition.
core::ResidentPartition trace_resident(mpisim::PersistentWorld& world,
                                       const EdgeList& g, Report& report) {
  Samples preprocess;
  core::ResidentPartition partition;
  for (int i = 0; i < 3; ++i) {
    preprocess.add(
        timed([&] { partition = core::preprocess_resident(world, g); }));
  }
  Samples copy;
  for (int i = 0; i < 5; ++i) {
    std::vector<core::Blocks> blocks;
    copy.add(timed([&] { blocks = partition.blocks; }));
  }
  report.metric("resident.preprocess_s", preprocess.median(), "s");
  report.metric("resident.copy_ms", copy.median() * 1e3, "ms");
  report.metric("resident.bytes",
                static_cast<double>(partition.resident_bytes()), "bytes");
  return partition;
}

/// service: served counts alternated with the same count_resident call
/// (the difference is the service's own overhead), request parsing, cache
/// lookups, and the library calls behind served-read's uncached verbs.
void trace_service(const Workload& w, const Prepared& in, const EdgeList& g,
                   Client& client, mpisim::PersistentWorld& world,
                   const core::ResidentPartition& partition, bool enforce,
                   Report& report) {
  Samples warm;
  Samples direct;
  Samples direct_over_warm;  // per adjacent pair, as in trace_core
  for (std::size_t round = 0; round < (w.kind == Kind::kCold ? 6 : 40);
       ++round) {
    double served_s = 0.0;
    double direct_s = 0.0;
    in_turn(
        round,
        [&] {
          const Response served = client.call("count", "{}");
          served_s = served.seconds;
          report.check(field(served, "triangles") == in.reference, "count");
        },
        [&] {
          TriangleCount total = 0;
          direct_s = timed([&] {
            total = core::count_resident(world, partition, core::Config{})
                        .triangles;
          });
          report.check(total == in.reference, "count_resident");
        });
    warm.add(served_s);
    direct.add(direct_s);
    direct_over_warm.add(direct_s / served_s);
  }
  report.metric("resident.count_ms", direct.median() * 1e3, "ms");
  report.lint("resident_count_over_warm", direct_over_warm.median(), 0.0,
              1.05, enforce && w.kind == Kind::kServedRead);

  const std::string count_line = request_line(1, "count", "{}");
  const service::WireLimits limits;
  const Samples parse = per_call(50, [&] {
    if (!service::parse_request(count_line, limits).ok) {
      throw std::runtime_error("parse_request rejected a count request");
    }
  });
  service::ResultCache cache(128);
  const std::string key = service::ResultCache::key(1, "count", "{}");
  cache.put(key, R"({"algo":"2d","triangles":)" +
                     std::to_string(in.reference) + "}");
  const Samples cache_get = per_call(50, [&] {
    if (!cache.get(key)) throw std::runtime_error("cache lost its entry");
  });

  Samples verbs;
  TriangleCount total = 0;
  verbs.add(timed(
      [&] { total = cetric::count_triangles_cetric(g, kRanks).triangles; }));
  report.check(total == in.reference, "cetric library call");
  const core::SummaOptions summa;  // 2x2, the same four ranks
  verbs.add(
      timed([&] { total = core::count_triangles_summa(g, summa).triangles; }));
  report.check(total == in.reference, "summa library call");
  verbs.add(timed(
      [&] { total = core::count_per_vertex_2d(g, kRanks).total_triangles; }));
  report.check(total == in.reference, "per-vertex library call");
  verbs.add(
      timed([&] { total = core::clustering_stats_2d(g, kRanks).triangles; }));
  report.check(total == in.reference, "clustering library call");

  report.metric("service.parse_us", parse.median() * 1e6, "us");
  report.metric("service.cache_get_us", cache_get.median() * 1e6, "us");
  report.metric("service.warm_overhead_ms",
                (warm.median() - direct.median()) * 1e3, "ms");
  report.metric("service.verbs_library_ms", verbs.median() * 1e3, "ms");
}

/// stream: the calls one graph.apply makes, on a benchmark-owned state fed
/// the workload's kind of batches. served-stream also sends each batch to
/// the service, alternated, and lints that the calls add up to its apply.
void trace_stream(const Workload& w, std::uint64_t seed, const EdgeList& g,
                  Client& client, mpisim::PersistentWorld& world, bool enforce,
                  Report& report) {
  const bool served = w.kind == Kind::kServedStream;
  const EdgeList probe =
      w.kind == Kind::kCold ? w.stream_probe.generate(seed) : g;
  stream::StreamState state;
  const double from_graph =
      timed([&] { state = stream::StreamState::from_graph(probe); });
  EdgeMirror mirror(probe);
  util::Xoshiro256 rng(util::stream_seed(seed, 0xba7c));
  const service::WireLimits limits;
  Samples count_delta;
  Samples apply;
  Samples edge_list;
  Samples wedges;
  Samples shard_bytes;
  Samples layers_over_served;  // per batch, as in trace_core
  for (int b = 0; b < (served ? 40 : 10); ++b) {
    const stream::Batch batch = mirror.draw(rng);
    const std::string params = apply_params(batch);
    Response response;
    if (served) response = client.call("graph.apply", params);
    // The request parse and the validation the service runs first.
    const std::string line = request_line(0, "graph.apply", params);
    const double checks_s = timed([&] {
      if (!service::parse_request(line, limits).ok ||
          stream::validate(state, batch)) {
        throw std::runtime_error("benchmark drew an invalid batch");
      }
    });
    stream::DeltaResult delta;
    const double delta_s =
        timed([&] { delta = stream::count_delta(world, state, batch); });
    const double apply_s = timed([&] { stream::apply(state, batch, delta); });
    EdgeList snapshot;
    const double edge_list_s = timed([&] { snapshot = state.edge_list(); });
    mirror.apply(batch);
    count_delta.add(delta_s);
    apply.add(apply_s);
    edge_list.add(edge_list_s);
    wedges.add(static_cast<double>(delta.kernel.lookups));
    shard_bytes.add(static_cast<double>(delta.shard_bytes));
    if (served) {
      layers_over_served.add(
          (checks_s + delta_s + apply_s + edge_list_s) / response.seconds);
      report.check(field(response, "triangles") == state.triangles(),
                   "graph.apply vs stream::apply");
    }
  }
  report.check(serial_count(mirror.edge_list()) == state.triangles(),
               "stream state vs a serial recount");
  report.metric("stream.from_graph_s", from_graph, "s");
  report.metric("stream.count_delta_ms", count_delta.median() * 1e3, "ms");
  report.metric("stream.apply_ms", apply.median() * 1e3, "ms");
  report.metric("stream.edge_list_ms", edge_list.median() * 1e3, "ms");
  report.metric("stream.wedges_probed", wedges.median(), "count");
  report.metric("stream.shard_bytes", shard_bytes.median(), "bytes");
  if (served) {
    // The remainder is dispatch, cache invalidation and the response.
    report.lint("stream_layers_over_served_apply", layers_over_served.median(),
                0.85, 1.15, enforce);
  }
}

/// core + kernels: composed runs alternated with plain count_triangles_2d
/// until `deadline`. Each adjacent pair gives one overhead sample, so a
/// host that slows down mid-run moves both sides of it alike.
void trace_core(const Workload& w, const Prepared& in, const EdgeList& g,
                double deadline, bool enforce, Report& report) {
  std::vector<ComposedRun> composed;
  Samples overhead;
  for (std::size_t round = 0; composed.size() < 15 || now() < deadline;
       ++round) {
    double plain = 0.0;
    in_turn(
        round,
        [&] {
          composed.push_back(run_composed(g));
          report.check(composed.back().triangles == in.reference,
                       "composed 2d");
        },
        [&] {
          TriangleCount total = 0;
          plain = timed(
              [&] { total = core::count_triangles_2d(g, kRanks).triangles; });
          report.check(total == in.reference, "2d count");
        });
    overhead.add(composed.back().wall / plain - 1.0);
  }
  auto median_of = [&](auto get) {
    Samples s;
    for (const ComposedRun& run : composed) s.add(get(run));
    return s.median();
  };
  for (std::size_t i = 0; i < kCoreLayers.size(); ++i) {
    report.metric(kCoreLayers[i],
                  median_of([&](const ComposedRun& r) { return r.layer[i]; }),
                  "s");
  }
  report.metric("core.intersect_cpu_s",
                median_of([](const ComposedRun& r) { return r.intersect_cpu; }),
                "s");
  report.metric("core.shift_cpu_s",
                median_of([](const ComposedRun& r) { return r.shift_cpu; }),
                "s");
  report.metric("core.wait_s", median_of([](const ComposedRun& r) {
                  return std::max(0.0,
                                  r.layer[4] - r.intersect_cpu - r.shift_cpu);
                }),
                "s");
  report.metric("core.imbalance",
                median_of([](const ComposedRun& r) { return r.imbalance; }),
                "ratio");
  const ComposedRun& first = composed.front();
  report.metric("core.pre_bytes", static_cast<double>(first.pre_bytes),
                "bytes");
  report.metric("core.shift_bytes", static_cast<double>(first.shift_bytes),
                "bytes");
  report.metric("core.messages", static_cast<double>(first.messages),
                "count");
  report.metric("kernels.lookups", static_cast<double>(first.kernel.lookups),
                "count");
  report.metric("kernels.lookups_per_us", median_of([](const ComposedRun& r) {
                  return static_cast<double>(r.kernel.lookups) /
                         (r.rank_intersect_cpu * 1e6);
                }),
                "1/us");
  // No merge_steps: the default auto policy never picks the merge kernel.
  report.metric("kernels.tasks",
                static_cast<double>(first.kernel.intersection_tasks), "count");
  report.metric("kernels.galloping_steps",
                static_cast<double>(first.kernel.galloping_steps), "count");
  report.metric("kernels.bitmap_tests",
                static_cast<double>(first.kernel.bitmap_tests), "count");
  report.metric("kernels.hash_lookups",
                static_cast<double>(first.kernel.hash_lookups), "count");

  // The per-call maxima can never sum below the span; they exceed it by
  // the ranks' skew at call boundaries, counted in two calls (up to ~10%
  // on the cold inputs). A larger excess means the per-layer times no
  // longer say where the span went.
  report.lint("core_layers_over_span", median_of([](const ComposedRun& r) {
                const double sum =
                    std::accumulate(r.layer.begin(), r.layer.end(), 0.0);
                return sum / r.span;
              }),
              0.99, 1.15, enforce);
  // The host's own speed swings move single pairs by ±10%, so the lint
  // fails only when three quarters of the pairs exceed the limit, which a
  // real overhead does and a burst of noise does not.
  report.diagnostics.set("trace_overhead", overhead.median());
  report.lint("trace_overhead_q25", overhead.quantile(0.25), -1.0,
              0.10, enforce && w.kind == Kind::kCold);
  const bool repeat = std::all_of(
      composed.begin(), composed.end(), [&](const ComposedRun& r) {
        return r.kernel.lookups == first.kernel.lookups &&
               r.pre_bytes == first.pre_bytes &&
               r.shift_bytes == first.shift_bytes;
      });
  report.lint("counts_repeat", repeat ? 1.0 : 0.0, 1.0, 1.0, true);
  report.diagnostics.set("composed_reps",
                         static_cast<std::uint64_t>(composed.size()));
}

void run_traced(const Workload& w, const Prepared& in, std::uint64_t seed,
                double seconds, bool small, Report& report) {
  const double deadline = now() + seconds;
  // At smoke sizes every call takes microseconds and one thread wake-up
  // moves a timing ratio by half, so the timing lints are only recorded.
  const bool enforce = !small;
  const EdgeList g = trace_graph(in, report);
  mpisim::PersistentWorld world(kRanks);
  trace_mpisim(world, report);
  trace_cetric(g, in, report);
  const core::ResidentPartition partition = trace_resident(world, g, report);
  Samples single_setup;
  const std::unique_ptr<Client> client =
      served_setup(in, w.kind, 0, 1, single_setup, report);
  trace_service(w, in, g, *client, world, partition, enforce, report);
  trace_stream(w, seed, g, *client, world, enforce, report);
  trace_core(w, in, g, deadline, enforce, report);
  report.diagnostics.set("peak_rss_mib", peak_rss_mib());
}

// ---------------------------------------------------------------- probe

/// The fixed serial loop: a 64 MiB copy plus a sort of 1M seeded ints.
double probe_loop() {
  constexpr std::size_t kBytes = std::size_t{64} << 20;
  std::vector<char> src(kBytes, 1);
  std::vector<char> dst(kBytes, 0);
  std::vector<std::uint32_t> ints(std::size_t{1} << 20);
  util::Xoshiro256 rng(0x5eed);
  for (std::uint32_t& x : ints) x = static_cast<std::uint32_t>(rng());
  const double seconds = timed([&] {
    std::memcpy(dst.data(), src.data(), kBytes);
    std::sort(ints.begin(), ints.end());
  });
  if (dst.back() != src.back() || !std::is_sorted(ints.begin(), ints.end())) {
    throw std::logic_error("speed probe: copy or sort went wrong");
  }
  return seconds;
}

/// Machine-speed probe, recorded beside the metrics (a diagnostic, not a
/// metric) so that a host which got slower between two runs is not read
/// as a regression. It runs in a forked child so its buffers never count
/// toward peak_rss_mb; call it only while this process runs no other
/// thread.
double speed_probe() {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("speed probe: pipe failed");
  const pid_t child = fork();
  if (child < 0) throw std::runtime_error("speed probe: fork failed");
  if (child == 0) {
    close(fds[0]);
    const double seconds = probe_loop();
    const bool sent = write(fds[1], &seconds, sizeof seconds) ==
                      static_cast<ssize_t>(sizeof seconds);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double seconds = 0.0;
  const ssize_t got = read(fds[0], &seconds, sizeof seconds);
  close(fds[0]);
  int status = 0;
  waitpid(child, &status, 0);
  if (got != static_cast<ssize_t>(sizeof seconds) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("speed probe: child failed");
  }
  return seconds;
}

/// Appends `record` to the JSON array in `path` (created when absent).
void append_ledger(const std::string& path, Value record) {
  Value ledger = std::filesystem::exists(path) ? obs::json::read_file(path)
                                               : Value::array();
  ledger.push_back(std::move(record));
  obs::json::write_file(ledger, path);
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(
      "bench_e2e",
      "End-to-end and per-layer wall-clock ledger of one workload "
      "(bench_e2e/README.md).");
  args.add_option("workload", "",
                  "cold-rmat | cold-ws | served-read | served-stream");
  args.add_option("seed", "1", "seed every input is generated from");
  args.add_option("seconds", "10", "length of the measurement window");
  args.add_flag("traced", false,
                "measure the per-layer metrics instead of the end-to-end ones");
  args.add_flag("small", false,
                "smoke-test sizes (RMAT s10, WS n=2^11) with loose lints");
  args.add_option("out", "", "append this run's ledger record to this file");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 1;

  const bool small = args.get_bool("small");
  const bool traced = args.get_bool("traced");
  const std::vector<Workload> all = workloads(small);
  const auto workload =
      std::find_if(all.begin(), all.end(), [&](const Workload& w) {
        return w.name == args.get("workload");
      });
  const std::int64_t seed_arg = args.get_int("seed");
  const double seconds = args.get_double("seconds");
  if (workload == all.end() || seed_arg < 0 || !(seconds >= 0.0)) {
    std::fprintf(stderr, "bench_e2e: need a known --workload, a seed >= 0 "
                         "and seconds >= 0\n%s",
                 args.usage().c_str());
    return 1;
  }
  const auto seed = static_cast<std::uint64_t>(seed_arg);

  try {
    Report report;
    const double probe_start = speed_probe();
    Value graph_size = Value::object();
    {
      const Prepared in(*workload, seed);
      graph_size.set("edges", in.graph.num_edges());
      graph_size.set("triangles", in.reference);
      if (traced) {
        run_traced(*workload, in, seed, seconds, small, report);
      } else {
        EndToEnd e2e;
        switch (workload->kind) {
          case Kind::kCold: run_cold(in, seconds, e2e, report); break;
          case Kind::kServedRead:
            run_served_read(in, seconds, e2e, report);
            break;
          case Kind::kServedStream:
            run_served_stream(in, seed, seconds, e2e, report);
            break;
        }
        emit_end_to_end(e2e, report);
      }
    }
    const double probe_end = speed_probe();
    const bool correct = report.failed == 0;

    Value metrics = Value::object();
    for (const Report::Metric& m : report.metrics) {
      std::printf("%s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
      Value entry = Value::object();
      entry.set("value", m.value);
      entry.set("unit", m.unit);
      metrics.set(m.name, std::move(entry));
    }
    Value summary = Value::object();
    summary.set("correct", correct);
    summary.set("attempted", report.attempted);
    summary.set("failed", report.failed);
    summary.set("metrics", metrics);
    std::printf("%s\n", summary.dump().c_str());
    std::fflush(stdout);

    const std::string out = args.get("out");
    if (!out.empty()) {
      Value record = Value::object();
      record.set("schema", "tricount.bench.v1");
      record.set("bench", "e2e");
      record.set("build", obs::build_info_json());
      record.set("workload", workload->name);
      record.set("seed", seed);
      record.set("traced", traced);
      record.set("small", small);
      record.set("seconds", seconds);
      record.set("ranks", kRanks);
      record.set("input", workload->input.describe());
      record.set("graph", std::move(graph_size));
      Value probe = Value::array();
      probe.push_back(probe_start);
      probe.push_back(probe_end);
      record.set("probe_s", std::move(probe));
      record.set("correct", correct);
      record.set("attempted", report.attempted);
      record.set("failed", report.failed);
      record.set("metrics", std::move(metrics));
      record.set("diagnostics", report.diagnostics);
      record.set("lints", report.lints);
      append_ledger(out, std::move(record));
    }
    if (!report.lints_ok) return 3;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
