#include "tricount/service/service.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "tricount/core/per_vertex.hpp"
#include "tricount/graph/approx.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/io.hpp"
#include "tricount/graph/ktruss.hpp"
#include "tricount/kernels/kernels.hpp"
#include "tricount/obs/build_info.hpp"
#include "tricount/util/time.hpp"

namespace tricount::service {

using obs::json::Value;

namespace {

constexpr const char* kLatencyHistogram = "service.request_latency_us";

double now_us() { return util::wall_seconds() * 1e6; }

/// The session trace's otherData.session: the counters, the cache stats,
/// the request-latency quantiles and the streaming-maintenance tallies.
Value session_json(const SessionCounters& counters,
                   const ResultCache::Stats& cache_stats,
                   const obs::Snapshot& metrics) {
  Value session = Value::object();
  session.set("requests", counters.requests);
  session.set("admitted", counters.admitted);
  session.set("shed", counters.shed);
  session.set("rejected", counters.rejected);
  session.set("errors", counters.errors);
  session.set("jobs", counters.jobs);
  session.set("graph_version", counters.graph_version);

  Value cache = Value::object();
  cache.set("hits", cache_stats.hits);
  cache.set("misses", cache_stats.misses);
  cache.set("evictions", cache_stats.evictions);
  cache.set("invalidations", cache_stats.invalidations);
  cache.set("size", static_cast<std::uint64_t>(cache_stats.size));
  cache.set("capacity", static_cast<std::uint64_t>(cache_stats.capacity));
  session.set("cache", std::move(cache));

  Value latency = Value::object();
  auto it = metrics.histograms.find(kLatencyHistogram);
  if (it != metrics.histograms.end() && it->second.count > 0) {
    latency.set("count", it->second.count);
    latency.set("p50", it->second.quantile(0.50));
    latency.set("p95", it->second.quantile(0.95));
    latency.set("p99", it->second.quantile(0.99));
    latency.set("max", it->second.max);
  } else {
    latency.set("count", 0);
  }
  session.set("latency_us", std::move(latency));

  Value delta = Value::object();
  delta.set("batches", counters.delta_batches);
  delta.set("edges_applied", counters.delta_edges_applied);
  delta.set("wedges_probed", counters.delta_wedges_probed);
  delta.set("triangles_added", counters.delta_triangles_added);
  delta.set("triangles_removed", counters.delta_triangles_removed);
  session.set("delta", std::move(delta));
  return session;
}

bool cacheable_verb(const std::string& verb) {
  return verb == "count" || verb == "pervertex" || verb == "clustering" ||
         verb == "truss" || verb == "support" || verb == "approx";
}

/// Reads an optional bounded non-negative integer param.
bool get_uint_param(const Value& params, const char* key,
                    std::uint64_t fallback, std::uint64_t max,
                    std::uint64_t& out) {
  const Value* v = params.find(key);
  if (v == nullptr) {
    out = fallback;
    return true;
  }
  if (!v->is_uint()) return false;  // so as_uint cannot throw
  out = v->as_uint();
  return out <= max;
}

}  // namespace

Service::Service(const ServiceOptions& options, ResponseSink sink)
    : options_(options),
      sink_(std::move(sink)),
      queue_(options.queue_depth),
      cache_(options.cache_capacity),
      epoch_us_(now_us()),
      resident_(options.config, options.model) {
  if (mpisim::perfect_square_root(options_.ranks) == 0) {
    throw std::invalid_argument("service: ranks must be a perfect square");
  }
  if (!options_.manual_dispatch) {
    dispatcher_ = std::thread([this] { dispatcher_loop(); });
  }
}

Service::~Service() {
  try {
    shutdown();
  } catch (...) {  // a failed artifact flush must not abort teardown
  }
}

void Service::submit(const std::string& line) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++counters_.requests;
  }
  registry_.counter("service.requests").inc();

  ParseOutcome outcome = parse_request(line, options_.limits);
  if (!outcome.ok) {
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      ++counters_.rejected;
    }
    registry_.counter("service.rejected").inc();
    emit(error_response(outcome.request.id, outcome.error, outcome.message));
    RequestRecord row;
    row.id = outcome.request.id;
    row.verb = outcome.request.verb.empty() ? "?" : outcome.request.verb;
    row.ok = false;
    row.error = to_string(outcome.error);
    row.dispatched = false;
    row.start_us = now_us();
    record(std::move(row));
    return;
  }

  Pending pending;
  pending.submit_us = now_us();
  // Pin the graph version the client saw at admission: if a graph.swap
  // (or delta batch) queued ahead of this request lands first, the
  // request must not be served from — or populate — the cache.
  pending.admit_version = graph_version_.load(std::memory_order_relaxed);
  const std::uint64_t id = outcome.request.id;
  const std::string verb = outcome.request.verb;
  pending.request = std::move(outcome.request);
  if (!queue_.try_push(std::move(pending))) {
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      ++counters_.shed;
    }
    registry_.counter("service.shed").inc();
    emit(error_response(id, ErrorCode::kShed,
                        "admission queue full; retry later"));
    RequestRecord row;
    row.id = id;
    row.verb = verb;
    row.ok = false;
    row.error = to_string(ErrorCode::kShed);
    row.dispatched = false;
    row.start_us = now_us();
    record(std::move(row));
    return;
  }
  std::lock_guard<std::mutex> lock(state_mutex_);
  ++counters_.admitted;
}

void Service::dispatcher_loop() {
  while (true) {
    std::vector<Pending> batch =
        queue_.pop_batch(options_.max_batch);
    if (batch.empty()) break;  // stopped and drained
    execute_batch(std::move(batch));
  }
}

bool Service::dispatch_once() {
  std::vector<Pending> batch =
      queue_.try_pop_batch(options_.max_batch);
  if (batch.empty()) return false;
  execute_batch(std::move(batch));
  return true;
}

void Service::drain() {
  while (dispatch_once()) {
  }
}

void Service::execute_batch(std::vector<Pending> batch) {
  in_flight_.store(batch.size(), std::memory_order_relaxed);
  const bool batched = batch.size() > 1;
  // Batch-local coalescing when the cache is disabled: identical queries
  // in one sweep still compute once. With the cache on, the first miss is
  // inserted immediately, so same-batch duplicates are plain cache hits.
  std::unordered_map<std::string, std::string> computed;

  for (Pending& pending : batch) {
    const Request& request = pending.request;
    // Re-read per request: an earlier request in this very batch may
    // have been a graph.swap or a delta batch.
    const std::uint64_t exec_version =
        graph_version_.load(std::memory_order_relaxed);
    RequestRecord row;
    row.id = request.id;
    row.verb = request.verb;
    row.graph_version = exec_version;
    row.batched = batched;
    row.start_us = now_us();
    row.queue_us = std::max(0.0, row.start_us - pending.submit_us);

    // A version-skewed request (admitted under N, executing under N+k)
    // computes fresh and stays out of the cache entirely: serving the
    // new graph's answer under the old version's key — or vice versa —
    // would poison the cache.
    const bool use_cache = cacheable_verb(request.verb) && graph_loaded() &&
                           pending.admit_version == exec_version;
    const std::string key =
        use_cache ? ResultCache::key(exec_version, request.verb,
                                     request.canonical_params)
                  : std::string();
    std::string response;
    if (use_cache) {
      if (auto hit = cache_.get(key)) {
        row.cache = obs::session_trace::kHit;
        response = ok_response_raw(request.id, *hit);
      } else if (auto it = computed.find(key); it != computed.end()) {
        row.cache = obs::session_trace::kCoalesced;
        response = ok_response_raw(request.id, it->second);
      }
    }
    if (response.empty()) {
      Execution exec = execute(request);
      publish_world_stats();
      if (exec.ok) {
        response = ok_response_raw(request.id, exec.result_json);
        row.supersteps = exec.supersteps;
        if (use_cache && exec.cacheable &&
            graph_version_.load(std::memory_order_relaxed) == exec_version) {
          row.cache = obs::session_trace::kMiss;
          if (options_.cache_capacity > 0) {
            cache_.put(key, exec.result_json);
          } else {
            computed.emplace(key, exec.result_json);
          }
        }
      } else {
        response = error_response(request.id, exec.error, exec.message);
        row.ok = false;
        row.error = to_string(exec.error);
        std::lock_guard<std::mutex> lock(state_mutex_);
        ++counters_.errors;
      }
    }
    const double end_us = now_us();
    row.dur_us = std::max(0.0, end_us - row.start_us);
    registry_.histogram(kLatencyHistogram)
        .observe(std::max(0.0, end_us - pending.submit_us));
    emit(response);
    record(std::move(row));
  }
  in_flight_.store(0, std::memory_order_relaxed);
}

Service::Execution Service::execute(const Request& request) {
  const std::string& verb = request.verb;
  const bool needs_graph = cacheable_verb(verb) || verb == "graph.apply" ||
                           verb == "graph.window" || verb == "delta.stats" ||
                           verb == "stream.sample";
  if (needs_graph && !graph_loaded()) {
    return fail(ErrorCode::kNoGraph, "no graph loaded");
  }
  try {
    if (verb == "hello") return verb_hello(request);
    if (verb == "graph.load" || verb == "graph.swap") {
      return verb_graph_load(request);
    }
    if (verb == "count") return verb_count(request);
    if (verb == "pervertex") return verb_pervertex(request);
    if (verb == "clustering") return verb_clustering(request);
    if (verb == "truss") return verb_truss(request);
    if (verb == "support") return verb_support(request);
    if (verb == "approx") return verb_approx(request);
    if (verb == "graph.apply") return verb_graph_apply(request);
    if (verb == "graph.window") return verb_graph_window(request);
    if (verb == "delta.stats") return verb_delta_stats(request);
    if (verb == "stream.sample") return verb_stream_sample(request);
    if (verb == "cache.stats") return verb_cache_stats(request);
    if (verb == "stats") return verb_stats(request);
    if (verb == "shutdown") {
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        stop_requested_ = true;
      }
      Value result = Value::object();
      result.set("stopping", true);
      return done(result);
    }
    return fail(ErrorCode::kBadVerb, "unknown verb '" + verb + "'");
  } catch (const std::exception& e) {
    return fail(ErrorCode::kInternal, e.what());
  }
}

Service::Execution Service::done(const Value& result,
                                 std::uint64_t supersteps, bool cacheable) {
  Execution out;
  out.result_json = result.dump();
  out.supersteps = supersteps;
  out.cacheable = cacheable;
  return out;
}

Service::Execution Service::fail(ErrorCode code, std::string message) {
  Execution out;
  out.ok = false;
  out.error = code;
  out.message = std::move(message);
  return out;
}

Service::Execution Service::verb_hello(const Request&) {
  Value result = Value::object();
  result.set("server", "tricountd");
  result.set("schema", kSchema);
  result.set("ranks", options_.ranks);
  result.set("graph_version", graph_version_.load(std::memory_order_relaxed));
  result.set("graph", graph_loaded() ? Value(graph_name_) : Value());
  return done(result);
}

Service::Execution Service::verb_graph_load(const Request& request) {
  graph::EdgeList graph;
  std::string name;
  const Value* path = request.params.find("path");
  const Value* generate = request.params.find("generate");
  if ((path != nullptr) == (generate != nullptr)) {
    return fail(ErrorCode::kBadParams,
                "need exactly one of 'path' or 'generate'");
  }
  if (path != nullptr) {
    if (!path->is_string() || path->as_string().empty()) {
      return fail(ErrorCode::kBadParams, "'path' must be a non-empty string");
    }
    try {
      graph = graph::simplify(graph::read_graph(path->as_string()));
    } catch (const std::runtime_error& e) {  // unreadable or malformed file
      return fail(ErrorCode::kBadParams, e.what());
    } catch (const std::out_of_range& e) {  // an endpoint past num_vertices
      return fail(ErrorCode::kBadParams, e.what());
    }
    name = path->as_string();
  } else {
    if (!generate->is_object()) {
      return fail(ErrorCode::kBadParams, "'generate' must be an object");
    }
    const Value* type = generate->find("type");
    if (type != nullptr && !type->is_string()) {
      return fail(ErrorCode::kBadParams, "'type' must be a string");
    }
    const std::string kind = type != nullptr ? type->as_string() : "rmat";
    std::uint64_t seed = 1;
    if (!get_uint_param(*generate, "seed", 1, ~std::uint64_t{0}, seed)) {
      return fail(ErrorCode::kBadParams,
                  "'seed' must be a non-negative integer");
    }
    if (kind == "rmat") {
      std::uint64_t scale = 8;
      std::uint64_t edge_factor = 8;
      if (!get_uint_param(*generate, "scale", 8, 22, scale) || scale < 1 ||
          !get_uint_param(*generate, "edge_factor", 8, 256, edge_factor)) {
        return fail(ErrorCode::kBadParams,
                    "rmat: bad 'scale' (1..22) or 'edge_factor'");
      }
      graph::RmatParams params;
      params.scale = static_cast<int>(scale);
      params.edge_factor = static_cast<double>(edge_factor);
      params.seed = seed;
      graph = graph::rmat(params);
      name = "rmat_s" + std::to_string(scale);
    } else if (kind == "er") {
      std::uint64_t n = 1024;
      std::uint64_t edges = 8192;
      if (!get_uint_param(*generate, "n", 1024, 1u << 24, n) ||
          !get_uint_param(*generate, "edges", 8192, 1u << 28, edges)) {
        return fail(ErrorCode::kBadParams, "er: bad 'n' or 'edges'");
      }
      graph = graph::erdos_renyi(static_cast<graph::VertexId>(n),
                                 static_cast<graph::EdgeIndex>(edges), seed);
      name = "er_n" + std::to_string(n);
    } else if (kind == "ws") {
      std::uint64_t n = 512;
      std::uint64_t k = 8;
      const Value* beta = generate->find("beta");
      if (beta != nullptr && !beta->is_number()) {
        return fail(ErrorCode::kBadParams, "ws: 'beta' must be a number");
      }
      const double b = beta != nullptr ? beta->as_number() : 0.1;
      if (!get_uint_param(*generate, "n", 512, 1u << 24, n) ||
          !get_uint_param(*generate, "k", 8, 512, k) || k % 2 != 0 ||
          b < 0.0 || b > 1.0) {
        return fail(ErrorCode::kBadParams,
                    "ws: bad 'n', 'k' (even), or 'beta'");
      }
      graph = graph::watts_strogatz(static_cast<graph::VertexId>(n),
                                    static_cast<int>(k), b, seed);
      name = "ws_n" + std::to_string(n);
    } else {
      return fail(ErrorCode::kBadParams, "unknown generator '" + kind + "'");
    }
  }

  // Every generator returns a simplified graph.
  install_graph(std::move(graph), name);
  const core::ResidentPartition& grid = resident_.grid(*world_);
  Value result = Value::object();
  result.set("graph_version", graph_version_.load(std::memory_order_relaxed));
  result.set("graph", graph_name_);
  result.set("num_vertices", static_cast<std::uint64_t>(grid.num_vertices));
  result.set("num_edges", static_cast<std::uint64_t>(grid.num_edges));
  result.set("resident_bytes", grid.resident_bytes());
  return done(result);
}

void Service::load_graph(graph::EdgeList graph, const std::string& name) {
  install_graph(graph::simplify(std::move(graph)), name);
}

void Service::install_graph(graph::EdgeList simplified,
                            const std::string& name) {
  ensure_world();
  resident_.reset(std::move(simplified));
  graph_name_ = name;
  // The 2D partition is built at load; the cetric one waits for its
  // first request.
  (void)resident_.grid(*world_);
  publish_world_stats();
  stream_.reset();  // wholesale replacement; delta state restarts fresh
  sample_.reset();
  const std::uint64_t version =
      graph_version_.fetch_add(1, std::memory_order_relaxed) + 1;
  cache_.invalidate_all();
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    counters_.graph_version = version;
  }
}

void Service::ensure_world() {
  if (world_ != nullptr && !world_->poisoned()) return;
  if (world_ != nullptr) {
    jobs_retired_ += world_->jobs_run();
    registry_.counter("tc.service.recoveries").inc();
  }
  world_.reset();  // join any poisoned world's threads first
  world_ = std::make_unique<mpisim::PersistentWorld>(options_.ranks);
}

void Service::ensure_stream() {
  if (stream_ != nullptr) return;
  // Before the stream starts no batch is queued, so this count runs on
  // the 2D partition graph.load built, with no patch and no rebuild.
  const core::RunResult start = run_tally(core::Tally::kCount);
  stream_ = std::make_unique<stream::StreamState>(
      stream::StreamState::from_graph(resident_.graph(), start.triangles));
}

core::RunResult Service::run_plan(const engine::Plan& plan) {
  ensure_world();
  return engine::run(plan, *world_, resident_);
}

core::RunResult Service::run_tally(core::Tally tally) {
  engine::Plan plan;
  plan.tally = tally;
  plan.config = options_.config;
  return run_plan(plan);
}

void Service::publish_world_stats() {
  const std::uint64_t live = world_ != nullptr ? world_->jobs_run() : 0;
  jobs_run_.store(jobs_retired_ + live, std::memory_order_relaxed);
  registry_.counter("tc.resident.builds.2d")
      .set(resident_.builds(engine::Algo::kCannon));
  registry_.counter("tc.resident.builds.cetric")
      .set(resident_.builds(engine::Algo::kCetric));
}

Service::Execution Service::verb_count(const Request& request) {
  const Value* algo_param = request.params.find("algo");
  if (algo_param != nullptr && !algo_param->is_string()) {
    return fail(ErrorCode::kBadParams, "'algo' must be a string");
  }
  const std::string algo =
      algo_param != nullptr ? algo_param->as_string() : "2d";
  core::Config config = options_.config;
  if (const Value* kernel = request.params.find("kernel")) {
    if (!kernel->is_string() ||
        !kernels::parse_policy(kernel->as_string(), config.kernel)) {
      return fail(ErrorCode::kBadParams, "bad 'kernel'");
    }
  }
  if (const Value* overlap = request.params.find("overlap")) {
    if (overlap->type() != Value::Type::kBool) {
      return fail(ErrorCode::kBadParams, "'overlap' must be a bool");
    }
    config.overlap = overlap->as_bool();
  }

  engine::Plan plan;
  plan.config = config;
  if (algo == "cetric") {
    plan.algo = engine::Algo::kCetric;
  } else if (algo == "summa") {
    plan.algo = engine::Algo::kSumma;
  } else if (algo != "2d") {
    return fail(ErrorCode::kBadParams, "unknown algo '" + algo + "'");
  }
  const core::RunResult run = run_plan(plan);

  Value result = Value::object();
  result.set("algo", algo);
  result.set("triangles", static_cast<std::uint64_t>(run.triangles));
  return done(result, run.num_shifts(), true);
}

Service::Execution Service::verb_pervertex(const Request& request) {
  std::uint64_t top = 10;
  if (!get_uint_param(request.params, "top", 10, 10000, top)) {
    return fail(ErrorCode::kBadParams,
                "'top' must be an integer in [0, 10000]");
  }

  const graph::EdgeList& graph = resident_.graph();
  core::RunResult run = run_tally(core::Tally::kPerVertex);
  const core::PerVertexResult per_vertex{
      run.triangles, std::move(run.vertex_triangles), options_.ranks};
  const std::vector<graph::EdgeIndex> degree = graph::degrees(graph);

  const Value* vertices = request.params.find("vertices");
  Value rows = Value::array();
  auto emit_vertex = [&](graph::VertexId v) {
    Value row = Value::object();
    row.set("vertex", static_cast<std::uint64_t>(v));
    row.set("triangles", static_cast<std::uint64_t>(
                             per_vertex.counts[static_cast<std::size_t>(v)]));
    row.set("clustering", per_vertex.local_clustering(
                              v, degree[static_cast<std::size_t>(v)]));
    rows.push_back(std::move(row));
  };
  if (vertices != nullptr) {
    if (!vertices->is_array()) {
      return fail(ErrorCode::kBadParams,
                  "'vertices' must be an array of vertex ids");
    }
    for (std::size_t i = 0; i < vertices->size(); ++i) {
      const Value& v = vertices->at(i);
      if (!v.is_number() || v.as_number() < 0 ||
          v.as_number() >= static_cast<double>(graph.num_vertices)) {
        return fail(ErrorCode::kBadParams, "vertex id out of range");
      }
      if (std::floor(v.as_number()) != v.as_number()) {
        return fail(ErrorCode::kBadParams, "vertex ids must be integers");
      }
      emit_vertex(static_cast<graph::VertexId>(v.as_uint()));
    }
  } else {
    // Only the first `top` places are ordered (count descending, then id
    // ascending), so the answer is that of a full sort.
    std::vector<graph::VertexId> order(
        static_cast<std::size_t>(graph.num_vertices));
    std::iota(order.begin(), order.end(), graph::VertexId{0});
    const std::size_t take = std::min<std::size_t>(top, order.size());
    std::partial_sort(
        order.begin(), order.begin() + static_cast<std::ptrdiff_t>(take),
        order.end(), [&](graph::VertexId a, graph::VertexId b) {
          const auto ca = per_vertex.counts[static_cast<std::size_t>(a)];
          const auto cb = per_vertex.counts[static_cast<std::size_t>(b)];
          return ca != cb ? ca > cb : a < b;
        });
    for (std::size_t i = 0; i < take; ++i) emit_vertex(order[i]);
  }

  Value result = Value::object();
  result.set("total_triangles",
             static_cast<std::uint64_t>(per_vertex.total_triangles));
  result.set(vertices != nullptr ? "vertices" : "top", std::move(rows));
  return done(result, run.num_shifts(), true);
}

Service::Execution Service::verb_clustering(const Request&) {
  core::RunResult run = run_tally(core::Tally::kPerVertex);
  const core::ClusteringStats stats = core::clustering_stats(
      resident_.graph(),
      {run.triangles, std::move(run.vertex_triangles), options_.ranks});
  Value result = Value::object();
  result.set("triangles", static_cast<std::uint64_t>(stats.triangles));
  result.set("wedges", static_cast<std::uint64_t>(stats.wedges));
  result.set("transitivity", stats.transitivity);
  result.set("average_local_clustering", stats.average_local_clustering);
  return done(result, run.num_shifts(), true);
}

Service::Execution Service::verb_truss(const Request&) {
  const core::RunResult run = run_tally(core::Tally::kEdgeSupport);
  const graph::KtrussResult truss =
      graph::ktruss_from_supports(resident_.graph(), run.edge_supports);
  // at_least[k] = edges of trussness >= k: one histogram, summed from
  // the top.
  std::vector<std::uint64_t> at_least(
      static_cast<std::size_t>(truss.max_k) + 1);
  for (const int t : truss.trussness) ++at_least[static_cast<std::size_t>(t)];
  std::partial_sum(at_least.rbegin(), at_least.rend(), at_least.rbegin());
  Value per_k = Value::array();
  for (int k = 3; k <= truss.max_k; ++k) {
    Value row = Value::object();
    row.set("k", k);
    row.set("edges", at_least[static_cast<std::size_t>(k)]);
    per_k.push_back(std::move(row));
  }
  Value result = Value::object();
  result.set("max_k", truss.max_k);
  result.set("per_k", std::move(per_k));
  return done(result, run.num_shifts(), true);
}

Service::Execution Service::verb_support(const Request& request) {
  std::uint64_t top = 10;
  if (!get_uint_param(request.params, "top", 10, 10000, top)) {
    return fail(ErrorCode::kBadParams,
                "'top' must be an integer in [0, 10000]");
  }
  const core::RunResult run = run_tally(core::Tally::kEdgeSupport);
  const std::vector<graph::TriangleCount>& supports = run.edge_supports;

  // Only the first `top` places are ordered (support descending, then
  // edge index ascending), so the answer is that of a full sort.
  std::vector<std::size_t> order(supports.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const std::size_t take = std::min<std::size_t>(top, order.size());
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(take),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      return supports[a] != supports[b]
                                 ? supports[a] > supports[b]
                                 : a < b;
                    });
  Value rows = Value::array();
  for (std::size_t i = 0; i < take; ++i) {
    const auto& edge = resident_.graph().edges[order[i]];
    Value row = Value::object();
    row.set("u", static_cast<std::uint64_t>(edge.u));
    row.set("v", static_cast<std::uint64_t>(edge.v));
    row.set("support", static_cast<std::uint64_t>(supports[order[i]]));
    rows.push_back(std::move(row));
  }
  Value result = Value::object();
  result.set("edges", static_cast<std::uint64_t>(supports.size()));
  result.set("top", std::move(rows));
  return done(result, run.num_shifts(), true);
}

Service::Execution Service::verb_approx(const Request& request) {
  const Value* retention_param = request.params.find("retention");
  if (retention_param != nullptr && !retention_param->is_number()) {
    return fail(ErrorCode::kBadParams, "'retention' must be a number");
  }
  const double retention =
      retention_param != nullptr ? retention_param->as_number() : 0.1;
  if (!(retention > 0.0 && retention <= 1.0)) {
    return fail(ErrorCode::kBadParams, "'retention' must be in (0, 1]");
  }
  std::uint64_t seed = 42;
  if (!get_uint_param(request.params, "seed", 42, ~std::uint64_t{0}, seed)) {
    return fail(ErrorCode::kBadParams, "'seed' must be a non-negative integer");
  }
  const graph::ApproxCount approx =
      graph::approx_triangles_doulion(resident_.graph(), retention, seed);
  Value result = Value::object();
  result.set("estimate", approx.estimate);
  result.set("sparsified_triangles",
             static_cast<std::uint64_t>(approx.sparsified_triangles));
  result.set("kept_edges", static_cast<std::uint64_t>(approx.kept_edges));
  result.set("retention", approx.retention);
  // Serial sparsify-and-count: no distributed sweep.
  return done(result, 0, true);
}

Service::Execution Service::apply_batch(const stream::Batch& batch,
                                        kernels::KernelPolicy kernel) {
  if (const auto reason = stream::validate(*stream_, batch)) {
    return fail(ErrorCode::kBadParams, *reason);
  }
  ensure_world();
  stream::DeltaConfig config;
  config.kernel = kernel;
  const stream::DeltaResult delta =
      stream::count_delta(*world_, *stream_, batch, config);
  stream::apply(*stream_, batch, delta);
  if (sample_ != nullptr) sample_->apply(batch);
  // The 2D piece queues the batch for a patch at the next verb that needs
  // it; the cetric piece goes stale until the next cetric verb.
  resident_.update(stream_->edge_list(), batch);

  const std::uint64_t old_version =
      graph_version_.fetch_add(1, std::memory_order_relaxed);
  cache_.invalidate_version(old_version);

  registry_.counter("tc.delta.batches").inc();
  registry_.counter("tc.delta.edges_applied").inc(batch.ops.size());
  registry_.counter("tc.delta.wedges_probed").inc(delta.kernel.lookups);
  registry_.counter("tc.delta.triangles_added").inc(delta.added());
  registry_.counter("tc.delta.triangles_removed").inc(delta.removed());
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    ++counters_.delta_batches;
    counters_.delta_edges_applied += batch.ops.size();
    counters_.delta_wedges_probed += delta.kernel.lookups;
    counters_.delta_triangles_added += delta.added();
    counters_.delta_triangles_removed += delta.removed();
    counters_.graph_version = old_version + 1;
  }

  Value result = Value::object();
  result.set("applied", static_cast<std::uint64_t>(batch.ops.size()));
  result.set("triangles", static_cast<std::uint64_t>(stream_->triangles()));
  result.set("removed", static_cast<std::uint64_t>(delta.removed()));
  result.set("added", static_cast<std::uint64_t>(delta.added()));
  result.set("num_edges", static_cast<std::uint64_t>(stream_->num_edges()));
  result.set("graph_version", old_version + 1);
  result.set("shard_messages", delta.shard_messages);
  result.set("shard_bytes", delta.shard_bytes);
  return done(result, 1);
}

Service::Execution Service::verb_graph_apply(const Request& request) {
  const Value* ops = request.params.find("ops");
  if (ops == nullptr || !ops->is_array() || ops->size() == 0) {
    return fail(ErrorCode::kBadParams,
                "'ops' must be a non-empty array of '+u v' / '-u v'");
  }
  stream::Batch batch;
  for (std::size_t i = 0; i < ops->size(); ++i) {
    const Value& op = ops->at(i);
    const std::optional<stream::DeltaOp> parsed =
        op.is_string() ? stream::parse_op(op.as_string())
                       : std::optional<stream::DeltaOp>();
    if (!parsed) {
      return fail(ErrorCode::kBadParams,
                  "ops[" + std::to_string(i) + "]: malformed op");
    }
    batch.ops.push_back(*parsed);
  }
  kernels::KernelPolicy kernel = options_.config.kernel;
  if (const Value* param = request.params.find("kernel")) {
    if (!param->is_string() ||
        !kernels::parse_policy(param->as_string(), kernel)) {
      return fail(ErrorCode::kBadParams, "bad 'kernel'");
    }
  }
  ensure_stream();
  return apply_batch(batch, kernel);
}

Service::Execution Service::verb_graph_window(const Request& request) {
  std::uint64_t capacity = 0;
  const Value* param = request.params.find("capacity");
  if (param == nullptr ||
      !get_uint_param(request.params, "capacity", 0, ~std::uint64_t{0},
                      capacity)) {
    return fail(ErrorCode::kBadParams,
                "'capacity' must be an integer in [0, 2^64)");
  }
  ensure_stream();
  const stream::Batch evictions = stream::window_evictions(*stream_, capacity);
  if (evictions.ops.empty()) {
    // Already inside the window: no state change, no version bump.
    Value result = Value::object();
    result.set("evicted", 0);
    result.set("triangles", static_cast<std::uint64_t>(stream_->triangles()));
    result.set("num_edges",
               static_cast<std::uint64_t>(stream_->num_edges()));
    result.set("graph_version",
               graph_version_.load(std::memory_order_relaxed));
    return done(result);
  }
  Execution applied = apply_batch(evictions, options_.config.kernel);
  if (!applied.ok) return applied;
  Value result = Value::parse(applied.result_json);
  result.set("evicted", static_cast<std::uint64_t>(evictions.ops.size()));
  applied.result_json = result.dump();
  return applied;
}

Service::Execution Service::verb_delta_stats(const Request&) {
  ensure_stream();
  SessionCounters counters;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    counters = counters_;
  }
  Value result = Value::object();
  result.set("triangles", static_cast<std::uint64_t>(stream_->triangles()));
  result.set("num_vertices",
             static_cast<std::uint64_t>(stream_->num_vertices()));
  result.set("num_edges", static_cast<std::uint64_t>(stream_->num_edges()));
  result.set("batches", counters.delta_batches);
  result.set("edges_applied", counters.delta_edges_applied);
  result.set("wedges_probed", counters.delta_wedges_probed);
  result.set("triangles_added", counters.delta_triangles_added);
  result.set("triangles_removed", counters.delta_triangles_removed);
  result.set("graph_version", graph_version_.load(std::memory_order_relaxed));
  result.set("sampled", sample_ != nullptr);
  return done(result);
}

Service::Execution Service::verb_stream_sample(const Request& request) {
  ensure_stream();
  const Value* retention_param = request.params.find("retention");
  if (retention_param != nullptr) {
    if (!retention_param->is_number() ||
        !(retention_param->as_number() > 0.0 &&
          retention_param->as_number() <= 1.0)) {
      return fail(ErrorCode::kBadParams, "'retention' must be in (0, 1]");
    }
    std::uint64_t seed = 42;
    if (!get_uint_param(request.params, "seed", 42, ~std::uint64_t{0},
                        seed)) {
      return fail(ErrorCode::kBadParams,
                  "'seed' must be a non-negative integer");
    }
    sample_ = std::make_unique<stream::SampledStream>(
        *stream_, retention_param->as_number(), seed);
  } else if (sample_ == nullptr) {
    return fail(ErrorCode::kBadParams,
                "no sampled estimator; pass 'retention' to start one");
  }
  Value result = Value::object();
  result.set("estimate", sample_->estimate());
  result.set("sparsified_triangles",
             static_cast<std::uint64_t>(sample_->sparsified_triangles()));
  result.set("kept_edges", sample_->kept_edges());
  result.set("retention", sample_->retention());
  result.set("seed", sample_->seed());
  result.set("exact", static_cast<std::uint64_t>(stream_->triangles()));
  return done(result);
}

Service::Execution Service::verb_cache_stats(const Request&) {
  const ResultCache::Stats stats = cache_.stats();
  Value result = Value::object();
  result.set("hits", stats.hits);
  result.set("misses", stats.misses);
  result.set("evictions", stats.evictions);
  result.set("invalidations", stats.invalidations);
  result.set("size", static_cast<std::uint64_t>(stats.size));
  result.set("capacity", static_cast<std::uint64_t>(stats.capacity));
  return done(result);
}

Service::Execution Service::verb_stats(const Request&) {
  SessionCounters counters;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    counters = counters_;
  }
  const AdmissionQueue::Stats queue = queue_.stats();
  Value result = Value::object();
  result.set("requests", counters.requests);
  result.set("admitted", counters.admitted);
  result.set("shed", counters.shed);
  result.set("rejected", counters.rejected);
  result.set("errors", counters.errors);
  result.set("jobs", jobs_run());
  result.set("graph_version", graph_version_.load(std::memory_order_relaxed));
  result.set("queue_depth", static_cast<std::uint64_t>(queue.depth));
  result.set("queue_max_depth", queue.max_depth);
  result.set("resident_bytes", resident_.grid_bytes());
  result.set("cetric_resident_bytes", resident_.cetric_bytes());
  return done(result);
}

void Service::shutdown() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  queue_.stop();
  if (dispatcher_.joinable()) dispatcher_.join();
  // Manual mode (or a race that left a backlog): drain on this thread.
  while (true) {
    std::vector<Pending> batch =
        queue_.try_pop_batch(options_.max_batch);
    if (batch.empty()) break;
    execute_batch(std::move(batch));
  }
  if (!options_.artifacts_dir.empty()) write_session_artifact();
}

bool Service::stop_requested() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return stop_requested_;
}

std::uint64_t Service::graph_version() const {
  return graph_version_.load(std::memory_order_relaxed);
}

std::size_t Service::in_flight() const {
  return in_flight_.load(std::memory_order_relaxed);
}

std::uint64_t Service::jobs_run() const {
  return jobs_run_.load(std::memory_order_relaxed);
}

ResultCache::Stats Service::cache_stats() const { return cache_.stats(); }

AdmissionQueue::Stats Service::queue_stats() const { return queue_.stats(); }

SessionCounters Service::counters() const {
  std::lock_guard<std::mutex> lock(state_mutex_);
  SessionCounters counters = counters_;
  counters.jobs = jobs_run();
  counters.graph_version = graph_version_.load(std::memory_order_relaxed);
  return counters;
}

obs::Trace Service::session_artifact() const {
  const SessionCounters counters = this->counters();
  std::vector<RequestRecord> records;
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    records = records_;
  }
  const obs::Snapshot metrics = registry_.snapshot();

  namespace st = obs::session_trace;
  obs::Trace trace;
  trace.set_thread_name(st::kAdmissionTid, "admission");
  trace.set_thread_name(st::kDispatcherTid, "dispatcher");
  for (const RequestRecord& r : records) {
    const double ts = r.start_us - epoch_us_;
    const auto id = static_cast<double>(r.id);
    if (!r.dispatched) {
      trace.add_instant(st::kAdmissionTid, r.verb, std::string(r.error), ts,
                        {{st::kId, id}});
      continue;
    }
    trace.add_complete(
        st::kDispatcherTid, r.verb, std::string(r.ok ? r.cache : r.error), ts,
        r.dur_us,
        {{st::kId, id},
         {st::kGraphVersion, static_cast<double>(r.graph_version)},
         {st::kBatched, r.batched ? 1.0 : 0.0},
         {st::kOk, r.ok ? 1.0 : 0.0},
         {st::kSupersteps, static_cast<double>(r.supersteps)},
         {st::kQueueUs, r.queue_us}});
  }
  Value& other = trace.other_data();
  other.set("ranks", options_.ranks);
  other.set("build", obs::build_info_json());
  other.set("session", session_json(counters, cache_.stats(), metrics));
  other.set("metrics", metrics.to_json());
  return trace;
}

std::string Service::write_session_artifact() const {
  std::filesystem::create_directories(options_.artifacts_dir);
  const std::string path = options_.artifacts_dir + "/service-session.json";
  session_artifact().write_file(path);
  return path;
}

void Service::emit(const std::string& line) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  if (sink_) sink_(line);
}

void Service::record(RequestRecord row) {
  std::lock_guard<std::mutex> lock(state_mutex_);
  records_.push_back(std::move(row));
}

}  // namespace tricount::service
