// The resident triangle-analytics service (docs/service.md): the engine
// behind `tools/tricountd`. One instance owns
//
//  * a PersistentWorld whose rank threads stay parked between requests,
//  * the graph's engine::Resident state — the 2D partition, built at
//    load, and the cetric partition, built by the first cetric request —
//    so every served verb pays only its counting supersteps,
//  * the bounded AdmissionQueue (backpressure → `shed` errors),
//  * the versioned LRU ResultCache (a graph.load/swap bumps the version
//    and invalidates), and
//  * per-request observability: a metrics registry with the request-
//    latency histogram, ServiceTelemetry gauges for tricount_top, and
//    the tricount.service.v1 session artifact.
//
// Threading: submit() may be called from one reader thread (the socket /
// stdin loop); parse failures and sheds are answered inline, admitted
// requests are executed by the dispatcher thread in admission order —
// singly or coalesced into batches of up to max_batch. Tests construct
// the service with manual_dispatch and drive dispatch_once()/drain() on
// their own thread. The response sink may be called from either thread,
// one fully-formed line per call, serialized by an internal lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "tricount/core/config.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/engine/engine.hpp"
#include "tricount/graph/edge_list.hpp"
#include "tricount/mpisim/runtime.hpp"
#include "tricount/obs/metrics.hpp"
#include "tricount/obs/telemetry.hpp"
#include "tricount/service/admission.hpp"
#include "tricount/service/artifact.hpp"
#include "tricount/service/cache.hpp"
#include "tricount/service/protocol.hpp"
#include "tricount/stream/stream.hpp"

namespace tricount::service {

struct ServiceOptions {
  /// World size; must be a perfect square (2D partition).
  int ranks = 4;
  /// Base algorithm configuration; per-request params may override the
  /// kernel-phase knobs, never the enumeration (baked into the partition).
  core::Config config;
  util::AlphaBetaModel model;
  std::size_t queue_depth = 64;
  std::size_t cache_capacity = 128;
  /// Requests coalesced per dispatcher sweep (1 = unbatched).
  std::size_t max_batch = 16;
  bool batching = true;
  WireLimits limits;
  /// Where shutdown() writes the session artifact; empty = don't.
  std::string artifacts_dir;
  /// Tests: no dispatcher thread; drive dispatch_once()/drain() manually.
  bool manual_dispatch = false;
};

class Service {
 public:
  /// Tests reach the dispatcher-owned world through this peer; the
  /// service itself never names it.
  friend struct ServiceTestPeer;

  /// Receives one complete response line (no trailing newline) per call.
  using ResponseSink = std::function<void(const std::string& line)>;

  Service(const ServiceOptions& options, ResponseSink sink);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Feeds one request line. Parse failures and sheds are answered
  /// immediately; admitted requests are answered by the dispatcher.
  void submit(const std::string& line);

  /// Manual mode: pops and executes one batch; false when idle.
  bool dispatch_once();
  /// Manual mode: dispatches until the queue is empty.
  void drain();

  /// Stops admission, drains the backlog, joins the dispatcher, and
  /// writes the session artifact (when artifacts_dir is set). Idempotent.
  void shutdown();

  /// Preloads a graph directly (tests, --graph flag), bypassing the wire
  /// protocol. Simplifies, preprocesses, bumps the graph version,
  /// invalidates the cache.
  void load_graph(graph::EdgeList graph, const std::string& name);

  /// True once a `shutdown` verb was served; the daemon loop polls this.
  bool stop_requested() const;

  // --- introspection (tests, bench) --------------------------------------
  int ranks() const { return options_.ranks; }
  bool graph_loaded() const { return resident_.loaded(); }
  std::uint64_t graph_version() const;
  /// Requests popped from the queue but not yet fully answered. The
  /// daemon's drain wait must cover this too, not just the queue depth —
  /// a batch mid-execution holds responses the client is still owed.
  std::size_t in_flight() const;
  /// The maintained stream state (null until a streaming verb ran).
  const stream::StreamState* stream_state() const { return stream_.get(); }
  /// Successful SPMD jobs run on the persistent world (a cache hit must
  /// not advance this).
  std::uint64_t jobs_run() const;
  ResultCache::Stats cache_stats() const;
  AdmissionQueue::Stats queue_stats() const;
  SessionCounters counters() const;
  const std::vector<RequestRecord>& records() const { return records_; }
  /// The tricount.service.v1 session document, buildable at any quiesced
  /// point (tests lint it without shutting down).
  obs::json::Value session_artifact() const;
  /// Writes the session artifact into artifacts_dir; returns the path.
  std::string write_session_artifact() const;

 private:
  struct Execution {
    bool ok = true;
    ErrorCode error = ErrorCode::kInternal;
    std::string message;
    std::string result_json;  ///< compact result body when ok
    std::uint64_t supersteps = 0;
    bool cacheable = false;
  };

  static Execution done(const obs::json::Value& result,
                        std::uint64_t supersteps = 0, bool cacheable = false);
  static Execution fail(ErrorCode code, std::string message);
  void dispatcher_loop();
  void execute_batch(std::vector<Pending> batch);
  Execution execute(const Request& request);

  // Verb implementations (dispatcher thread only).
  Execution verb_hello(const Request& request);
  Execution verb_graph_load(const Request& request);
  Execution verb_count(const Request& request);
  Execution verb_pervertex(const Request& request);
  Execution verb_clustering(const Request& request);
  Execution verb_truss(const Request& request);
  Execution verb_support(const Request& request);
  Execution verb_approx(const Request& request);
  Execution verb_cache_stats(const Request& request);
  Execution verb_stats(const Request& request);
  Execution verb_graph_apply(const Request& request);
  Execution verb_graph_window(const Request& request);
  Execution verb_delta_stats(const Request& request);
  Execution verb_stream_sample(const Request& request);

  /// Counts, applies, and accounts one validated delta batch; bumps the
  /// graph version and surgically invalidates the superseded entries.
  Execution apply_batch(const stream::Batch& batch,
                        kernels::KernelPolicy kernel);

  /// Builds the world, or rebuilds one a failed job poisoned (counted in
  /// tc.service.recoveries). The resident pieces carry over: a job only
  /// reads them, and a piece whose build failed is never marked current.
  void ensure_world();
  /// Lazily builds the maintained stream state from the resident graph.
  void ensure_stream();
  /// Runs `plan` through engine::run on the resident state. A rank
  /// failure throws (→ `internal`) and poisons the world; the next request
  /// runs on a rebuilt one.
  core::RunResult run_plan(const engine::Plan& plan);
  /// Publishes the world's job count and the resident build counters.
  void publish_world_stats();
  /// A crediting tally (pervertex/clustering, support/truss) as a plan.
  core::RunResult run_tally(core::Tally tally);
  void emit(const std::string& line);
  void record(RequestRecord row);
  void refresh_gauges();

  ServiceOptions options_;
  ResponseSink sink_;
  AdmissionQueue queue_;
  ResultCache cache_;
  obs::Registry registry_;
  obs::ServiceTelemetry gauges_;

  // Dispatcher-owned state.
  std::unique_ptr<mpisim::PersistentWorld> world_;
  std::string graph_name_;
  /// The simplified graph and every piece served verbs run on; graph.apply
  /// marks the pieces stale and the next verb that needs one rebuilds it.
  engine::Resident resident_;
  /// Incremental maintenance state (docs/streaming.md); built lazily by
  /// the first streaming verb, reset by graph.load/swap.
  std::unique_ptr<stream::StreamState> stream_;
  std::unique_ptr<stream::SampledStream> sample_;
  /// Atomic: the submit thread pins it at admission (see
  /// Pending::admit_version) while the dispatcher bumps it on swaps.
  std::atomic<std::uint64_t> graph_version_{0};
  /// Atomic: counters() and jobs_run() read it on client threads while
  /// the dispatcher may replace the world.
  std::atomic<std::uint64_t> jobs_run_{0};
  /// Jobs run by worlds that were poisoned and replaced.
  std::uint64_t jobs_retired_ = 0;

  // Shared between the reader and the dispatcher.
  mutable std::mutex state_mutex_;
  SessionCounters counters_;
  std::vector<RequestRecord> records_;
  bool stop_requested_ = false;
  bool shut_down_ = false;

  std::thread dispatcher_;
};

}  // namespace tricount::service
