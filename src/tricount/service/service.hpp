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
//    latency histogram, and the session trace (session_artifact()).
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
#include <string_view>
#include <thread>
#include <vector>

#include "tricount/core/config.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/engine/engine.hpp"
#include "tricount/graph/edge_list.hpp"
#include "tricount/mpisim/runtime.hpp"
#include "tricount/obs/metrics.hpp"
#include "tricount/obs/trace.hpp"
#include "tricount/service/admission.hpp"
#include "tricount/service/cache.hpp"
#include "tricount/service/protocol.hpp"
#include "tricount/stream/stream.hpp"

namespace tricount::service {

/// One answered request, as the session trace records it: a span on the
/// dispatcher's tid, or an instant on the admission tid when it was shed
/// or rejected there.
struct RequestRecord {
  std::uint64_t id = 0;
  std::string verb;
  std::uint64_t graph_version = 0;
  /// The cache disposition (obs::session_trace: hit, miss, coalesced, or
  /// none on admin and error paths). This and `error` view string
  /// literals: a session keeps every record.
  std::string_view cache = obs::session_trace::kNone;
  bool batched = false;
  bool ok = true;
  /// False when shed or rejected at admission: never dispatched.
  bool dispatched = true;
  std::string_view error;  ///< error code string (to_string) when !ok
  double start_us = 0.0;  ///< wall µs the dispatcher took it up (or shed it)
  double dur_us = 0.0;    ///< from start_us to its response
  double queue_us = 0.0;  ///< admission wait before start_us
  /// Counting supersteps this request caused. Cache hits and coalesced
  /// requests must report 0 — the acceptance criterion "a cache hit
  /// answers without any counting superstep" is linted, not assumed.
  std::uint64_t supersteps = 0;
};

/// Session-level tallies, the session trace's otherData.session.
struct SessionCounters {
  std::uint64_t requests = 0;  ///< every line received
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;  ///< parse/validation failures
  std::uint64_t errors = 0;    ///< admitted but failed to execute
  std::uint64_t jobs = 0;      ///< SPMD jobs run on the world
  std::uint64_t graph_version = 0;
  // Streaming-maintenance tallies (docs/streaming.md), mirrored into
  // the tc.delta.* registry counters; the lint reconciles the two.
  std::uint64_t delta_batches = 0;         ///< applied delta batches
  std::uint64_t delta_edges_applied = 0;   ///< ops across those batches
  std::uint64_t delta_wedges_probed = 0;   ///< kernel elementary lookups
  std::uint64_t delta_triangles_added = 0;
  std::uint64_t delta_triangles_removed = 0;
};

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
  WireLimits limits;
  /// Where shutdown() writes the session trace; empty = don't.
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
  /// writes the session trace (when artifacts_dir is set). Idempotent.
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
  /// The session trace (docs/service.md, "Observability"): one span per
  /// dispatched request on tid 1, one instant per shed or rejected
  /// request on tid 0, and the tallies, cache stats, latency quantiles
  /// and metrics snapshot in otherData. Buildable at any quiesced point
  /// (tests lint it without shutting down).
  obs::Trace session_artifact() const;
  /// Writes the session trace into artifacts_dir; returns the path.
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

  /// Makes `simplified` the resident graph: preprocesses it, bumps the
  /// graph version, invalidates the cache and drops the stream state.
  void install_graph(graph::EdgeList simplified, const std::string& name);
  /// Counts, applies, and accounts one validated delta batch; bumps the
  /// graph version and surgically invalidates the superseded entries.
  Execution apply_batch(const stream::Batch& batch,
                        kernels::KernelPolicy kernel);

  /// Builds the world, or rebuilds one a failed job poisoned (counted in
  /// tc.service.recoveries). The resident pieces carry over: a counting
  /// job only reads them, a piece whose build failed is never marked
  /// current, and a 2D piece whose patch failed is dropped.
  void ensure_world();
  /// Lazily builds the maintained stream state from the resident graph,
  /// seeded by one Cannon count on the resident 2D partition.
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

  ServiceOptions options_;
  ResponseSink sink_;
  AdmissionQueue queue_;
  ResultCache cache_;
  obs::Registry registry_;
  /// Wall µs at construction: time zero of the session trace.
  double epoch_us_ = 0.0;
  /// Requests of the batch being executed (in_flight()).
  std::atomic<std::size_t> in_flight_{0};

  // Dispatcher-owned state.
  std::unique_ptr<mpisim::PersistentWorld> world_;
  std::string graph_name_;
  /// The simplified graph and every piece served verbs run on; after a
  /// graph.apply the next verb that needs the 2D piece patches it in
  /// place, and the next cetric verb rebuilds the cetric piece.
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
