// Streaming-maintenance suite (`ctest -L streaming`, docs/streaming.md):
// the randomized differential campaign proving the incrementally
// maintained total exactly equals cold recounts across insert/delete/
// mixed/windowed schedules × kernel policies × rank counts, each sign of
// the delta against survivor-graph recounts, typed batch rejections,
// delta replay under chaos faults (including a crash), the sliding
// window's eviction order, the DOULION sampled estimator (exact at
// retention 1, unbiased at retention < 1, maintained == rebuilt), and
// the service-layer wiring (graph.apply / graph.window / delta.stats /
// stream.sample, version bumps, cache invalidation, artifact lint).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "test_corpus.hpp"
#include "test_seed.hpp"
#include "tricount/chaos/fault_plan.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/serial_count.hpp"
#include "tricount/obs/json.hpp"
#include "tricount/service/service.hpp"
#include "tricount/stream/stream.hpp"
#include "tricount/util/rng.hpp"

namespace tricount {
namespace {

using graph::Edge;
using graph::TriangleCount;
using graph::VertexId;
using obs::json::Value;

std::uint64_t edge_key(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

TriangleCount serial_count(const graph::EdgeList& g) {
  return graph::count_triangles_serial(graph::Csr::from_edges(g));
}

/// The full differential check: the maintained total must match the
/// independent serial counter and a cold rebuild of the state's own live
/// edge set.
void expect_matches_cold(const stream::StreamState& state,
                         const std::string& where) {
  const graph::EdgeList snapshot = state.edge_list();
  EXPECT_EQ(state.triangles(), serial_count(snapshot)) << where;
  const stream::StreamState cold = stream::StreamState::from_graph(snapshot);
  EXPECT_EQ(cold.triangles(), state.triangles()) << where;
}

enum class Mode { kInserts, kDeletes, kMixed };

/// Builds a random valid batch against the state: deletes sample the
/// live edge set, inserts sample absent pairs, each undirected edge at
/// most once per batch.
stream::Batch random_batch(util::Xoshiro256& rng,
                           const stream::StreamState& state, Mode mode,
                           std::size_t max_ops) {
  stream::Batch batch;
  const graph::EdgeList live = state.edge_list();
  const VertexId n = state.num_vertices();
  std::unordered_set<std::uint64_t> used;
  const std::size_t want = 1 + rng.bounded(max_ops);
  for (int guard = 0; batch.ops.size() < want && guard < 4000; ++guard) {
    const bool insert =
        mode == Mode::kInserts ||
        (mode == Mode::kMixed && rng.bounded(2) == 0 && n >= 2);
    if (insert) {
      const auto u = static_cast<VertexId>(rng.bounded(n));
      const auto v = static_cast<VertexId>(rng.bounded(n));
      if (u == v || state.has_edge(u, v)) continue;
      if (!used.insert(edge_key(u, v)).second) continue;
      batch.ops.push_back(
          stream::DeltaOp{true, Edge{std::min(u, v), std::max(u, v)}});
    } else {
      if (live.edges.empty()) break;
      const Edge e = live.edges[static_cast<std::size_t>(
          rng.bounded(live.edges.size()))];
      if (!used.insert(edge_key(e.u, e.v)).second) continue;
      batch.ops.push_back(stream::DeltaOp{false, e});
    }
  }
  return batch;
}

/// Counts on a throwaway world and applies; asserts validity first. The
/// counted delta is copied to `delta_out` when given.
void count_and_apply(stream::StreamState& state, const stream::Batch& batch,
                     int ranks, kernels::KernelPolicy kernel,
                     stream::DeltaResult* delta_out = nullptr) {
  ASSERT_FALSE(stream::validate(state, batch).has_value());
  stream::DeltaConfig config;
  config.kernel = kernel;
  mpisim::PersistentWorld world(ranks);
  const stream::DeltaResult delta =
      stream::count_delta(world, state, batch, config);
  stream::apply(state, batch, delta);
  if (delta_out != nullptr) *delta_out = delta;
}

// --- op parsing ----------------------------------------------------------

TEST(StreamParse, OpSpellings) {
  const auto ins = stream::parse_op("+3 7");
  ASSERT_TRUE(ins.has_value());
  EXPECT_TRUE(ins->insert);
  EXPECT_EQ(ins->edge, (Edge{3, 7}));

  const auto del = stream::parse_op("  -9   2  ");
  ASSERT_TRUE(del.has_value());
  EXPECT_FALSE(del->insert);
  EXPECT_EQ(del->edge, (Edge{2, 9}));  // canonicalized u < v

  EXPECT_FALSE(stream::parse_op("").has_value());
  EXPECT_FALSE(stream::parse_op("3 7").has_value());
  EXPECT_FALSE(stream::parse_op("+3").has_value());
  EXPECT_FALSE(stream::parse_op("+3 7 9").has_value());
  EXPECT_FALSE(stream::parse_op("+a b").has_value());
  EXPECT_FALSE(stream::parse_op("*3 7").has_value());
  EXPECT_FALSE(stream::parse_op("+3 7x").has_value());
}

// --- state construction --------------------------------------------------

TEST(StreamState, FromGraphMatchesSerialOnCorpus) {
  for (const auto& entry : test_support::corpus()) {
    const stream::StreamState state =
        stream::StreamState::from_graph(entry.graph);
    EXPECT_EQ(state.triangles(), entry.expected);
    EXPECT_EQ(state.num_edges(), entry.graph.num_edges());
  }
}

TEST(StreamState, HandCheckedSingleEdgeDeltas) {
  // Path 0-1-2 plus 2-3: no triangles yet.
  graph::EdgeList g;
  g.num_vertices = 4;
  g.edges = {Edge{0, 1}, Edge{1, 2}, Edge{2, 3}};
  stream::StreamState state = stream::StreamState::from_graph(g);
  EXPECT_EQ(state.triangles(), 0u);

  // +0 2 closes the 0-1-2 wedge.
  stream::Batch close;
  close.ops.push_back(stream::DeltaOp{true, Edge{0, 2}});
  stream::DeltaResult delta;
  count_and_apply(state, close, 1, kernels::KernelPolicy::kAuto, &delta);
  EXPECT_EQ(delta.added(), 1u);
  EXPECT_EQ(delta.removed(), 0u);
  EXPECT_EQ(state.triangles(), 1u);

  // -1 2 destroys it again.
  stream::Batch open;
  open.ops.push_back(stream::DeltaOp{false, Edge{1, 2}});
  count_and_apply(state, open, 1, kernels::KernelPolicy::kAuto, &delta);
  EXPECT_EQ(delta.added(), 0u);
  EXPECT_EQ(delta.removed(), 1u);
  EXPECT_EQ(state.triangles(), 0u);
  EXPECT_FALSE(state.has_edge(1, 2));
  expect_matches_cold(state, "hand-checked");
}

TEST(StreamState, BatchInternalTermsCountExactlyOnce) {
  // Insert all three edges of a triangle in ONE batch: the triangle is
  // wholly inside B (term 3) and must be counted exactly once, not three
  // times (once per edge pair).
  graph::EdgeList g;
  g.num_vertices = 5;
  g.edges = {Edge{3, 4}};
  stream::StreamState state = stream::StreamState::from_graph(g);

  stream::Batch tri;
  tri.ops.push_back(stream::DeltaOp{true, Edge{0, 1}});
  tri.ops.push_back(stream::DeltaOp{true, Edge{1, 2}});
  tri.ops.push_back(stream::DeltaOp{true, Edge{0, 2}});
  count_and_apply(state, tri, 4, kernels::KernelPolicy::kMerge);
  EXPECT_EQ(state.triangles(), 1u);
  expect_matches_cold(state, "batch triangle insert");

  // Delete two of its edges in one batch: one triangle destroyed (the
  // pair term, closed by the surviving 0-2 edge), not two.
  stream::Batch pair;
  pair.ops.push_back(stream::DeltaOp{false, Edge{0, 1}});
  pair.ops.push_back(stream::DeltaOp{false, Edge{1, 2}});
  count_and_apply(state, pair, 4, kernels::KernelPolicy::kMerge);
  EXPECT_EQ(state.triangles(), 0u);
  expect_matches_cold(state, "batch pair delete");
}

TEST(StreamState, DeltaSignsMatchSurvivorRecounts) {
  // Each sign of the delta on its own: with H = G \ D the graph minus the
  // batch's deletions, removed() must equal T(G) − T(H) and added() must
  // equal T(G') − T(H). The differential campaign pins only the total.
  util::Xoshiro256 rng(
      util::stream_seed(test_support::fuzz_seed(), 0x5195));
  TriangleCount removed_total = 0;
  TriangleCount added_total = 0;
  for (std::size_t gi = 0; gi < test_support::corpus().size(); ++gi) {
    for (const int ranks : {1, 4}) {
      stream::StreamState state =
          stream::StreamState::from_graph(test_support::corpus()[gi].graph);
      for (int round = 0; round < 4; ++round) {
        const stream::Batch batch = random_batch(rng, state, Mode::kMixed, 12);
        if (batch.ops.empty()) continue;
        const std::string where = "graph " + std::to_string(gi) + " ranks " +
                                  std::to_string(ranks) + " round " +
                                  std::to_string(round);
        const graph::EdgeList g = state.edge_list();
        std::unordered_set<std::uint64_t> deleted;
        for (const stream::DeltaOp& op : batch.ops) {
          if (!op.insert) deleted.insert(edge_key(op.edge.u, op.edge.v));
        }
        graph::EdgeList h = g;
        std::erase_if(h.edges, [&](const Edge& e) {
          return deleted.count(edge_key(e.u, e.v)) != 0;
        });
        const TriangleCount t_g = serial_count(g);
        const TriangleCount t_h = serial_count(h);

        stream::DeltaResult delta;
        count_and_apply(state, batch, ranks, kernels::KernelPolicy::kAuto,
                        &delta);
        const TriangleCount t_next = serial_count(state.edge_list());
        EXPECT_EQ(delta.removed(), t_g - t_h) << where;
        EXPECT_EQ(delta.added(), t_next - t_h) << where;
        removed_total += delta.removed();
        added_total += delta.added();
      }
    }
  }
  // Both signs must actually have been exercised.
  EXPECT_GT(removed_total, 0u);
  EXPECT_GT(added_total, 0u);
}

// --- typed batch rejections ---------------------------------------------

TEST(StreamValidate, TypedRejections) {
  graph::EdgeList g;
  g.num_vertices = 4;
  g.edges = {Edge{0, 1}, Edge{1, 2}};
  const stream::StreamState state = stream::StreamState::from_graph(g);

  const auto reason = [&](const stream::Batch& b) {
    const auto r = stream::validate(state, b);
    return r.has_value() ? *r : std::string();
  };
  stream::Batch b;
  EXPECT_NE(reason(b).find("no operations"), std::string::npos);

  b.ops = {stream::DeltaOp{true, Edge{2, 2}}};
  EXPECT_NE(reason(b).find("self-loop"), std::string::npos);

  b.ops = {stream::DeltaOp{true, Edge{1, 9}}};
  EXPECT_NE(reason(b).find("out of range"), std::string::npos);

  b.ops = {stream::DeltaOp{true, Edge{0, 3}},
           stream::DeltaOp{false, Edge{0, 3}}};
  EXPECT_NE(reason(b).find("duplicate edge"), std::string::npos);

  b.ops = {stream::DeltaOp{true, Edge{0, 1}}};
  EXPECT_NE(reason(b).find("already present"), std::string::npos);

  b.ops = {stream::DeltaOp{false, Edge{0, 3}}};
  EXPECT_NE(reason(b).find("not present"), std::string::npos);

  b.ops = {stream::DeltaOp{true, Edge{0, 2}},
           stream::DeltaOp{false, Edge{1, 2}}};
  EXPECT_TRUE(reason(b).empty());
}

// --- the differential campaign ------------------------------------------

// Acceptance gate: a 50-schedule randomized campaign (inserts, deletes,
// mixed, windowed) where the maintained counts after EVERY batch exactly
// equal a cold recount — across 2 kernel policies and 2 rank counts.
TEST(StreamDifferential, FiftyScheduleCampaign) {
  const auto& corpus = test_support::corpus();
  util::Xoshiro256 rng(
      util::stream_seed(test_support::fuzz_seed(), 0x57e4));
  constexpr kernels::KernelPolicy kKernels[] = {
      kernels::KernelPolicy::kAuto, kernels::KernelPolicy::kMerge};
  constexpr int kRanks[] = {1, 4};

  for (int schedule = 0; schedule < 50; ++schedule) {
    const auto& entry = corpus[static_cast<std::size_t>(schedule) %
                               corpus.size()];
    stream::StreamState state = stream::StreamState::from_graph(entry.graph);
    const kernels::KernelPolicy kernel = kKernels[schedule % 2];
    const int ranks = kRanks[(schedule / 2) % 2];
    const int flavor = schedule % 4;
    const std::string tag = "schedule " + std::to_string(schedule);

    for (int batch_i = 0; batch_i < 4; ++batch_i) {
      if (flavor == 3) {
        // Windowed: grow, then evict back down to a sliding capacity.
        stream::Batch grow =
            random_batch(rng, state, Mode::kInserts, 8);
        if (grow.ops.empty()) continue;
        count_and_apply(state, grow, ranks, kernel);
        const std::uint64_t capacity =
            state.num_edges() > 5 ? state.num_edges() - 5 : 1;
        const stream::Batch evict = stream::window_evictions(state, capacity);
        ASSERT_FALSE(evict.ops.empty());
        count_and_apply(state, evict, ranks, kernel);
        EXPECT_LE(state.num_edges(), capacity) << tag;
      } else {
        const Mode mode = flavor == 0   ? Mode::kInserts
                          : flavor == 1 ? Mode::kDeletes
                                        : Mode::kMixed;
        const stream::Batch batch = random_batch(rng, state, mode, 8);
        if (batch.ops.empty()) continue;
        count_and_apply(state, batch, ranks, kernel);
      }
      expect_matches_cold(state, tag + " batch " + std::to_string(batch_i));
    }
  }
}

// --- chaos ---------------------------------------------------------------

// The delta pass must survive message faults (reliable delivery) and a
// scheduled rank crash (fail-restart from the buffered shards) with the
// same signed totals as a fault-free run, and the replayed superstep
// must leave no trace: the same kernel counters and shard traffic.
TEST(StreamChaos, DeltaReplayUnderFaults) {
  util::Xoshiro256 rng(
      util::stream_seed(test_support::chaos_seed(), 0xde17a));
  const auto& entry = test_support::corpus().front();

  for (int round = 0; round < 8; ++round) {
    stream::StreamState state = stream::StreamState::from_graph(entry.graph);
    const stream::Batch batch = random_batch(rng, state, Mode::kMixed, 10);
    if (batch.ops.empty()) continue;
    mpisim::PersistentWorld clean_world(4);
    const stream::DeltaResult clean =
        stream::count_delta(clean_world, state, batch);

    chaos::FaultSpec spec;
    spec.seed = rng();
    spec.drop_rate = 0.05;
    spec.duplicate_rate = 0.05;
    spec.reorder_rate = 0.10;
    spec.delay_rate = 0.05;
    spec.retry_timeout_seconds = 2e-3;
    spec.crash_superstep = 0;  // one rank fail-restarts mid-count
    const chaos::FaultPlan plan(spec, 4);
    mpisim::WorldOptions options;
    options.fault_injector = &plan;
    mpisim::PersistentWorld chaotic_world(4, options);
    const stream::DeltaResult chaotic =
        stream::count_delta(chaotic_world, state, batch);

    EXPECT_EQ(chaotic.removed(), clean.removed()) << "seed " << spec.seed;
    EXPECT_EQ(chaotic.added(), clean.added()) << "seed " << spec.seed;
    EXPECT_EQ(chaotic.kernel, clean.kernel) << "seed " << spec.seed;
    EXPECT_EQ(chaotic.shard_messages, clean.shard_messages)
        << "seed " << spec.seed;
    EXPECT_EQ(chaotic.shard_bytes, clean.shard_bytes) << "seed " << spec.seed;
    std::uint64_t crashes = 0;
    std::uint64_t recoveries = 0;
    for (const auto& cc : chaotic.chaos) {
      crashes += cc.crashes;
      recoveries += cc.recoveries;
    }
    EXPECT_EQ(crashes, 1u) << "seed " << spec.seed;
    EXPECT_EQ(recoveries, 1u) << "seed " << spec.seed;

    stream::StreamState chaotic_state =
        stream::StreamState::from_graph(entry.graph);
    stream::apply(chaotic_state, batch, chaotic);
    stream::apply(state, batch, clean);
    EXPECT_EQ(chaotic_state.triangles(), state.triangles());
    expect_matches_cold(chaotic_state,
                        "chaos round " + std::to_string(round));
  }
}

TEST(StreamChaos, CrashAfterTheOnlySuperstepIsRejected) {
  // The delta pass counts in superstep 0. A plan that crashes a rank at a
  // later superstep would never fire, so it is refused, not ignored.
  const stream::StreamState state =
      stream::StreamState::from_graph(test_support::corpus().front().graph);
  util::Xoshiro256 rng(7);
  const stream::Batch batch = random_batch(rng, state, Mode::kMixed, 10);
  chaos::FaultSpec spec;
  spec.seed = 5;
  spec.crash_superstep = 1;
  const chaos::FaultPlan plan(spec, 4);
  mpisim::WorldOptions options;
  options.fault_injector = &plan;
  mpisim::PersistentWorld world(4, options);
  EXPECT_THROW((void)stream::count_delta(world, state, batch),
               std::invalid_argument);
}

// --- sliding window ------------------------------------------------------

TEST(StreamWindow, EvictsOldestFirst) {
  graph::EdgeList g;
  g.num_vertices = 6;
  g.edges = {Edge{0, 1}, Edge{1, 2}, Edge{2, 3}};
  stream::StreamState state = stream::StreamState::from_graph(g);

  // Capacity at or above the live count evicts nothing.
  EXPECT_TRUE(stream::window_evictions(state, 3).ops.empty());
  EXPECT_TRUE(stream::window_evictions(state, 10).ops.empty());

  // Delete the oldest edge, then re-insert it: it must become the
  // YOUNGEST — the next eviction takes 1-2, not 0-1.
  stream::Batch churn;
  churn.ops.push_back(stream::DeltaOp{false, Edge{0, 1}});
  count_and_apply(state, churn, 1, kernels::KernelPolicy::kAuto);
  churn.ops = {stream::DeltaOp{true, Edge{0, 1}}};
  count_and_apply(state, churn, 1, kernels::KernelPolicy::kAuto);

  const stream::Batch evict = stream::window_evictions(state, 2);
  ASSERT_EQ(evict.ops.size(), 1u);
  EXPECT_FALSE(evict.ops[0].insert);
  EXPECT_EQ(evict.ops[0].edge, (Edge{1, 2}));
}

// --- DOULION sampled estimator ------------------------------------------

TEST(StreamSample, RetentionOneIsExactUnderMaintenance) {
  util::Xoshiro256 rng(
      util::stream_seed(test_support::fuzz_seed(), 0xd011));
  const auto& entry = test_support::corpus()[1];
  stream::StreamState state = stream::StreamState::from_graph(entry.graph);
  stream::SampledStream sample(state, 1.0, 7);
  EXPECT_EQ(sample.sparsified_triangles(), state.triangles());
  EXPECT_EQ(sample.kept_edges(), state.num_edges());

  for (int i = 0; i < 6; ++i) {
    const stream::Batch batch = random_batch(rng, state, Mode::kMixed, 6);
    if (batch.ops.empty()) continue;
    count_and_apply(state, batch, 1, kernels::KernelPolicy::kAuto);
    sample.apply(batch);
    EXPECT_EQ(sample.sparsified_triangles(), state.triangles());
    EXPECT_EQ(sample.estimate(), static_cast<double>(state.triangles()));
  }
}

TEST(StreamSample, MaintainedEqualsRebuilt) {
  // After any schedule, the incrementally maintained sparsified count
  // must equal a SampledStream rebuilt from the final state with the
  // same (retention, seed) — the sampled analogue of the differential.
  util::Xoshiro256 rng(
      util::stream_seed(test_support::fuzz_seed(), 0x5a31e));
  const auto& entry = test_support::corpus()[2];
  stream::StreamState state = stream::StreamState::from_graph(entry.graph);
  stream::SampledStream sample(state, 0.6, 1234);

  for (int i = 0; i < 6; ++i) {
    const stream::Batch batch = random_batch(rng, state, Mode::kMixed, 8);
    if (batch.ops.empty()) continue;
    count_and_apply(state, batch, 1, kernels::KernelPolicy::kAuto);
    sample.apply(batch);
    const stream::SampledStream rebuilt(state, 0.6, 1234);
    EXPECT_EQ(sample.sparsified_triangles(), rebuilt.sparsified_triangles());
    EXPECT_EQ(sample.kept_edges(), rebuilt.kept_edges());
  }
}

TEST(StreamSample, EstimatorErrorBounds) {
  // DOULION at retention p is unbiased with Var ~ T(1/p^3 - 1) + wedge
  // terms; averaging K independent seeds shrinks the error by sqrt(K).
  // A 25% band around the mean of 16 seeds is ~8 sigma on this graph —
  // deterministic in CI (fixed seeds), loose enough to never flake.
  graph::RmatParams params;
  params.scale = 8;
  params.edge_factor = 8;
  params.seed = 1;
  const graph::EdgeList g = graph::rmat(params);
  const stream::StreamState state = stream::StreamState::from_graph(g);
  const auto exact = static_cast<double>(state.triangles());
  ASSERT_GT(exact, 100.0);

  const double retention = 0.5;
  double mean = 0.0;
  const int kSeeds = 16;
  for (int s = 0; s < kSeeds; ++s) {
    const stream::SampledStream sample(
        state, retention,
        util::stream_seed(test_support::kDefaultSeed,
                          static_cast<std::uint64_t>(s)));
    mean += sample.estimate() / kSeeds;
    // Each individual estimate is within a loose multiplicative band.
    EXPECT_GT(sample.estimate(), 0.1 * exact);
    EXPECT_LT(sample.estimate(), 4.0 * exact);
  }
  EXPECT_NEAR(mean, exact, 0.25 * exact);
}

// --- service wiring ------------------------------------------------------

struct Harness {
  explicit Harness(service::ServiceOptions options = {})
      : svc(
            [&options] {
              options.manual_dispatch = true;
              return options;
            }(),
            [this](const std::string& line) { responses.push_back(line); }) {}

  const std::string& ask(const std::string& line) {
    svc.submit(line);
    svc.drain();
    return responses.back();
  }

  Value result(const std::string& line) {
    Value doc = Value::parse(line);
    EXPECT_TRUE(doc.get("ok").as_bool()) << line;
    return doc;
  }

  std::vector<std::string> responses;
  service::Service svc;
};

TEST(StreamService, ApplyMaintainsServedCounts) {
  service::ServiceOptions options;
  options.ranks = 4;
  Harness h(options);
  const auto& entry = test_support::corpus().front();
  h.svc.load_graph(entry.graph, "corpus0");

  const TriangleCount before = static_cast<TriangleCount>(
      h.result(h.ask(R"({"id":1,"verb":"count","params":{"algo":"2d"}})"))
          .get("result")
          .get("triangles")
          .as_uint());
  EXPECT_EQ(before, entry.expected);
  const std::uint64_t v1 = h.svc.graph_version();

  // Apply a randomized mixed batch through the wire protocol.
  util::Xoshiro256 rng(util::stream_seed(test_support::fuzz_seed(), 0x5e4));
  stream::StreamState shadow = stream::StreamState::from_graph(entry.graph);
  const stream::Batch batch = random_batch(rng, shadow, Mode::kMixed, 10);
  ASSERT_FALSE(batch.ops.empty());
  std::string ops;
  for (const auto& op : batch.ops) {
    if (!ops.empty()) ops += ',';
    ops += std::string("\"") + (op.insert ? "+" : "-") +
           std::to_string(op.edge.u) + " " + std::to_string(op.edge.v) + "\"";
  }
  Value applied = h.result(
      h.ask(R"({"id":2,"verb":"graph.apply","params":{"ops":[)" + ops +
            "]}}"));
  EXPECT_EQ(applied.get("result").get("applied").as_uint(), batch.ops.size());
  EXPECT_EQ(h.svc.graph_version(), v1 + 1);

  // The maintained total equals the serial recount of the mutated graph,
  // and a served 2d recount (lazy re-preprocess) agrees.
  count_and_apply(shadow, batch, 1, kernels::KernelPolicy::kAuto);
  EXPECT_EQ(applied.get("result").get("triangles").as_uint(),
            shadow.triangles());
  const TriangleCount recount = static_cast<TriangleCount>(
      h.result(h.ask(R"({"id":3,"verb":"count","params":{"algo":"2d"}})"))
          .get("result")
          .get("triangles")
          .as_uint());
  EXPECT_EQ(recount, shadow.triangles());
  EXPECT_EQ(recount, serial_count(shadow.edge_list()));

  // delta.stats reflects the session tallies.
  Value stats =
      h.result(h.ask(R"({"id":4,"verb":"delta.stats"})"));
  EXPECT_EQ(stats.get("result").get("batches").as_uint(), 1u);
  EXPECT_EQ(stats.get("result").get("edges_applied").as_uint(),
            batch.ops.size());
  EXPECT_EQ(stats.get("result").get("triangles").as_uint(),
            shadow.triangles());

  // The session artifact (with its delta block) lints clean.
  EXPECT_TRUE(service::lint_service(h.svc.session_artifact()).empty());
}

TEST(StreamService, ApplyInvalidatesCacheSurgically) {
  service::ServiceOptions options;
  options.ranks = 1;
  Harness h(options);
  graph::EdgeList g;
  g.num_vertices = 4;
  g.edges = {Edge{0, 1}, Edge{1, 2}, Edge{0, 2}, Edge{2, 3}};
  h.svc.load_graph(g, "tri");

  const std::string count = R"({"id":9,"verb":"count","params":{"algo":"2d"}})";
  EXPECT_EQ(h.result(h.ask(count)).get("result").get("triangles").as_uint(),
            1u);
  h.ask(count);
  EXPECT_EQ(h.svc.cache_stats().hits, 1u);  // second ask hit

  // graph.apply closes wedge 1-2-3: new version, old entries purged.
  h.result(h.ask(
      R"({"id":10,"verb":"graph.apply","params":{"ops":["+1 3"]}})"));
  EXPECT_EQ(h.svc.cache_stats().size, 0u);
  EXPECT_GE(h.svc.cache_stats().invalidations, 1u);
  EXPECT_EQ(h.result(h.ask(count)).get("result").get("triangles").as_uint(),
            2u);  // fresh compute under the new version, not a stale hit
  EXPECT_EQ(h.svc.cache_stats().hits, 1u);
}

TEST(StreamService, TypedErrorsOverTheWire) {
  service::ServiceOptions options;
  options.ranks = 1;
  Harness h(options);

  // Streaming verbs before any graph: no_graph.
  Value doc = Value::parse(
      h.ask(R"({"id":1,"verb":"graph.apply","params":{"ops":["+0 1"]}})"));
  EXPECT_FALSE(doc.get("ok").as_bool());
  EXPECT_EQ(doc.get("error").get("code").as_string(), "no_graph");

  graph::EdgeList g;
  g.num_vertices = 4;
  g.edges = {Edge{0, 1}, Edge{1, 2}};
  h.svc.load_graph(g, "path");

  const auto expect_bad = [&](const std::string& request) {
    Value response = Value::parse(h.ask(request));
    EXPECT_FALSE(response.get("ok").as_bool()) << request;
    EXPECT_EQ(response.get("error").get("code").as_string(), "bad_params")
        << request;
  };
  // Self-loop, duplicate edge in batch, delete of an absent edge, insert
  // of a present edge, malformed spelling, missing ops.
  expect_bad(R"({"id":2,"verb":"graph.apply","params":{"ops":["+2 2"]}})");
  expect_bad(
      R"({"id":3,"verb":"graph.apply","params":{"ops":["+0 3","-0 3"]}})");
  expect_bad(R"({"id":4,"verb":"graph.apply","params":{"ops":["-0 3"]}})");
  expect_bad(R"({"id":5,"verb":"graph.apply","params":{"ops":["+0 1"]}})");
  expect_bad(R"({"id":6,"verb":"graph.apply","params":{"ops":["0 1"]}})");
  expect_bad(R"({"id":7,"verb":"graph.apply","params":{"ops":[]}})");
  expect_bad(R"({"id":8,"verb":"graph.window","params":{}})");
  expect_bad(
      R"({"id":9,"verb":"stream.sample","params":{"retention":1.5}})");

  // A rejected batch must not have mutated anything.
  EXPECT_EQ(h.result(h.ask(R"({"id":10,"verb":"delta.stats"})"))
                .get("result")
                .get("batches")
                .as_uint(),
            0u);
  EXPECT_TRUE(service::lint_service(h.svc.session_artifact()).empty());
}

TEST(StreamService, WindowEvictionOverTheWire) {
  service::ServiceOptions options;
  options.ranks = 1;
  Harness h(options);
  graph::EdgeList g;
  g.num_vertices = 8;
  g.edges = {Edge{0, 1}, Edge{1, 2}, Edge{2, 3}, Edge{3, 4}, Edge{4, 5}};
  h.svc.load_graph(g, "path5");
  const std::uint64_t v1 = h.svc.graph_version();

  // No-op window: within capacity, no version bump.
  Value noop = h.result(
      h.ask(R"({"id":1,"verb":"graph.window","params":{"capacity":5}})"));
  EXPECT_EQ(noop.get("result").get("evicted").as_uint(), 0u);
  EXPECT_EQ(h.svc.graph_version(), v1);

  // Evict down to 3: the two oldest edges go, version bumps once.
  Value evicted = h.result(
      h.ask(R"({"id":2,"verb":"graph.window","params":{"capacity":3}})"));
  EXPECT_EQ(evicted.get("result").get("evicted").as_uint(), 2u);
  EXPECT_EQ(evicted.get("result").get("num_edges").as_uint(), 3u);
  EXPECT_EQ(h.svc.graph_version(), v1 + 1);
  ASSERT_NE(h.svc.stream_state(), nullptr);
  EXPECT_FALSE(h.svc.stream_state()->has_edge(0, 1));
  EXPECT_FALSE(h.svc.stream_state()->has_edge(1, 2));
  EXPECT_TRUE(h.svc.stream_state()->has_edge(4, 5));
}

TEST(StreamService, SampledEstimatorOverTheWire) {
  service::ServiceOptions options;
  options.ranks = 1;
  Harness h(options);
  const auto& entry = test_support::corpus()[3];
  h.svc.load_graph(entry.graph, "corpus3");

  // retention 1.0: the estimator is exact, before and after a batch.
  Value exact = h.result(h.ask(
      R"({"id":1,"verb":"stream.sample","params":{"retention":1.0,"seed":3}})"));
  EXPECT_EQ(exact.get("result").get("sparsified_triangles").as_uint(),
            entry.expected);
  EXPECT_EQ(exact.get("result").get("estimate").as_number(),
            static_cast<double>(entry.expected));

  util::Xoshiro256 rng(util::stream_seed(test_support::fuzz_seed(), 0xe57));
  stream::StreamState shadow = stream::StreamState::from_graph(entry.graph);
  const stream::Batch batch = random_batch(rng, shadow, Mode::kMixed, 6);
  ASSERT_FALSE(batch.ops.empty());
  std::string ops;
  for (const auto& op : batch.ops) {
    if (!ops.empty()) ops += ',';
    ops += std::string("\"") + (op.insert ? "+" : "-") +
           std::to_string(op.edge.u) + " " + std::to_string(op.edge.v) + "\"";
  }
  h.result(h.ask(R"({"id":2,"verb":"graph.apply","params":{"ops":[)" + ops +
                 "]}}"));
  count_and_apply(shadow, batch, 1, kernels::KernelPolicy::kAuto);

  // Re-query WITHOUT params: the maintained estimator, still exact.
  Value after = h.result(h.ask(R"({"id":3,"verb":"stream.sample"})"));
  EXPECT_EQ(after.get("result").get("sparsified_triangles").as_uint(),
            shadow.triangles());
  EXPECT_EQ(after.get("result").get("exact").as_uint(), shadow.triangles());
}

}  // namespace
}  // namespace tricount
