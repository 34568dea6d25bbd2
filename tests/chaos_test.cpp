// Chaos subsystem tests (docs/chaos.md): the seeded fault-injection
// campaign plus unit tests for the reliable-delivery protocol, the
// mailbox fault entry points, crash/recovery, the resident plans on a
// chaos-armed world, the watchdog, and the replay-file round trip.
//
// The campaign is the tentpole acceptance check: 200 seeded runs across
// {drop, duplicate, reorder, delay, straggler, crash-at-superstep-k} ×
// {2D Cannon, SUMMA} × {4, 16} ranks, every one of which must produce
// exactly the serial reference count. 40 of the runs crash a rank mid-
// count, which replays the superstep from the inputs it still holds
// (mpisim/recovery.hpp). The base seed comes
// from TRICOUNT_CHAOS_SEED (tests/test_seed.hpp); a failing run prints
// the per-run seed so it replays in isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "test_seed.hpp"
#include "tricount/chaos/fault_plan.hpp"
#include "tricount/cetric/cetric.hpp"
#include "tricount/chaos/options.hpp"
#include "tricount/core/counter2d.hpp"
#include "tricount/core/dist_graph.hpp"
#include "tricount/core/dist_truss.hpp"
#include "tricount/core/driver.hpp"
#include "tricount/core/per_vertex.hpp"
#include "tricount/core/summa2d.hpp"
#include "tricount/engine/engine.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/serial_count.hpp"
#include "tricount/kernels/kernels.hpp"
#include "tricount/mpisim/cart2d.hpp"
#include "tricount/mpisim/runtime.hpp"
#include "tricount/util/argparse.hpp"
#include "tricount/util/rng.hpp"

namespace tricount {
namespace {

using test_support::chaos_seed;

// --- campaign helpers ------------------------------------------------------

/// A small random graph for one campaign run: Watts-Strogatz most of the
/// time (dense in triangles), RMAT sometimes (skewed degrees).
graph::EdgeList campaign_graph(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  if (rng.bounded(3) == 0) {
    graph::RmatParams params;
    params.scale = 6;
    params.edge_factor = 6;
    params.seed = rng();
    return graph::rmat(params);
  }
  const auto n = static_cast<graph::VertexId>(60 + rng.bounded(100));
  const int k = 4 + 2 * static_cast<int>(rng.bounded(3));
  return graph::simplify(graph::watts_strogatz(n, k, 0.2, rng()));
}

/// The mixed-fault spec of the campaign: every per-message fault armed at
/// a rate that exercises the protocol without drowning the run in
/// retransmit timeouts, plus a 3x straggler.
chaos::FaultSpec mixed_spec(std::uint64_t seed) {
  chaos::FaultSpec spec;
  spec.seed = seed;
  spec.drop_rate = 0.05;
  spec.duplicate_rate = 0.05;
  spec.reorder_rate = 0.10;
  spec.delay_rate = 0.05;
  spec.straggler_factor = 3.0;
  spec.retry_timeout_seconds = 2e-3;
  return spec;
}

/// One 2D Cannon campaign run; returns the chaos tallies so callers can
/// assert on crash/recovery counts.
mpisim::ChaosCounters expect_exact_2d(const graph::EdgeList& g, int ranks,
                                      const chaos::FaultSpec& spec,
                                      const core::Config& config = {}) {
  const graph::TriangleCount expected =
      graph::count_triangles_serial(graph::Csr::from_edges(g));
  core::RunOptions options;
  options.config = config;
  options.chaos = std::make_shared<const chaos::FaultPlan>(spec, ranks);
  const core::RunResult r = core::count_triangles_2d(g, ranks, options);
  EXPECT_TRUE(r.chaos_enabled);
  EXPECT_EQ(r.triangles, expected)
      << "2d ranks=" << ranks << " chaos seed=" << spec.seed;
  return r.total_chaos();
}

/// One SUMMA campaign run on a qr x qc grid.
mpisim::ChaosCounters expect_exact_summa(const graph::EdgeList& g, int rows,
                                         int cols,
                                         const chaos::FaultSpec& spec,
                                         const core::Config& config = {}) {
  const graph::TriangleCount expected =
      graph::count_triangles_serial(graph::Csr::from_edges(g));
  core::SummaOptions options;
  options.config = config;
  options.grid_rows = rows;
  options.grid_cols = cols;
  options.chaos =
      std::make_shared<const chaos::FaultPlan>(spec, rows * cols);
  const core::SummaResult r = core::count_triangles_summa(g, options);
  EXPECT_TRUE(r.chaos_enabled);
  EXPECT_EQ(r.triangles, expected)
      << "summa " << rows << "x" << cols << " chaos seed=" << spec.seed;
  return r.total_chaos();
}

/// Per-run seed: the campaign base seed streamed by test name and index,
/// so every run is independently seeded yet replayable.
std::uint64_t run_seed(std::uint64_t salt, int i) {
  return util::stream_seed(util::stream_seed(chaos_seed(), salt),
                           static_cast<std::uint64_t>(i));
}

// --- the campaign ----------------------------------------------------------
//
// Run counts across the five campaign tests: 72 + 48 + 28 + 12 + 40 = 200
// seeded runs, 40 of which (Crash2D + CrashSumma) crash a rank mid-count.

TEST(ChaosCampaign, Mixed2D) {
  for (int i = 0; i < 72; ++i) {
    const std::uint64_t seed = run_seed(0x2d2d, i);
    const int ranks = (i % 2 == 0) ? 4 : 16;
    expect_exact_2d(campaign_graph(seed), ranks, mixed_spec(seed));
  }
}

TEST(ChaosCampaign, MixedSumma) {
  const int grids[][2] = {{2, 2}, {2, 3}, {4, 4}};
  for (int i = 0; i < 48; ++i) {
    const std::uint64_t seed = run_seed(0x5a5a, i);
    const int* grid = grids[i % 3];
    expect_exact_summa(campaign_graph(seed), grid[0], grid[1],
                       mixed_spec(seed));
  }
}

TEST(ChaosCampaign, Crash2D) {
  std::uint64_t crashes = 0;
  for (int i = 0; i < 28; ++i) {
    const std::uint64_t seed = run_seed(0xc2a5, i);
    const int ranks = (i % 2 == 0) ? 4 : 16;
    const int q = (ranks == 4) ? 2 : 4;
    chaos::FaultSpec spec = mixed_spec(seed);
    spec.crash_superstep = i % q;  // always < q, so the crash executes
    const mpisim::ChaosCounters total =
        expect_exact_2d(campaign_graph(seed), ranks, spec);
    EXPECT_EQ(total.crashes, 1u) << "chaos seed=" << seed;
    EXPECT_EQ(total.recoveries, total.crashes);
    crashes += total.crashes;
  }
  EXPECT_EQ(crashes, 28u);
}

TEST(ChaosCampaign, CrashSumma) {
  // Panel counts K = lcm(qr, qc) per grid; the crash step stays below K.
  const int grids[][3] = {{2, 2, 2}, {2, 3, 6}, {4, 4, 4}};
  std::uint64_t crashes = 0;
  for (int i = 0; i < 12; ++i) {
    const std::uint64_t seed = run_seed(0xc55a, i);
    const int* grid = grids[i % 3];
    chaos::FaultSpec spec = mixed_spec(seed);
    spec.crash_superstep = i % grid[2];
    const mpisim::ChaosCounters total =
        expect_exact_summa(campaign_graph(seed), grid[0], grid[1], spec);
    EXPECT_EQ(total.crashes, 1u) << "chaos seed=" << seed;
    EXPECT_EQ(total.recoveries, total.crashes);
    crashes += total.crashes;
  }
  EXPECT_EQ(crashes, 12u);
}

TEST(ChaosCampaign, OverlappedMixedFaults) {
  // Comm/compute overlap keeps requests in flight across the superstep;
  // they must survive drop/dup/reorder exactly like blocking receives.
  core::Config config;
  config.overlap = true;
  for (int i = 0; i < 24; ++i) {
    const std::uint64_t seed = run_seed(0x0517, i);
    const int ranks = (i % 2 == 0) ? 4 : 16;
    expect_exact_2d(campaign_graph(seed), ranks, mixed_spec(seed), config);
  }
  const int grids[][2] = {{2, 2}, {2, 3}, {4, 4}};
  for (int i = 0; i < 12; ++i) {
    const std::uint64_t seed = run_seed(0x0518, i);
    const int* grid = grids[i % 3];
    expect_exact_summa(campaign_graph(seed), grid[0], grid[1],
                       mixed_spec(seed), config);
  }
}

TEST(ChaosCampaign, OverlappedCrashRecovers) {
  core::Config config;
  config.overlap = true;
  std::uint64_t crashes = 0;
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t seed = run_seed(0x0519, i);
    const int ranks = (i % 2 == 0) ? 4 : 16;
    const int q = (ranks == 4) ? 2 : 4;
    chaos::FaultSpec spec = mixed_spec(seed);
    spec.crash_superstep = i % q;
    const mpisim::ChaosCounters total =
        expect_exact_2d(campaign_graph(seed), ranks, spec, config);
    EXPECT_EQ(total.crashes, 1u) << "chaos seed=" << seed;
    crashes += total.crashes;
  }
  const int grids[][3] = {{2, 2, 2}, {2, 3, 6}, {4, 4, 4}};
  for (int i = 0; i < 6; ++i) {
    const std::uint64_t seed = run_seed(0x051a, i);
    const int* grid = grids[i % 3];
    chaos::FaultSpec spec = mixed_spec(seed);
    spec.crash_superstep = i % grid[2];
    const mpisim::ChaosCounters total =
        expect_exact_summa(campaign_graph(seed), grid[0], grid[1], spec,
                           config);
    EXPECT_EQ(total.crashes, 1u) << "chaos seed=" << seed;
    crashes += total.crashes;
  }
  EXPECT_EQ(crashes, 16u);
}

TEST(ChaosCampaign, DropHeavyRetransmit) {
  // 30% drop rate: correctness comes entirely from ack/retransmit.
  for (int i = 0; i < 40; ++i) {
    const std::uint64_t seed = run_seed(0xd0d0, i);
    chaos::FaultSpec spec;
    spec.seed = seed;
    spec.drop_rate = 0.3;
    spec.retry_timeout_seconds = 1e-3;
    const mpisim::ChaosCounters total =
        expect_exact_2d(campaign_graph(seed), 4, spec);
    EXPECT_GT(total.drops_injected, 0u) << "chaos seed=" << seed;
    EXPECT_GT(total.retransmits, 0u) << "chaos seed=" << seed;
  }
}

// --- reliable-delivery protocol --------------------------------------------

TEST(ChaosProtocol, RetransmitTimeoutThrowsTypedError) {
  chaos::FaultSpec spec;
  spec.seed = 7;
  spec.drop_rate = 1.0;  // nothing ever arrives
  spec.max_retries = 3;
  spec.retry_timeout_seconds = 1e-3;
  const chaos::FaultPlan plan(spec, 2);
  mpisim::WorldOptions options;
  options.fault_injector = &plan;
  options.watchdog_seconds = -1.0;  // let the retry budget fail first
  try {
    mpisim::run_world(
        2,
        [](mpisim::Comm& comm) {
          if (comm.rank() == 0) {
            comm.send_value<int>(1, 7, 42);
          } else {
            comm.recv_value<int>(0, 7);
          }
        },
        options);
    FAIL() << "expected ChaosError";
  } catch (const mpisim::ChaosError& e) {
    EXPECT_EQ(e.kind(), mpisim::ChaosError::Kind::kRetransmitTimeout);
  }
}

TEST(ChaosProtocol, DuplicatesDiscardedDataIntact) {
  chaos::FaultSpec spec;
  spec.seed = 11;
  spec.duplicate_rate = 1.0;  // every transmission delivers twice
  const chaos::FaultPlan plan(spec, 2);
  mpisim::WorldOptions options;
  options.fault_injector = &plan;
  const mpisim::WorldReport report = mpisim::run_world(
      2,
      [](mpisim::Comm& comm) {
        if (comm.rank() == 0) {
          for (int i = 0; i < 10; ++i) comm.send_value<int>(1, 5, i);
        } else {
          for (int i = 0; i < 10; ++i) {
            EXPECT_EQ(comm.recv_value<int>(0, 5), i);
          }
        }
      },
      options);
  mpisim::ChaosCounters total;
  for (const mpisim::ChaosCounters& c : report.chaos) total += c;
  EXPECT_GE(total.duplicates_injected, 10u);
  // Every duplicate copy the receiver observes is discarded by the
  // sequence-number dedup. The final message's duplicate may still be
  // queued when the receiver returns, so allow one unobserved copy.
  EXPECT_GE(total.duplicates_discarded + 1, total.duplicates_injected);
  EXPECT_GE(total.acks_sent, 19u);  // acked per copy, not per delivery
}

TEST(ChaosProtocol, ReorderedMessagesDeliverInSequence) {
  chaos::FaultSpec spec;
  spec.seed = 13;
  spec.reorder_rate = 1.0;  // every message jumps the queue
  const chaos::FaultPlan plan(spec, 2);
  mpisim::WorldOptions options;
  options.fault_injector = &plan;
  const mpisim::WorldReport report = mpisim::run_world(
      2,
      [](mpisim::Comm& comm) {
        if (comm.rank() == 0) {
          for (int i = 0; i < 20; ++i) comm.send_value<int>(1, 7, i);
          comm.send_value<int>(1, 8, -1);  // "go": all data already queued
        } else {
          EXPECT_EQ(comm.recv_value<int>(0, 8), -1);
          // The queue now holds the data messages in *reversed* order;
          // the receive side must still deliver them in sequence.
          for (int i = 0; i < 20; ++i) {
            EXPECT_EQ(comm.recv_value<int>(0, 7), i);
          }
        }
      },
      options);
  mpisim::ChaosCounters total;
  for (const mpisim::ChaosCounters& c : report.chaos) total += c;
  EXPECT_GE(total.reorders_injected, 20u);
  EXPECT_GE(total.out_of_order_stashed, 19u);
}

TEST(ChaosProtocol, DelayedMessagesNeverDeadlock) {
  chaos::FaultSpec spec;
  spec.seed = 17;
  spec.delay_rate = 1.0;  // every message held back behind later pushes
  const chaos::FaultPlan plan(spec, 2);
  mpisim::WorldOptions options;
  options.fault_injector = &plan;
  options.watchdog_seconds = 20.0;  // a hang here should fail, not block ctest
  const mpisim::WorldReport report = mpisim::run_world(
      2,
      [](mpisim::Comm& comm) {
        // Ping-pong: each message is the only traffic in flight, so a
        // deferred delivery must be released by the starving receiver.
        const int peer = 1 - comm.rank();
        for (int i = 0; i < 8; ++i) {
          if (comm.rank() == 0) {
            comm.send_value<int>(peer, 3, i);
            EXPECT_EQ(comm.recv_value<int>(peer, 4), i);
          } else {
            EXPECT_EQ(comm.recv_value<int>(peer, 3), i);
            comm.send_value<int>(peer, 4, i);
          }
        }
      },
      options);
  mpisim::ChaosCounters total;
  for (const mpisim::ChaosCounters& c : report.chaos) total += c;
  EXPECT_GE(total.delays_injected, 16u);
  EXPECT_GT(total.delay_modeled_seconds, 0.0);
}

// --- mailbox fault entry points --------------------------------------------

mpisim::Message data_msg(int source, int tag, std::uint64_t seq) {
  mpisim::Message m;
  m.source = source;
  m.tag = tag;
  m.seq = seq;
  return m;
}

TEST(ChaosMailbox, PushFrontOvertakesQueue) {
  mpisim::Mailbox box;
  box.push(data_msg(0, 1, 1));
  box.push_front(data_msg(0, 1, 2));
  mpisim::Message out;
  ASSERT_TRUE(box.try_pop(mpisim::kAnySource, mpisim::kAnyTag, out));
  EXPECT_EQ(out.seq, 2u);
  ASSERT_TRUE(box.try_pop(mpisim::kAnySource, mpisim::kAnyTag, out));
  EXPECT_EQ(out.seq, 1u);
}

TEST(ChaosMailbox, DeferredReleasedByLaterPushes) {
  mpisim::Mailbox box;
  box.push_deferred(data_msg(0, 1, 1), /*hold_pushes=*/2);
  mpisim::Message out;
  EXPECT_FALSE(box.try_pop(mpisim::kAnySource, mpisim::kAnyTag, out));
  box.push(data_msg(0, 1, 2));
  box.push(data_msg(0, 1, 3));
  // All three are now visible (the deferred one aged out); order within
  // the release is unspecified, so collect the set of sequence numbers.
  std::vector<std::uint64_t> seqs;
  while (box.try_pop(mpisim::kAnySource, mpisim::kAnyTag, out)) {
    seqs.push_back(out.seq);
  }
  std::sort(seqs.begin(), seqs.end());
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(ChaosMailbox, StarvingReceiverReleasesDeferred) {
  mpisim::Mailbox box;
  box.push_deferred(data_msg(0, 9, 1), /*hold_pushes=*/100);
  // A blocking receive with nothing else queued must release the deferred
  // message instead of starving (liveness guarantee of push_deferred).
  mpisim::Message out;
  ASSERT_TRUE(box.pop_for(0, 9, /*timeout_seconds=*/5.0, out));
  EXPECT_EQ(out.seq, 1u);
}

TEST(ChaosMailbox, AcksInvisibleToMatching) {
  mpisim::Mailbox box;
  mpisim::Message ack = data_msg(0, 1, 7);
  ack.kind = mpisim::MsgKind::kAck;
  box.push(ack);
  box.push(data_msg(0, 1, 1));
  // Probes and receives see only the data message.
  mpisim::Message out;
  ASSERT_TRUE(box.try_pop(mpisim::kAnySource, mpisim::kAnyTag, out));
  EXPECT_EQ(out.kind, mpisim::MsgKind::kData);
  EXPECT_FALSE(box.probe(mpisim::kAnySource, mpisim::kAnyTag));
  // The ack is still there, reachable only through try_pop_ack.
  ASSERT_TRUE(box.try_pop_ack(out));
  EXPECT_EQ(out.kind, mpisim::MsgKind::kAck);
  EXPECT_EQ(out.seq, 7u);
  EXPECT_FALSE(box.try_pop_ack(out));
}

// --- crash / recovery / straggler ------------------------------------------

TEST(ChaosRecovery, CrashAtSuperstepRecoversExactCount) {
  const graph::EdgeList g = campaign_graph(run_seed(0xabcd, 0));
  chaos::FaultSpec spec;
  spec.seed = 19;
  spec.crash_superstep = 1;
  spec.crash_rank = 2;
  const mpisim::ChaosCounters total = expect_exact_2d(g, 4, spec);
  EXPECT_EQ(total.crashes, 1u);
  EXPECT_EQ(total.recoveries, 1u);
  EXPECT_GT(total.recovery_seconds, 0.0);
}

/// A fault plan that only crashes the seed-derived rank at `step`.
std::shared_ptr<const chaos::FaultPlan> crash_plan(int step, int ranks,
                                                   std::uint64_t seed) {
  chaos::FaultSpec spec;
  spec.seed = seed;
  spec.crash_superstep = step;
  return std::make_shared<const chaos::FaultPlan>(spec, ranks);
}

/// Per-rank output of a Cannon crediting tally, taken before the credits
/// are reduced, so a replayed superstep is checked rank by rank.
struct CreditRun {
  std::vector<std::vector<graph::TriangleCount>> vertex;
  std::vector<
      std::vector<std::unordered_map<std::uint64_t, graph::TriangleCount>>>
      edges;
  std::vector<core::KernelCounters> kernel;
  mpisim::ChaosCounters chaos;
};

CreditRun run_credits(const graph::EdgeList& g, int ranks, core::Tally tally,
                      const core::Config& config,
                      const mpisim::FaultInjector* injector) {
  CreditRun run;
  run.vertex.resize(static_cast<std::size_t>(ranks));
  run.edges.resize(static_cast<std::size_t>(ranks));
  run.kernel.resize(static_cast<std::size_t>(ranks));
  mpisim::WorldOptions options;
  options.fault_injector = injector;
  const mpisim::WorldReport report = mpisim::run_world(
      ranks,
      [&](mpisim::Comm& comm) {
        mpisim::Cart2D grid(comm);
        core::PreprocessOutput pre = core::preprocess(
            grid, core::block_slice_from_edges(g, comm.rank(), ranks), config);
        core::CountOutput out = core::cannon_count(
            grid, std::move(pre.blocks), config, tally, pre.num_vertices);
        const auto r = static_cast<std::size_t>(comm.rank());
        run.vertex[r] = std::move(out.vertex_credits);
        run.edges[r] = std::move(out.edge_credits);
        run.kernel[r] = out.kernel;
      },
      options);
  for (const mpisim::ChaosCounters& c : report.chaos) run.chaos += c;
  return run;
}

// The one recovery model: a superstep replays from the inputs the rank
// still holds, so a crash leaves no trace in anything the run reports.
// Every counting loop, at every superstep, must report exactly the
// fault-free run's count, kernel counters (probes included: the hash
// table's history must not leak into a replay) and credits.
TEST(ChaosRecovery, ReplayedSuperstepLeavesNoTrace) {
  graph::RmatParams params;
  params.scale = 10;
  params.edge_factor = 8;
  params.seed = 1;
  const graph::EdgeList g = graph::rmat(params);
  core::Config config;
  config.kernel = kernels::KernelPolicy::kHash;
  config.modified_hashing = false;  // classic probing: collisions probe

  auto expect_one_recovery = [](const mpisim::ChaosCounters& c,
                                const std::string& where) {
    EXPECT_EQ(c.crashes, 1u) << where;
    EXPECT_EQ(c.recoveries, 1u) << where;
  };
  auto expect_same_ranks = [](const core::RunResult& a,
                              const core::RunResult& b,
                              const std::string& where) {
    EXPECT_EQ(a.triangles, b.triangles) << where;
    ASSERT_EQ(a.per_rank.size(), b.per_rank.size()) << where;
    for (std::size_t r = 0; r < a.per_rank.size(); ++r) {
      EXPECT_EQ(a.per_rank[r].kernel, b.per_rank[r].kernel)
          << where << " rank " << r;
    }
  };

  // Cannon at q = 3.
  core::RunOptions options;
  options.config = config;
  const core::RunResult cannon = core::count_triangles_2d(g, 9, options);
  ASSERT_GT(cannon.total_kernel().probes, 0u);
  for (int step = 0; step < 3; ++step) {
    core::RunOptions crashed = options;
    crashed.chaos = crash_plan(step, 9, run_seed(0xab51, step));
    const core::RunResult r = core::count_triangles_2d(g, 9, crashed);
    const std::string where = "cannon step " + std::to_string(step);
    expect_one_recovery(r.total_chaos(), where);
    expect_same_ranks(r, cannon, where);
  }

  // SUMMA on a square and a rectangular grid (K = 2 and 6 panel steps).
  const int grids[][3] = {{2, 2, 2}, {2, 3, 6}};
  std::uint64_t summa_probes = 0;
  for (const auto& grid : grids) {
    core::SummaOptions summa;
    summa.config = config;
    summa.grid_rows = grid[0];
    summa.grid_cols = grid[1];
    const core::SummaResult free = core::count_triangles_summa(g, summa);
    summa_probes += free.kernel.probes;
    for (int step = 0; step < grid[2]; ++step) {
      core::SummaOptions crashed = summa;
      const auto salt = 0xab52 + static_cast<std::uint64_t>(grid[1]);
      crashed.chaos =
          crash_plan(step, grid[0] * grid[1], run_seed(salt, step));
      const core::SummaResult r = core::count_triangles_summa(g, crashed);
      const std::string where = "summa " + std::to_string(grid[1]) +
                                " columns, step " + std::to_string(step);
      expect_one_recovery(r.total_chaos(), where);
      EXPECT_EQ(r.triangles, free.triangles) << where;
      EXPECT_EQ(r.kernel, free.kernel) << where;
    }
  }
  EXPECT_GT(summa_probes, 0u);

  // cetric: the local superstep (wedges staged, nothing sent) and the cut
  // superstep (replayed from the received buffers).
  const core::RunResult cetric_free =
      cetric::count_triangles_cetric(g, 4, options);
  for (int step = 0; step < 2; ++step) {
    core::RunOptions crashed = options;
    crashed.chaos = crash_plan(step, 4, run_seed(0xab53, step));
    const core::RunResult r = cetric::count_triangles_cetric(g, 4, crashed);
    const std::string where = "cetric step " + std::to_string(step);
    expect_one_recovery(r.total_chaos(), where);
    expect_same_ranks(r, cetric_free, where);
    EXPECT_EQ(r.per_rank_cetric, cetric_free.per_rank_cetric) << where;
  }

  // The crediting tallies fold per-superstep credits; a replayed step's
  // credits must count once.
  for (const core::Tally tally :
       {core::Tally::kPerVertex, core::Tally::kEdgeSupport}) {
    const CreditRun free = run_credits(g, 4, tally, config, nullptr);
    for (int step = 0; step < 2; ++step) {
      const auto plan = crash_plan(step, 4, run_seed(0xab54, step));
      const CreditRun r = run_credits(g, 4, tally, config, plan.get());
      const std::string where = "tally " +
                                std::to_string(static_cast<int>(tally)) +
                                " step " + std::to_string(step);
      expect_one_recovery(r.chaos, where);
      EXPECT_EQ(r.vertex, free.vertex) << where;
      EXPECT_EQ(r.edges, free.edges) << where;
      EXPECT_EQ(r.kernel, free.kernel) << where;
    }
  }
}

TEST(ChaosRecovery, StragglerSlowsOneRankOnly) {
  const graph::EdgeList g = campaign_graph(run_seed(0xabcf, 0));
  chaos::FaultSpec spec;
  spec.seed = 23;
  spec.straggler_factor = 4.0;  // rank derived from the seed
  const auto plan = std::make_shared<const chaos::FaultPlan>(spec, 4);
  EXPECT_GE(plan->straggler_rank(), 0);
  EXPECT_LT(plan->straggler_rank(), 4);
  const graph::TriangleCount expected =
      graph::count_triangles_serial(graph::Csr::from_edges(g));
  core::RunOptions options;
  options.chaos = plan;
  const core::RunResult r = core::count_triangles_2d(g, 4, options);
  EXPECT_EQ(r.triangles, expected);
  const mpisim::ChaosCounters total = r.total_chaos();
  EXPECT_GT(total.straggler_steps, 0u);
  EXPECT_GT(total.straggler_injected_seconds, 0.0);
  // Only the straggler rank's tallies move.
  for (int rank = 0; rank < 4; ++rank) {
    if (rank == plan->straggler_rank()) continue;
    EXPECT_EQ(r.per_rank_chaos[static_cast<std::size_t>(rank)].straggler_steps,
              0u);
  }
}

// --- the resident path under chaos ------------------------------------------

// The per-vertex, clustering, edge-support and k-truss calls build their
// own world, which must carry the caller's fault plan. Nothing is ever
// delivered, so each call must fail with the retry budget's typed error
// instead of returning a count.
TEST(ChaosResident, CreditingCallsHonourTheFaultPlan) {
  const graph::EdgeList g =
      graph::simplify(graph::watts_strogatz(64, 6, 0.2, 7));
  chaos::FaultSpec spec;
  spec.seed = 43;
  spec.drop_rate = 1.0;
  spec.max_retries = 3;
  spec.retry_timeout_seconds = 1e-3;
  core::RunOptions options;
  options.chaos = std::make_shared<const chaos::FaultPlan>(spec, 4);
  options.watchdog_seconds = -1.0;  // let the retry budget fail first
  const std::pair<const char*, std::function<void()>> calls[] = {
      {"count_per_vertex_2d",
       [&] { (void)core::count_per_vertex_2d(g, 4, options); }},
      {"clustering_stats_2d",
       [&] { (void)core::clustering_stats_2d(g, 4, options); }},
      {"edge_supports_2d",
       [&] { (void)core::edge_supports_2d(g, 4, options); }},
      {"ktruss_2d", [&] { (void)core::ktruss_2d(g, 4, options); }},
  };
  for (const auto& [name, call] : calls) {
    try {
      call();
      ADD_FAILURE() << name << " returned under a drop-everything plan";
    } catch (const mpisim::ChaosError& e) {
      EXPECT_EQ(e.kind(), mpisim::ChaosError::Kind::kRetransmitTimeout)
          << name;
    }
  }
}

// The service's code path: one chaos-armed world runs every resident plan
// in turn, the piece builds included. Every answer must equal a
// fault-free world's, and every counting job must report its own crash
// and recovery, no more.
TEST(ChaosResident, EveryPlanOnOneChaosArmedWorld) {
  graph::RmatParams params;
  params.scale = 8;
  params.edge_factor = 8;
  params.seed = 5;
  const graph::EdgeList g = graph::simplify(graph::rmat(params));
  chaos::FaultSpec spec = mixed_spec(run_seed(0x5e41, 0));
  spec.straggler_factor = 1.0;
  spec.crash_superstep = 1;  // every plan below has supersteps 0 and 1
  const chaos::FaultPlan plan(spec, 4);
  mpisim::WorldOptions options;
  options.fault_injector = &plan;
  mpisim::PersistentWorld chaotic_world(4, options);
  mpisim::PersistentWorld clean_world(4);
  engine::Resident chaotic({}, {});
  engine::Resident clean({}, {});
  chaotic.reset(g);
  clean.reset(g);

  const engine::Plan plans[] = {
      {engine::Algo::kCannon, core::Tally::kCount, {}},
      {engine::Algo::kCannon, core::Tally::kPerVertex, {}},
      {engine::Algo::kCannon, core::Tally::kEdgeSupport, {}},
      {engine::Algo::kSumma, core::Tally::kCount, {}},
      {engine::Algo::kCetric, core::Tally::kCount, {}},
  };
  std::uint64_t injected = 0;
  for (const engine::Plan& p : plans) {
    const std::string where =
        "algo " + std::to_string(static_cast<int>(p.algo)) + " tally " +
        std::to_string(static_cast<int>(p.tally)) +
        " chaos seed=" + std::to_string(spec.seed);
    const core::RunResult want = engine::run(p, clean_world, clean);
    const core::RunResult got = engine::run(p, chaotic_world, chaotic);
    EXPECT_EQ(got.triangles, want.triangles) << where;
    ASSERT_EQ(got.per_rank.size(), want.per_rank.size()) << where;
    for (std::size_t r = 0; r < got.per_rank.size(); ++r) {
      EXPECT_EQ(got.per_rank[r].kernel, want.per_rank[r].kernel)
          << where << " rank " << r;
    }
    EXPECT_EQ(got.vertex_triangles, want.vertex_triangles) << where;
    EXPECT_EQ(got.edge_supports, want.edge_supports) << where;
    EXPECT_EQ(got.per_rank_cetric, want.per_rank_cetric) << where;
    const mpisim::ChaosCounters c = got.total_chaos();
    EXPECT_EQ(c.crashes, 1u) << where;
    EXPECT_EQ(c.recoveries, 1u) << where;
    injected += c.total_injected();
  }
  EXPECT_GT(injected, 0u);
  EXPECT_EQ(chaotic.builds(engine::Algo::kCannon), 1u);
  EXPECT_EQ(chaotic.builds(engine::Algo::kCetric), 1u);
  EXPECT_FALSE(chaotic_world.poisoned());
}

// --- watchdog --------------------------------------------------------------

TEST(ChaosWatchdog, DeadlockFailsWithBlockedStateDiagnostic) {
  try {
    mpisim::WorldOptions options;
    options.watchdog_seconds = 0.2;
    mpisim::run_world(
        2,
        [](mpisim::Comm& comm) {
          // Classic deadlock: both ranks receive first.
          comm.recv_value<int>(1 - comm.rank(), 42);
        },
        options);
    FAIL() << "expected ChaosError";
  } catch (const mpisim::ChaosError& e) {
    EXPECT_EQ(e.kind(), mpisim::ChaosError::Kind::kWatchdogStall);
    EXPECT_NE(std::string(e.what()).find("blocked"), std::string::npos);
  }
}

// --- fault plan determinism & replay files ---------------------------------

TEST(ChaosPlan, DecisionsAreAPureFunctionOfTheSpec) {
  chaos::FaultSpec spec;
  spec.seed = 31;
  spec.drop_rate = 0.2;
  spec.duplicate_rate = 0.2;
  spec.reorder_rate = 0.2;
  spec.delay_rate = 0.2;
  const chaos::FaultPlan a(spec, 16);
  const chaos::FaultPlan b(spec, 16);
  bool any_fault = false;
  for (int src = 0; src < 4; ++src) {
    for (std::uint64_t seq = 1; seq <= 50; ++seq) {
      const mpisim::FaultAction fa = a.on_message(src, 3, 101, seq, 1);
      const mpisim::FaultAction fb = b.on_message(src, 3, 101, seq, 1);
      EXPECT_EQ(fa.drop, fb.drop);
      EXPECT_EQ(fa.duplicate, fb.duplicate);
      EXPECT_EQ(fa.reorder, fb.reorder);
      EXPECT_EQ(fa.delay_seconds, fb.delay_seconds);
      any_fault = any_fault || fa.drop || fa.duplicate || fa.reorder ||
                  fa.delay_seconds > 0.0;
    }
  }
  EXPECT_TRUE(any_fault);  // the rates are high enough that some fire
  // Drop is exclusive: a dropped attempt carries no other fault.
  for (std::uint64_t seq = 1; seq <= 200; ++seq) {
    const mpisim::FaultAction f = a.on_message(0, 1, 7, seq, 1);
    if (f.drop) {
      EXPECT_FALSE(f.duplicate);
      EXPECT_FALSE(f.reorder);
      EXPECT_EQ(f.delay_seconds, 0.0);
    }
  }
}

TEST(ChaosPlan, InjectionCountsReplayBitForBit) {
  // Two runs of the same plan on the same graph inject the identical
  // faults (retransmit tallies may differ — they race wall-clock acks —
  // but injections are a pure function of the message stream).
  const graph::EdgeList g = campaign_graph(run_seed(0xbeef, 0));
  chaos::FaultSpec spec;
  spec.seed = 37;
  spec.duplicate_rate = 0.2;
  spec.reorder_rate = 0.3;
  spec.delay_rate = 0.2;
  spec.retry_timeout_seconds = 1.0;  // no spurious retransmits
  auto run_once = [&] {
    core::RunOptions options;
    options.chaos = std::make_shared<const chaos::FaultPlan>(spec, 4);
    return core::count_triangles_2d(g, 4, options);
  };
  const core::RunResult a = run_once();
  const core::RunResult b = run_once();
  EXPECT_EQ(a.triangles, b.triangles);
  const mpisim::ChaosCounters ca = a.total_chaos();
  const mpisim::ChaosCounters cb = b.total_chaos();
  EXPECT_EQ(ca.duplicates_injected, cb.duplicates_injected);
  EXPECT_EQ(ca.reorders_injected, cb.reorders_injected);
  EXPECT_EQ(ca.delays_injected, cb.delays_injected);
  EXPECT_EQ(ca.drops_injected, 0u);
}

TEST(ChaosPlan, ReplayFileRoundTrips) {
  chaos::FaultSpec spec;
  spec.seed = 41;
  spec.drop_rate = 0.1;
  spec.duplicate_rate = 0.2;
  spec.reorder_rate = 0.3;
  spec.delay_rate = 0.05;
  spec.delay_seconds = 3e-5;
  spec.straggler_factor = 2.5;
  spec.straggler_rank = 1;
  spec.crash_superstep = 2;
  spec.crash_rank = 3;
  spec.max_retries = 17;
  spec.retry_timeout_seconds = 0.004;
  const std::string path = ::testing::TempDir() + "chaos_replay.json";
  chaos::save_replay(spec, path);
  const chaos::FaultSpec loaded = chaos::load_replay(path);
  EXPECT_EQ(spec, loaded);
  // The reloaded spec drives the identical fault plan.
  const chaos::FaultPlan a(spec, 16);
  const chaos::FaultPlan b(loaded, 16);
  EXPECT_EQ(a.crash_rank(), b.crash_rank());
  EXPECT_EQ(a.straggler_rank(), b.straggler_rank());
  for (std::uint64_t seq = 1; seq <= 100; ++seq) {
    const mpisim::FaultAction fa = a.on_message(2, 5, 202, seq, 1);
    const mpisim::FaultAction fb = b.on_message(2, 5, 202, seq, 1);
    EXPECT_EQ(fa.drop, fb.drop);
    EXPECT_EQ(fa.duplicate, fb.duplicate);
    EXPECT_EQ(fa.reorder, fb.reorder);
    EXPECT_EQ(fa.delay_seconds, fb.delay_seconds);
  }
}

TEST(ChaosPlan, RejectsMalformedInput) {
  chaos::FaultSpec spec;
  EXPECT_THROW(chaos::FaultPlan(spec, 0), std::invalid_argument);
  obs::json::Value wrong = obs::json::Value::object();
  wrong.set("schema", "tricount.metrics.v2");
  EXPECT_THROW(chaos::spec_from_json(wrong), std::runtime_error);
}

// --- CLI option surface ----------------------------------------------------

TEST(ChaosOptions, RateKnobsAloneStayInert) {
  util::ArgParser args("chaos_test", "test");
  chaos::add_chaos_options(args);
  const char* argv[] = {"chaos_test", "--chaos-drop", "0.5"};
  ASSERT_TRUE(args.parse(3, argv));
  // Without --chaos-seed / --chaos-replay the plan is null: the fault-free
  // fast path stays bit-identical (the chaosoff perf gate relies on this).
  EXPECT_EQ(chaos::plan_from_args(args, 4), nullptr);
}

TEST(ChaosOptions, SeedArmsThePlan) {
  util::ArgParser args("chaos_test", "test");
  chaos::add_chaos_options(args);
  const char* argv[] = {"chaos_test", "--chaos-seed", "42", "--chaos-crash",
                        "1"};
  ASSERT_TRUE(args.parse(5, argv));
  const auto plan = chaos::plan_from_args(args, 4);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->spec().seed, 42u);
  EXPECT_EQ(plan->spec().crash_superstep, 1);
  EXPECT_GE(plan->crash_rank(), 0);
  EXPECT_LT(plan->crash_rank(), 4);
}

}  // namespace
}  // namespace tricount
