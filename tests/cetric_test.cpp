// CETRIC-style communication-avoiding counter (src/tricount/cetric/,
// docs/cetric.md): partition and ghost-exchange units, the local-vs-cut
// classification invariants, the zero-message property of the local
// superstep (and of whole runs whose components align with the
// partition), and a seeded chaos exactness campaign mirroring the
// Cannon/SUMMA campaigns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "test_seed.hpp"
#include "tricount/cetric/cetric.hpp"
#include "tricount/cetric/partition.hpp"
#include "tricount/chaos/fault_plan.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/serial_count.hpp"
#include "tricount/mpisim/runtime.hpp"
#include "tricount/util/rng.hpp"

namespace tricount {
namespace {

using cetric::VertexId;

graph::TriangleCount serial_count(const graph::EdgeList& g) {
  return graph::count_triangles_serial(graph::Csr::from_edges(g));
}

// --- partition units -------------------------------------------------------

TEST(CetricPartition, BoundariesCoverAndBalance) {
  // Weights 1 + deg+: a skewed profile still splits into contiguous,
  // covering, non-decreasing ranges.
  const std::vector<VertexId> deg = {9, 0, 0, 0, 3, 3, 0, 1, 5, 0, 0, 2};
  for (const int p : {1, 2, 3, 4, 7, 16}) {
    const std::vector<VertexId> b = cetric::degree_aware_boundaries(deg, p);
    ASSERT_EQ(b.size(), static_cast<std::size_t>(p) + 1);
    EXPECT_EQ(b.front(), 0u);
    EXPECT_EQ(b.back(), deg.size());
    EXPECT_TRUE(std::is_sorted(b.begin(), b.end())) << "p=" << p;
  }
}

TEST(CetricPartition, GreedySplitTracksWeightTargets) {
  // Uniform weights: the split must be an even block partition.
  const std::vector<VertexId> deg(12, 3);
  const std::vector<VertexId> b = cetric::degree_aware_boundaries(deg, 4);
  EXPECT_EQ(b, (std::vector<VertexId>{0, 3, 6, 9, 12}));
}

TEST(CetricPartition, OwnerIsInverseOfBoundaries) {
  cetric::Partition part;
  part.num_vertices = 10;
  part.p = 4;
  part.boundaries = {0, 3, 3, 7, 10};  // rank 1 owns nothing
  for (VertexId v = 0; v < part.num_vertices; ++v) {
    const int owner = part.owner(v);
    part.rank = owner;
    EXPECT_TRUE(part.owns(v)) << "v=" << v << " owner=" << owner;
    for (int r = 0; r < part.p; ++r) {
      if (r == owner) continue;
      part.rank = r;
      EXPECT_FALSE(part.owns(v)) << "v=" << v << " r=" << r;
    }
  }
}

TEST(CetricPartition, MoreRanksThanVertices) {
  const std::vector<VertexId> deg = {1, 1};
  const std::vector<VertexId> b = cetric::degree_aware_boundaries(deg, 6);
  EXPECT_EQ(b.front(), 0u);
  EXPECT_EQ(b.back(), 2u);
  EXPECT_TRUE(std::is_sorted(b.begin(), b.end()));
}

// --- distributed graph build ----------------------------------------------

TEST(CetricGraphBuild, RoutedListsMatchReplicatedOracle) {
  const graph::EdgeList g =
      graph::simplify(graph::watts_strogatz(90, 6, 0.2, 77));
  const auto m = static_cast<graph::EdgeIndex>(g.edges.size());
  const int p = 4;
  mpisim::run_world(p, [&](mpisim::Comm& comm) {
    const core::LocalSlice slice =
        core::block_slice_from_edges(g, comm.rank(), comm.size());
    const cetric::CetricGraph dag = cetric::build_cetric_graph(comm, slice);
    // The replicated oracle sums to the global edge count (each
    // undirected edge appears exactly once, as low -> high).
    EXPECT_EQ(dag.num_edges, m);
    const std::uint64_t oracle_sum = std::accumulate(
        dag.deg_plus.begin(), dag.deg_plus.end(), std::uint64_t{0});
    EXPECT_EQ(oracle_sum, m);
    // Owned lists are sorted, point upward, and agree with the oracle.
    for (VertexId v = dag.part.begin(); v < dag.part.end(); ++v) {
      const auto& plus = dag.plus(v);
      EXPECT_EQ(plus.size(), dag.deg_plus[v]);
      EXPECT_TRUE(std::is_sorted(plus.begin(), plus.end()));
      for (const VertexId w : plus) {
        EXPECT_GT(w, v);
        EXPECT_LT(w, dag.part.num_vertices);
      }
    }
  });
}

// --- exactness + classification invariants ---------------------------------

TEST(CetricCount, MatchesSerialAcrossRankCounts) {
  const graph::EdgeList graphs[] = {
      graph::simplify(graph::erdos_renyi(120, 600, 5)),
      graph::simplify(graph::watts_strogatz(200, 8, 0.1, 6)),
      graph::rmat([] {
        graph::RmatParams params;
        params.scale = 7;
        params.edge_factor = 8;
        params.seed = 9;
        return params;
      }()),
  };
  for (const graph::EdgeList& g : graphs) {
    const graph::TriangleCount expected = serial_count(g);
    for (const int p : {1, 2, 3, 5, 8}) {
      const core::RunResult r = cetric::count_triangles_cetric(g, p);
      EXPECT_EQ(r.triangles, expected) << "p=" << p;
      EXPECT_EQ(r.algorithm, "cetric");
      EXPECT_EQ(r.grid_q, 0);
      EXPECT_EQ(r.num_edges, g.edges.size());
    }
  }
}

TEST(CetricCount, LocalPlusCutEqualsTotalPerRank) {
  util::Xoshiro256 rng(test_support::fuzz_seed() ^ 0xce791c);
  for (int trial = 0; trial < 6; ++trial) {
    const auto n = static_cast<graph::VertexId>(50 + rng.bounded(200));
    const auto m = static_cast<graph::EdgeIndex>(3 * n);
    const graph::EdgeList g = graph::simplify(graph::erdos_renyi(n, m, rng()));
    const int p = 2 + static_cast<int>(rng.bounded(7));
    const core::RunResult r = cetric::count_triangles_cetric(g, p);
    SCOPED_TRACE(::testing::Message() << "trial=" << trial << " p=" << p);
    ASSERT_EQ(r.per_rank_cetric.size(), static_cast<std::size_t>(p));
    std::uint64_t local = 0;
    std::uint64_t cut = 0;
    for (int rank = 0; rank < p; ++rank) {
      const core::CetricRankCounters& c =
          r.per_rank_cetric[static_cast<std::size_t>(rank)];
      local += c.local_triangles;
      cut += c.cut_triangles;
      // A rank that received no wedges closed no cut triangles; a rank
      // that sent none shipped no bytes. (Consistency of the counter
      // bundle each rank reports.)
      if (c.cut_wedge_messages_sent == 0) {
        EXPECT_EQ(c.cut_wedge_bytes_sent, 0u) << "rank " << rank;
        EXPECT_EQ(c.cut_wedges_sent, 0u) << "rank " << rank;
      }
    }
    EXPECT_EQ(local + cut, r.triangles) << "classification leaks triangles";
    EXPECT_EQ(r.triangles, serial_count(g));
  }
}

TEST(CetricCount, LocalSuperstepSendsNoMessages) {
  // On ANY graph the local superstep communicates nothing: wedges are
  // only staged. (Superstep 0 of the tc phase == shift sample 0.)
  const graph::EdgeList g =
      graph::simplify(graph::erdos_renyi(150, 900, 11));
  for (const int p : {2, 4, 6}) {
    const core::RunResult r = cetric::count_triangles_cetric(g, p);
    for (const core::PhaseSample& s : r.shift_samples(0)) {
      EXPECT_EQ(s.messages, 0u);
      EXPECT_EQ(s.bytes, 0u);
    }
  }
}

/// p cliques of equal size s, clique c on vertices {c + j*p}: all degrees
/// are equal, and the degree relabel's (owner rank, local index)
/// tie-break under the cyclic distribution keeps each clique contiguous
/// in the new id order. Equal per-clique weight then puts every
/// degree-aware boundary exactly on a clique edge, so each rank owns one
/// whole component.
graph::EdgeList per_rank_cliques(int p, VertexId s) {
  graph::EdgeList g;
  g.num_vertices = static_cast<VertexId>(p) * s;
  for (int c = 0; c < p; ++c) {
    for (VertexId i = 0; i < s; ++i) {
      for (VertexId j = i + 1; j < s; ++j) {
        g.edges.push_back(graph::Edge{
            static_cast<VertexId>(c) + i * static_cast<VertexId>(p),
            static_cast<VertexId>(c) + j * static_cast<VertexId>(p)});
      }
    }
  }
  return graph::simplify(std::move(g));
}

TEST(CetricCount, DisconnectedPerRankGraphIsZeroMessage) {
  const int p = 4;
  const VertexId s = 6;
  const graph::EdgeList g = per_rank_cliques(p, s);
  const core::RunResult r = cetric::count_triangles_cetric(g, p);
  // 4 * C(6,3) triangles, all classified local, none cut.
  EXPECT_EQ(r.triangles, 4u * 20u);
  for (int rank = 0; rank < p; ++rank) {
    const core::CetricRankCounters& c =
        r.per_rank_cetric[static_cast<std::size_t>(rank)];
    EXPECT_EQ(c.local_triangles, 20u) << "rank " << rank;
    EXPECT_EQ(c.cut_triangles, 0u) << "rank " << rank;
    EXPECT_EQ(c.cut_wedges_sent, 0u) << "rank " << rank;
    EXPECT_EQ(c.cut_wedge_messages_sent, 0u) << "rank " << rank;
    EXPECT_EQ(c.ghost_lists_fetched, 0u) << "rank " << rank;
    // Zero point-to-point messages anywhere in the whole run: every
    // triangle has all three vertices on one rank.
    for (int dest = 0; dest < p; ++dest) {
      EXPECT_EQ(r.comm_matrix.at(rank, dest).user_messages, 0u)
          << rank << "->" << dest;
      EXPECT_EQ(r.comm_matrix.at(rank, dest).user_bytes, 0u)
          << rank << "->" << dest;
    }
  }
}

TEST(CetricCount, GhostExchangeEngagesOnDenseCutGraphs) {
  // A dense ER graph split 8 ways has closing rows whose wedge mass
  // exceeds their length; the degree-aware heuristic must pull those as
  // ghosts (and the count must stay exact either way).
  const graph::EdgeList g =
      graph::simplify(graph::erdos_renyi(100, 2000, 21));
  const core::RunResult r = cetric::count_triangles_cetric(g, 8);
  EXPECT_EQ(r.triangles, serial_count(g));
  const core::CetricRankCounters total = r.total_cetric();
  EXPECT_GT(total.ghost_lists_fetched, 0u);
  EXPECT_GT(total.ghost_list_entries, 0u);
  // The run still classifies both ways on a graph this dense.
  EXPECT_GT(total.local_triangles, 0u);
  EXPECT_GT(total.cut_triangles, 0u);
}

TEST(CetricCount, WedgeTrafficAccountsForAllUserBytes) {
  // Every user-tagged byte a cetric run sends is cut-wedge payload: the
  // per-rank counters must reconcile with the comm-matrix rows exactly
  // (the invariant lint_metrics checks on artifacts).
  const graph::EdgeList g =
      graph::simplify(graph::watts_strogatz(300, 10, 0.2, 31));
  const core::RunResult r = cetric::count_triangles_cetric(g, 6);
  for (int rank = 0; rank < 6; ++rank) {
    std::uint64_t row_messages = 0;
    std::uint64_t row_bytes = 0;
    for (int dest = 0; dest < 6; ++dest) {
      row_messages += r.comm_matrix.at(rank, dest).user_messages;
      row_bytes += r.comm_matrix.at(rank, dest).user_bytes;
    }
    const core::CetricRankCounters& c =
        r.per_rank_cetric[static_cast<std::size_t>(rank)];
    EXPECT_EQ(row_messages, c.cut_wedge_messages_sent) << "rank " << rank;
    EXPECT_EQ(row_bytes, c.cut_wedge_bytes_sent) << "rank " << rank;
  }
}

TEST(CetricCount, KernelPoliciesAgree) {
  const graph::EdgeList g =
      graph::simplify(graph::watts_strogatz(160, 8, 0.3, 41));
  const graph::TriangleCount expected = serial_count(g);
  for (const kernels::KernelPolicy policy :
       {kernels::KernelPolicy::kAuto, kernels::KernelPolicy::kMerge,
        kernels::KernelPolicy::kGalloping, kernels::KernelPolicy::kBitmap,
        kernels::KernelPolicy::kHash}) {
    core::RunOptions options;
    options.config.kernel = policy;
    const core::RunResult r = cetric::count_triangles_cetric(g, 5, options);
    EXPECT_EQ(r.triangles, expected)
        << "policy=" << static_cast<int>(policy);
  }
}

// --- chaos exactness campaign ----------------------------------------------

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

mpisim::ChaosCounters expect_exact_cetric(const graph::EdgeList& g, int ranks,
                                          const chaos::FaultSpec& spec) {
  const graph::TriangleCount expected = serial_count(g);
  core::RunOptions options;
  options.chaos = std::make_shared<const chaos::FaultPlan>(spec, ranks);
  const core::RunResult r = cetric::count_triangles_cetric(g, ranks, options);
  EXPECT_TRUE(r.chaos_enabled);
  EXPECT_EQ(r.triangles, expected)
      << "cetric ranks=" << ranks << " chaos seed=" << spec.seed;
  const core::CetricRankCounters total = r.total_cetric();
  EXPECT_EQ(total.local_triangles + total.cut_triangles, r.triangles)
      << "classification leaks under chaos, seed=" << spec.seed;
  return r.total_chaos();
}

std::uint64_t run_seed(std::uint64_t salt, int i) {
  return util::stream_seed(
      util::stream_seed(test_support::chaos_seed(), salt),
      static_cast<std::uint64_t>(i));
}

TEST(CetricChaosCampaign, MixedFaults) {
  // 30 seeded runs under drop + duplicate + reorder + delay + straggler:
  // reliable delivery must keep the wedge exchange exact.
  for (int i = 0; i < 30; ++i) {
    const std::uint64_t seed = run_seed(0xce7, i);
    const int ranks = 2 + (i % 7);
    expect_exact_cetric(campaign_graph(seed), ranks, mixed_spec(seed));
  }
}

TEST(CetricChaosCampaign, CrashRecovers) {
  // 20 crash runs, alternating the failed superstep between the local
  // pass (replay from the partition) and the cut pass (replay from the
  // retained received buffers); every run recovers and stays exact.
  std::uint64_t crashes = 0;
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t seed = run_seed(0xc7a5, i);
    const int ranks = 2 + (i % 6);
    chaos::FaultSpec spec = mixed_spec(seed);
    spec.crash_superstep = i % 2;  // cetric counts in 2 supersteps
    const mpisim::ChaosCounters total =
        expect_exact_cetric(campaign_graph(seed), ranks, spec);
    EXPECT_EQ(total.crashes, 1u) << "chaos seed=" << seed;
    EXPECT_EQ(total.recoveries, total.crashes);
    crashes += total.crashes;
  }
  EXPECT_EQ(crashes, 20u);
}

}  // namespace
}  // namespace tricount
