// Tests for the baseline algorithms (paper §4): each must be exact on
// every graph family and rank count, and their structural characteristics
// (ghost overlap, wedge counts, 2-core peeling) must hold.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "tricount/baselines/aop1d.hpp"
#include "tricount/baselines/push_based1d.hpp"
#include "tricount/baselines/wedge_counting.hpp"
#include "tricount/core/artifacts.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/serial_count.hpp"
#include "tricount/obs/analysis.hpp"

namespace tricount::baselines {
namespace {

using graph::EdgeList;

TriangleCount reference(const EdgeList& g) {
  return graph::count_triangles_serial(graph::Csr::from_edges(g));
}

EdgeList rmat_graph(std::uint64_t seed) {
  graph::RmatParams params;
  params.scale = 8;
  params.edge_factor = 7;
  params.seed = seed;
  return graph::rmat(params);
}

class BaselineSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};  // (graph, p)

const std::vector<EdgeList>& sweep_graphs() {
  static const std::vector<EdgeList>* graphs = [] {
    auto* v = new std::vector<EdgeList>;
    v->push_back(rmat_graph(101));
    v->push_back(graph::simplify(graph::erdos_renyi(250, 1800, 8)));
    v->push_back(graph::simplify(graph::complete_graph(24)));
    v->push_back(graph::simplify(graph::wheel_graph(30)));
    v->push_back(graph::simplify(graph::grid_graph(10, 11)));
    return v;
  }();
  return *graphs;
}

TEST_P(BaselineSweep, AopMatchesSerial) {
  const auto [gi, p] = GetParam();
  const EdgeList& g = sweep_graphs()[static_cast<std::size_t>(gi)];
  EXPECT_EQ(count_triangles_aop1d(g, p).triangles, reference(g));
}

TEST_P(BaselineSweep, PushMatchesSerial) {
  const auto [gi, p] = GetParam();
  const EdgeList& g = sweep_graphs()[static_cast<std::size_t>(gi)];
  EXPECT_EQ(count_triangles_push1d(g, p).triangles, reference(g));
}

TEST_P(BaselineSweep, WedgeMatchesSerial) {
  const auto [gi, p] = GetParam();
  const EdgeList& g = sweep_graphs()[static_cast<std::size_t>(gi)];
  EXPECT_EQ(count_triangles_wedge(g, p).triangles, reference(g));
}

INSTANTIATE_TEST_SUITE_P(GraphsByRanks, BaselineSweep,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Values(1, 2, 4, 7, 9)));

TEST(Aop, RecordsThreePhases) {
  const EdgeList g = rmat_graph(3);
  const core::RunResult result = count_triangles_aop1d(g, 4);
  // Two pre steps, then the one counting superstep.
  ASSERT_EQ(result.num_steps() + result.num_shifts(), 3u);
  ASSERT_EQ(result.num_shifts(), 1u);
  EXPECT_EQ(result.per_rank[0].pre_steps[1].first, "overlap");
  // Counting phase must be communication-free (the algorithm's point):
  // only the final allreduce travels, which is tiny.
  const auto count_phase = result.shift_samples(0);
  for (const auto& sample : count_phase) {
    EXPECT_LE(sample.bytes, 1024u);
  }
  // The overlap phase moves real adjacency data on multi-rank runs.
  std::uint64_t overlap_bytes = 0;
  for (const auto& sample : result.step_samples(1)) {
    overlap_bytes += sample.bytes;
  }
  EXPECT_GT(overlap_bytes, 0u);
}

TEST(Push, MoreRoundsStaysExact) {
  const EdgeList g = rmat_graph(5);
  for (const int rounds : {1, 2, 8}) {
    PushOptions options;
    options.rounds = rounds;
    EXPECT_EQ(count_triangles_push1d(g, 4, options).triangles, reference(g));
  }
  PushOptions bad;
  bad.rounds = 0;
  EXPECT_THROW(count_triangles_push1d(g, 2, bad), std::invalid_argument);
}

TEST(Wedge, PeelsTreesEntirely) {
  // A path graph is peeled to nothing by the 2-core decomposition.
  const EdgeList g = graph::simplify(graph::path_graph(50));
  const core::RunResult result = count_triangles_wedge(g, 4);
  EXPECT_EQ(result.triangles, 0u);
  EXPECT_EQ(result.pre_ops(), 50u);  // vertices peeled
  EXPECT_EQ(result.tc_ops(), 0u);    // wedges checked
}

TEST(Wedge, KeepsCyclesAndCountsWedges) {
  // A cycle is its own 2-core; it has wedges but no triangles.
  const EdgeList g = graph::simplify(graph::cycle_graph(30));
  const core::RunResult result = count_triangles_wedge(g, 3);
  EXPECT_EQ(result.triangles, 0u);
  EXPECT_EQ(result.pre_ops(), 0u);  // vertices peeled
}

TEST(Wedge, WedgeVolumeExceedsEdgesOnSkewedGraphs) {
  // The structural reason Havoq loses (§7.4): wedge checks blow up with
  // degree skew.
  const EdgeList g = rmat_graph(9);
  const core::RunResult result = count_triangles_wedge(g, 4);
  EXPECT_GT(result.tc_ops(), g.edges.size());  // wedges checked
}

TEST(Wedge, RoundsStayExact) {
  const EdgeList g = rmat_graph(11);
  for (const int rounds : {1, 3, 6}) {
    WedgeOptions options;
    options.rounds = rounds;
    EXPECT_EQ(count_triangles_wedge(g, 4, options).triangles, reference(g));
  }
}

TEST(Baselines, EmptyGraphsAreFine) {
  EdgeList empty;
  empty.num_vertices = 10;
  EXPECT_EQ(count_triangles_aop1d(empty, 4).triangles, 0u);
  EXPECT_EQ(count_triangles_push1d(empty, 4).triangles, 0u);
  EXPECT_EQ(count_triangles_wedge(empty, 4).triangles, 0u);
}

/// The bytes every step of `r` sent, summed over ranks.
std::uint64_t step_bytes(const core::RunResult& r) {
  std::uint64_t bytes = 0;
  for (const core::RankStats& stats : r.per_rank) {
    bytes += stats.pre_total().bytes + stats.tc_total().bytes;
  }
  return bytes;
}

TEST(Baselines, ModeledTimesAreFinite) {
  const EdgeList g = rmat_graph(21);
  const core::RunResult aop = count_triangles_aop1d(g, 4);
  EXPECT_GE(aop.total_modeled_seconds(), 0.0);
  const core::RunResult push = count_triangles_push1d(g, 4);
  EXPECT_GE(push.total_modeled_seconds(), 0.0);
  EXPECT_GT(step_bytes(push), 0u);
}

TEST(Baselines, ArtifactsLintCleanAndAreConsistent) {
  // Every baseline returns a core::RunResult, so its metrics artifact
  // must pass the same lint as the 2D one and its modeled times must
  // agree with the analyzer's re-derivation.
  const EdgeList g = rmat_graph(23);
  const TriangleCount expected = reference(g);
  for (const int p : {1, 3, 4}) {
    const core::RunResult runs[] = {count_triangles_aop1d(g, p),
                                    count_triangles_push1d(g, p),
                                    count_triangles_wedge(g, p)};
    for (const core::RunResult& r : runs) {
      const std::string where = r.algorithm + " p=" + std::to_string(p);
      EXPECT_EQ(r.triangles, expected) << where;
      EXPECT_EQ(r.ranks, p) << where;
      EXPECT_EQ(r.grid_q, 0) << where;
      EXPECT_EQ(r.num_vertices, g.num_vertices) << where;
      EXPECT_EQ(r.num_edges, g.edges.size()) << where;
      EXPECT_EQ(r.num_shifts(), 1u) << where;
      EXPECT_EQ(r.per_rank_counters.size(), static_cast<std::size_t>(p))
          << where;
      const std::vector<std::string> lint =
          obs::analysis::lint_metrics(core::build_run_metrics(r));
      EXPECT_TRUE(lint.empty()) << where << ": " << lint.front();
      const obs::analysis::RunReport report = core::build_run_report(r);
      EXPECT_TRUE(obs::analysis::analyze(report).consistency_issues.empty())
          << where;
    }
  }
}

TEST(Baselines, StepsKeepTheirNamesAndCountTheirOps) {
  const EdgeList g = rmat_graph(25);
  const auto names = [](const core::RunResult& r) {
    std::vector<std::string> out;
    for (const auto& [name, sample] : r.per_rank[0].pre_steps) {
      out.push_back(name);
    }
    return out;
  };
  const core::RunResult aop = count_triangles_aop1d(g, 4);
  const core::RunResult push = count_triangles_push1d(g, 4);
  const core::RunResult wedge = count_triangles_wedge(g, 4);
  EXPECT_EQ(names(aop), (std::vector<std::string>{"preprocess", "overlap"}));
  EXPECT_EQ(names(push), (std::vector<std::string>{"preprocess"}));
  EXPECT_EQ(names(wedge), (std::vector<std::string>{"twocore"}));
  // AOP and push count through the kernel layer: the count's ops are its
  // lookups, and the kernel tallies reach the metrics.
  for (const core::RunResult* r : {&aop, &push}) {
    EXPECT_GT(r->total_kernel().lookups, 0u) << r->algorithm;
    EXPECT_EQ(r->tc_ops(), r->total_kernel().lookups) << r->algorithm;
  }
  EXPECT_EQ(aop.algorithm, "aop");
  EXPECT_EQ(push.algorithm, "push");
  EXPECT_EQ(wedge.algorithm, "wedge");
}

}  // namespace
}  // namespace tricount::baselines
