// Tests for the SUMMA rectangular-grid extension (paper §8).
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "tricount/core/artifacts.hpp"
#include "tricount/core/preprocess.hpp"
#include "tricount/core/summa2d.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/graph/serial_count.hpp"
#include "tricount/obs/analysis.hpp"

namespace tricount::core {
namespace {

using graph::EdgeList;
using graph::TriangleCount;

TriangleCount reference(const EdgeList& g) {
  return graph::count_triangles_serial(graph::Csr::from_edges(g));
}

EdgeList sweep_graph() {
  graph::RmatParams params;
  params.scale = 8;
  params.edge_factor = 7;
  params.seed = 77;
  return graph::rmat(params);
}

class SummaGrid : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SummaGrid, MatchesSerialOnRectangularGrids) {
  const auto [qr, qc] = GetParam();
  const EdgeList g = sweep_graph();
  SummaOptions options;
  options.grid_rows = qr;
  options.grid_cols = qc;
  options.validate_blocks = true;  // every panel and the task block
  const RunResult result = count_triangles_summa(g, options);
  EXPECT_EQ(result.triangles, reference(g)) << qr << "x" << qc;
  EXPECT_EQ(result.ranks, qr * qc);
  EXPECT_EQ(result.num_shifts() % static_cast<std::size_t>(qr), 0u);
  EXPECT_EQ(result.num_shifts() % static_cast<std::size_t>(qc), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, SummaGrid,
    ::testing::Values(std::tuple{1, 1}, std::tuple{1, 4}, std::tuple{4, 1},
                      std::tuple{2, 3}, std::tuple{3, 2}, std::tuple{2, 4},
                      std::tuple{3, 4}, std::tuple{4, 3}, std::tuple{5, 2},
                      std::tuple{3, 3}, std::tuple{4, 4}));

TEST(Summa, SquareGridAgreesWithCannonPipeline) {
  const EdgeList g = graph::simplify(graph::complete_graph(25));
  SummaOptions options;
  options.grid_rows = 3;
  options.grid_cols = 3;
  EXPECT_EQ(count_triangles_summa(g, options).triangles,
            graph::complete_graph_triangles(25));
}

TEST(Summa, TriangleFreeAndTinyGraphs) {
  SummaOptions options;
  options.grid_rows = 2;
  options.grid_cols = 3;
  EXPECT_EQ(count_triangles_summa(graph::simplify(graph::grid_graph(6, 7)),
                                  options)
                .triangles,
            0u);
  EdgeList empty;
  empty.num_vertices = 0;
  EXPECT_EQ(count_triangles_summa(empty, options).triangles, 0u);
  EXPECT_EQ(count_triangles_summa(graph::simplify(graph::complete_graph(3)),
                                  options)
                .triangles,
            1u);
}

TEST(Summa, ConfigTogglesStayExact) {
  const EdgeList g = sweep_graph();
  const TriangleCount expected = reference(g);
  for (const bool doubly : {true, false}) {
    for (const bool hashing : {true, false}) {
      SummaOptions options;
      options.grid_rows = 2;
      options.grid_cols = 4;
      options.config.doubly_sparse = doubly;
      options.config.modified_hashing = hashing;
      EXPECT_EQ(count_triangles_summa(g, options).triangles, expected);
    }
  }
}

TEST(Summa, IjkEnumerationMatches) {
  const EdgeList g = sweep_graph();
  SummaOptions options;
  options.grid_rows = 3;
  options.grid_cols = 2;
  options.config.enumeration = Enumeration::kIJK;
  EXPECT_EQ(count_triangles_summa(g, options).triangles, reference(g));
}

TEST(Summa, InvalidGridThrows) {
  SummaOptions options;
  options.grid_rows = 0;
  options.grid_cols = 3;
  EXPECT_THROW(count_triangles_summa(sweep_graph(), options),
               std::invalid_argument);
}

TEST(Summa, ModeledTimesPositiveOnRealWork) {
  const EdgeList g = sweep_graph();
  SummaOptions options;
  options.grid_rows = 2;
  options.grid_cols = 2;
  const RunResult result = count_triangles_summa(g, options);
  EXPECT_GT(result.pre_modeled_seconds(), 0.0);
  EXPECT_GT(result.tc_modeled_seconds(), 0.0);
  EXPECT_GT(result.total_kernel().lookups, 0u);
}

// On a square grid SUMMA's panels are Cannon's blocks, so the two counts
// do the same intersections, whichever vertex order preprocessing picks.
TEST(Summa, SquareGridDoesCannonsWorkUnderEveryOrdering) {
  graph::RmatParams params;  // Graph500 skew: hub rows dominate the work
  params.scale = 9;
  params.edge_factor = 8;
  params.seed = 5;
  const EdgeList g = graph::rmat(params);
  for (const int q : {2, 3}) {
    for (const bool ordering : {true, false}) {
      SummaOptions options;
      options.grid_rows = q;
      options.grid_cols = q;
      options.config.degree_ordering = ordering;
      const RunResult summa = count_triangles_summa(g, options);
      const RunResult cannon = count_triangles_2d(g, q * q, options);
      const std::string where =
          std::to_string(q) + "x" + std::to_string(q) +
          (ordering ? " ordered" : " unordered");
      EXPECT_EQ(summa.triangles, cannon.triangles) << where;
      EXPECT_EQ(summa.total_kernel().lookups, cannon.total_kernel().lookups)
          << where;
      EXPECT_EQ(summa.total_kernel().intersection_tasks,
                cannon.total_kernel().intersection_tasks)
          << where;
    }
  }
}

// The panel scatter makes one alltoallv per part (U, L, tasks): one
// message per part and peer, and 12 bytes (panel, row and column ids) per
// entry bound for another rank. The entries are placed here by the layout
// summa2d.hpp documents, over the relabeled rows each rank holds.
TEST(Summa, ScatterSendsEachEntryOnceInThreeExchanges) {
  const EdgeList g = sweep_graph();
  for (const auto& [qr, qc] : {std::pair{2, 3}, std::pair{3, 2}}) {
    const int p = qr * qc;
    const auto ranks = static_cast<std::size_t>(p);
    const auto K = static_cast<VertexId>(std::lcm(qr, qc));
    std::vector<RelabeledSlice> slices(ranks);
    mpisim::run_world(p, [&](mpisim::Comm& comm) {
      slices[static_cast<std::size_t>(comm.rank())] = degree_relabel(
          comm, cyclic_redistribute(
                    comm, block_slice_from_edges(g, comm.rank(), p)));
    });
    SummaOptions options;
    options.grid_rows = qr;
    options.grid_cols = qc;
    const RunResult r = count_triangles_summa(g, options);
    const auto rank_of = [&](VertexId x, VertexId y) {
      return static_cast<std::size_t>(x % static_cast<VertexId>(qr)) *
                 static_cast<std::size_t>(qc) +
             y % static_cast<VertexId>(qc);
    };
    for (std::size_t rank = 0; rank < ranks; ++rank) {
      const RelabeledSlice& rel = slices[rank];
      std::uint64_t away = 0;
      for (std::size_t k = 0; k < rel.adj.size(); ++k) {
        const VertexId w = rel.new_ids[k];
        for (const VertexId u : rel.adj[k]) {
          if (u > w) {  // U_{x,z} and L_{z,y}, z = u mod K
            away += rank_of(w, u % K) != rank;
            away += rank_of(u % K, w) != rank;
          } else {  // ⟨j,i,k⟩ takes its task (w, u) from L
            away += rank_of(w, u) != rank;
          }
        }
      }
      const auto& [name, step] = r.per_rank[rank].pre_steps.at(2);
      ASSERT_EQ(name, "scatter_summa");
      EXPECT_EQ(step.messages, 3 * (ranks - 1))
          << qr << "x" << qc << " rank " << rank;
      EXPECT_EQ(step.bytes, 12 * away) << qr << "x" << qc << " rank " << rank;
    }
  }
}

// A SUMMA run writes the artifacts a 2D run does, and they check out: the
// metrics lint, the analyzer's re-derivation of every modeled step, and
// one counting superstep per panel.
TEST(Summa, ArtifactsLintCleanOnEveryGrid) {
  const EdgeList g = sweep_graph();
  for (const auto& [rows, cols] : {std::pair{2, 2}, std::pair{2, 3},
                                   std::pair{3, 2}, std::pair{4, 4}}) {
    for (const bool overlap : {false, true}) {
      SummaOptions options;
      options.grid_rows = rows;
      options.grid_cols = cols;
      options.config.overlap = overlap;
      const RunResult r = count_triangles_summa(g, options);
      const std::string where = std::to_string(rows) + "x" +
                                std::to_string(cols) +
                                (overlap ? " overlap" : "");
      EXPECT_EQ(r.algorithm, "summa") << where;
      EXPECT_EQ(r.grid_q, rows == cols ? rows : 0) << where;
      EXPECT_EQ(r.num_shifts(), static_cast<std::size_t>(std::lcm(rows, cols)))
          << where;
      EXPECT_EQ(r.overlap_enabled, overlap) << where;
      std::vector<std::string> steps;
      for (const auto& [name, sample] : r.per_rank[0].pre_steps) {
        steps.push_back(name);
      }
      EXPECT_EQ(steps, (std::vector<std::string>{"redistribute", "degree_order",
                                                 "scatter_summa"}))
          << where;
      for (const std::string& violation :
           obs::analysis::lint_metrics(build_run_metrics(r))) {
        ADD_FAILURE() << where << ": " << violation;
      }
      const obs::analysis::Analysis analysis =
          obs::analysis::analyze(build_run_report(r));
      EXPECT_TRUE(analysis.consistency_issues.empty()) << where;
    }
  }
}

}  // namespace
}  // namespace tricount::core
