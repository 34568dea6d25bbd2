// Tests for the preprocessing pipeline: block/cyclic distributions, the
// distributed degree relabel (its exact order, ties included, and the
// relabeled adjacency), and the 2D scatter's placement and traffic.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <numeric>
#include <tuple>

#include "test_corpus.hpp"
#include "tricount/core/preprocess.hpp"
#include "tricount/graph/degree_order.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/mpisim/runtime.hpp"

namespace tricount::core {
namespace {

using graph::EdgeList;

TEST(BlockRange, PartitionsExactly) {
  for (const VertexId n : {0u, 1u, 7u, 16u, 100u}) {
    for (const int p : {1, 3, 4, 7, 16}) {
      VertexId covered = 0;
      VertexId prev_end = 0;
      for (int r = 0; r < p; ++r) {
        const auto [begin, end] = block_range(n, r, p);
        EXPECT_EQ(begin, prev_end);
        EXPECT_LE(end - begin, n / static_cast<VertexId>(p) + 1);
        prev_end = end;
        covered += end - begin;
        for (VertexId v = begin; v < end; ++v) {
          EXPECT_EQ(block_owner(v, n, p), r) << "v=" << v;
        }
      }
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(BlockSlice, CoversAllAdjacency) {
  const EdgeList g = graph::simplify(graph::rmat([] {
    graph::RmatParams params;
    params.scale = 7;
    params.edge_factor = 4;
    params.seed = 6;
    return params;
  }()));
  const int p = 4;
  EdgeIndex total_entries = 0;
  for (int r = 0; r < p; ++r) {
    const LocalSlice slice = block_slice_from_edges(g, r, p);
    EXPECT_EQ(slice.num_vertices, g.num_vertices);
    total_entries += slice.adj.ids.size();
  }
  EXPECT_EQ(total_entries, 2 * g.edges.size());
}

TEST(CyclicRedistribute, PreservesAdjacency) {
  const EdgeList g = graph::simplify(graph::erdos_renyi(120, 500, 3));
  const int p = 5;
  std::mutex mu;
  std::map<VertexId, std::vector<VertexId>> collected;
  mpisim::run_world(p, [&](mpisim::Comm& comm) {
    const LocalSlice input = block_slice_from_edges(g, comm.rank(), p);
    const CyclicSlice cyclic = cyclic_redistribute(comm, input);
    EXPECT_EQ(cyclic.owned(),
              cyclic_row_count(g.num_vertices, p, comm.rank()));
    std::scoped_lock lock(mu);
    for (VertexId k = 0; k < cyclic.owned(); ++k) {
      collected[cyclic.global_id(k)].assign(cyclic.adj[k].begin(),
                                            cyclic.adj[k].end());
    }
  });
  // Every vertex appears exactly once with its full adjacency.
  const graph::Csr csr = graph::Csr::from_edges(g);
  ASSERT_EQ(collected.size(), static_cast<std::size_t>(g.num_vertices));
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    const auto nbrs = csr.neighbors(v);
    EXPECT_EQ(collected[v],
              std::vector<VertexId>(nbrs.begin(), nbrs.end()))
        << "vertex " << v;
  }
}

TEST(CyclicRedistribute, OverlappingSlicesThrow) {
  // Both ranks claim the whole graph, so every vertex's record reaches
  // its cyclic owner twice.
  const EdgeList g = graph::simplify(graph::erdos_renyi(40, 100, 5));
  EXPECT_THROW(mpisim::run_world(2,
                                 [&](mpisim::Comm& comm) {
                                   const LocalSlice input =
                                       block_slice_from_edges(g, 0, 1);
                                   cyclic_redistribute(comm, input);
                                 }),
               std::runtime_error);
}

TEST(DegreeRelabel, EqualsSerialOrderByDegreeThenOwnerThenLocalIndex) {
  // New ids are the serial sort by (deg, v mod p, v div p): degree order,
  // with ties going to the lower cyclic owner, then the lower local index.
  const EdgeList g = graph::simplify(graph::rmat([] {
    graph::RmatParams params;
    params.scale = 8;
    params.edge_factor = 6;
    params.seed = 13;
    return params;
  }()));
  const std::vector<EdgeIndex> degree = graph::degrees(g);
  for (const int p : {1, 4, 6}) {
    const auto pv = static_cast<VertexId>(p);
    std::vector<VertexId> order(g.num_vertices);
    std::iota(order.begin(), order.end(), VertexId{0});
    std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
      return std::tuple(degree[a], a % pv, a / pv) <
             std::tuple(degree[b], b % pv, b / pv);
    });
    std::vector<VertexId> expected(g.num_vertices);
    for (VertexId pos = 0; pos < g.num_vertices; ++pos) {
      expected[order[pos]] = pos;
    }

    std::mutex mu;
    std::vector<VertexId> actual(g.num_vertices, g.num_vertices);
    std::vector<EdgeIndex> max_degrees;
    mpisim::run_world(p, [&](mpisim::Comm& comm) {
      const LocalSlice input = block_slice_from_edges(g, comm.rank(), p);
      const CyclicSlice cyclic = cyclic_redistribute(comm, input);
      const RelabeledSlice rel = degree_relabel(comm, cyclic);
      std::scoped_lock lock(mu);
      for (VertexId k = 0; k < cyclic.owned(); ++k) {
        actual[cyclic.global_id(k)] = rel.new_ids[k];
      }
      max_degrees.push_back(rel.global_max_degree);
    });
    EXPECT_EQ(actual, expected) << "p=" << p;
    EXPECT_EQ(max_degrees,
              std::vector<EdgeIndex>(static_cast<std::size_t>(p),
                                     graph::max_degree(g)))
        << "p=" << p;
  }
}

TEST(DegreeRelabel, AdjacencyRelabeledConsistently) {
  // The relabeled edge multiset must equal the original edge multiset
  // mapped through the new-id permutation.
  const EdgeList g = graph::simplify(graph::watts_strogatz(80, 6, 0.2, 9));
  const int p = 4;
  std::mutex mu;
  std::vector<VertexId> perm(g.num_vertices);
  std::vector<std::pair<VertexId, VertexId>> relabeled_edges;
  mpisim::run_world(p, [&](mpisim::Comm& comm) {
    const LocalSlice input = block_slice_from_edges(g, comm.rank(), p);
    const CyclicSlice cyclic = cyclic_redistribute(comm, input);
    const RelabeledSlice rel = degree_relabel(comm, cyclic);
    std::scoped_lock lock(mu);
    for (std::size_t k = 0; k < rel.adj.size(); ++k) {
      perm[cyclic.global_id(static_cast<VertexId>(k))] = rel.new_ids[k];
      for (const VertexId u : rel.adj[k]) {
        const VertexId w = rel.new_ids[k];
        relabeled_edges.emplace_back(std::min(w, u), std::max(w, u));
      }
    }
  });
  std::vector<std::pair<VertexId, VertexId>> expected;
  for (const graph::Edge& e : g.edges) {
    const VertexId a = perm[e.u];
    const VertexId b = perm[e.v];
    expected.emplace_back(std::min(a, b), std::max(a, b));
    expected.emplace_back(std::min(a, b), std::max(a, b));
  }
  std::sort(expected.begin(), expected.end());
  std::sort(relabeled_edges.begin(), relabeled_edges.end());
  EXPECT_EQ(relabeled_edges, expected);
}

TEST(DegreeRelabel, RowsStrictlyAscendInNewIds) {
  for (const auto& entry : test_support::corpus()) {
    for (const int p : {1, 4, 9}) {
      std::atomic<int> unsorted{0};
      std::atomic<std::uint64_t> entries{0};
      mpisim::run_world(p, [&](mpisim::Comm& comm) {
        const LocalSlice input =
            block_slice_from_edges(entry.graph, comm.rank(), p);
        const RelabeledSlice rel =
            degree_relabel(comm, cyclic_redistribute(comm, input));
        for (std::size_t k = 0; k < rel.adj.size(); ++k) {
          const auto row = rel.adj[k];
          if (std::adjacent_find(row.begin(), row.end(),
                                 std::greater_equal<>()) != row.end()) {
            ++unsorted;
          }
        }
        entries += rel.adj.ids.size();
      });
      EXPECT_EQ(unsorted.load(), 0) << "p=" << p;
      EXPECT_EQ(entries.load(), 2 * entry.graph.edges.size()) << "p=" << p;
    }
  }
}

TEST(Scatter2D, BlockEntryCountsAddUp) {
  const EdgeList g = graph::simplify(graph::erdos_renyi(90, 600, 21));
  const int p = 9;
  std::atomic<std::uint64_t> u_total{0};
  std::atomic<std::uint64_t> l_total{0};
  std::atomic<std::uint64_t> t_total{0};
  mpisim::run_world(p, [&](mpisim::Comm& comm) {
    mpisim::Cart2D grid(comm);
    const LocalSlice input = block_slice_from_edges(g, comm.rank(), p);
    const CyclicSlice cyclic = cyclic_redistribute(comm, input);
    const RelabeledSlice rel = degree_relabel(comm, cyclic);
    const Blocks blocks = scatter_2d(grid, rel, Enumeration::kJIK);
    blocks.ublock.validate();
    blocks.lblock.validate();
    blocks.tasks.validate();
    u_total.fetch_add(blocks.ublock.num_entries());
    l_total.fetch_add(blocks.lblock.num_entries());
    t_total.fetch_add(blocks.tasks.num_entries());
  });
  // U, L, and the (kJIK) task matrix each hold every edge exactly once.
  EXPECT_EQ(u_total.load(), g.edges.size());
  EXPECT_EQ(l_total.load(), g.edges.size());
  EXPECT_EQ(t_total.load(), g.edges.size());
}

TEST(Scatter2D, BlocksEqualASerialPlacement) {
  // Each rank's blocks against place_2d run serially over every rank's
  // relabeled rows, which reach the owner in rank order as alltoallv's
  // buckets do; and the scatter's traffic: one message per part and
  // peer, 8 bytes per entry bound for another rank.
  for (const auto& entry : test_support::corpus()) {
    const EdgeList& g = entry.graph;
    for (const int p : {1, 4, 9, 16}) {
      const int q = mpisim::perfect_square_root(p);
      for (const Enumeration enumeration :
           {Enumeration::kJIK, Enumeration::kIJK}) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << g.num_vertices << " p=" << p
                     << " enumeration=" << static_cast<int>(enumeration));
        const auto ranks = static_cast<std::size_t>(p);
        std::vector<RelabeledSlice> slices(ranks);
        std::vector<Blocks> blocks(ranks);
        std::vector<mpisim::PerfCounters> traffic(ranks);
        mpisim::run_world(p, [&](mpisim::Comm& comm) {
          mpisim::Cart2D grid(comm);
          const auto r = static_cast<std::size_t>(comm.rank());
          slices[r] = degree_relabel(
              comm, cyclic_redistribute(
                        comm, block_slice_from_edges(g, comm.rank(), p)));
          const mpisim::PerfCounters before = comm.counters();
          blocks[r] = scatter_2d(grid, slices[r], enumeration);
          traffic[r] = comm.counters() - before;
        });

        // placed[dest][part]: the entries every rank sends to dest.
        std::vector<std::array<std::vector<LocalEntry>, 3>> placed(ranks);
        std::vector<std::uint64_t> sent_away(ranks, 0);
        for (std::size_t r = 0; r < ranks; ++r) {
          const RelabeledSlice& rel = slices[r];
          for (std::size_t k = 0; k < rel.adj.size(); ++k) {
            for (const VertexId u : rel.adj[k]) {
              place_2d(q, rel.new_ids[k], u, enumeration,
                       [&](Part part, int dest, LocalEntry e) {
                         const auto d = static_cast<std::size_t>(dest);
                         placed[d][static_cast<std::size_t>(part)].push_back(e);
                         if (d != r) ++sent_away[r];
                       });
            }
          }
        }
        for (int r = 0; r < p; ++r) {
          const auto at = static_cast<std::size_t>(r);
          const VertexId u_rows = cyclic_row_count(g.num_vertices, q, r / q);
          const VertexId l_rows = cyclic_row_count(g.num_vertices, q, r % q);
          EXPECT_EQ(blocks[at].ublock,
                    BlockCsr::from_entries(u_rows, placed[at][0]))
              << "rank " << r;
          EXPECT_EQ(blocks[at].lblock,
                    BlockCsr::from_entries(l_rows, placed[at][1]))
              << "rank " << r;
          EXPECT_EQ(blocks[at].tasks,
                    BlockCsr::from_entries(u_rows, placed[at][2]))
              << "rank " << r;
          EXPECT_EQ(traffic[at].messages_sent,
                    3 * static_cast<std::uint64_t>(p - 1))
              << "rank " << r;
          EXPECT_EQ(traffic[at].bytes_sent, 8 * sent_away[at]) << "rank " << r;
        }
      }
    }
  }
}

TEST(Preprocess, StepsAreNamedAndEdgeCountIsGlobal) {
  const EdgeList g = graph::simplify(graph::complete_graph(20));
  const int p = 4;
  std::mutex mu;
  std::vector<PreprocessOutput> outputs;
  mpisim::run_world(p, [&](mpisim::Comm& comm) {
    mpisim::Cart2D grid(comm);
    const LocalSlice input = block_slice_from_edges(g, comm.rank(), p);
    PreprocessOutput out = preprocess(grid, input, Config{});
    std::scoped_lock lock(mu);
    outputs.push_back(std::move(out));
  });
  ASSERT_EQ(outputs.size(), 4u);
  for (const auto& out : outputs) {
    EXPECT_EQ(out.num_edges, g.edges.size());
    ASSERT_EQ(out.steps.size(), 4u);
    EXPECT_EQ(out.steps[0].first, "redistribute");
    EXPECT_EQ(out.steps[1].first, "degree_order");
    EXPECT_EQ(out.steps[2].first, "scatter_2d");
    EXPECT_EQ(out.steps[3].first, "edge_count");
  }
}

}  // namespace
}  // namespace tricount::core
