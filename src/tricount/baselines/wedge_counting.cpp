#include "tricount/baselines/wedge_counting.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "tricount/mpisim/collectives.hpp"

namespace tricount::baselines {

namespace {

/// Distributed 2-core peeling on the block-distributed full adjacency.
/// Returns the number of vertices peeled on this rank; `slice.adj` is
/// compacted in place so peeled vertices and their edges disappear.
VertexId two_core_peel(mpisim::Comm& comm, core::LocalSlice& slice) {
  const int p = comm.size();
  const VertexId n = slice.num_vertices;
  core::Adjacency& adj = slice.adj;
  // Row k keeps its live entries, still ascending, at the front of its
  // slot [offsets[k], offsets[k + 1]) until the peel ends.
  std::vector<EdgeIndex> live(slice.owned());
  for (VertexId k = 0; k < slice.owned(); ++k) live[k] = adj[k].size();
  auto row = [&](VertexId k) {
    return std::span<VertexId>(adj.ids.data() + adj.offsets[k], live[k]);
  };
  VertexId peeled = 0;
  while (true) {
    // Notices (u, v): "edge (v, u) vanished because v was peeled".
    std::vector<std::vector<VertexId>> notices(static_cast<std::size_t>(p));
    VertexId died = 0;
    for (VertexId k = 0; k < slice.owned(); ++k) {
      if (live[k] != 1) continue;
      const VertexId u = row(k)[0];
      auto& bucket =
          notices[static_cast<std::size_t>(core::block_owner(u, n, p))];
      bucket.push_back(u);
      bucket.push_back(slice.begin + k);
      live[k] = 0;
      ++died;
    }
    const auto incoming = mpisim::alltoallv(comm, notices);
    for (const auto& bucket : incoming) {
      for (std::size_t at = 0; at + 1 < bucket.size();
           at += 2) {
        const VertexId k = bucket[at] - slice.begin;
        const VertexId v = bucket[at + 1];
        const auto list = row(k);
        const auto it = std::lower_bound(list.begin(), list.end(), v);
        if (it != list.end() && *it == v) {
          std::copy(it + 1, list.end(), it);
          --live[k];
        }
      }
    }
    peeled += died;
    if (mpisim::allreduce_sum(comm, static_cast<std::uint64_t>(died)) == 0) {
      break;
    }
  }
  EdgeIndex write = 0;
  for (VertexId k = 0; k < slice.owned(); ++k) {
    const auto list = row(k);
    adj.offsets[k] = write;
    std::copy(list.begin(), list.end(),
              adj.ids.begin() + static_cast<std::ptrdiff_t>(write));
    write += live[k];
  }
  adj.offsets[slice.owned()] = write;
  adj.ids.resize(write);
  return peeled;
}

}  // namespace

core::RunResult count_triangles_wedge(const graph::EdgeList& graph, int ranks,
                                      const WedgeOptions& options) {
  if (options.rounds < 1) {
    throw std::invalid_argument("wedge: rounds must be >= 1");
  }
  return run_baseline(
      "wedge", graph, ranks, options.model,
      [&](mpisim::Comm& comm, core::LocalSlice slice,
          core::PhaseTracker& tracker, core::RankStats&) {
        const int p = comm.size();
        core::PhaseTracker::Step twocore = tracker.pre("twocore");
        twocore.close(two_core_peel(comm, slice));

        core::PhaseTracker::Step wedge_count = tracker.superstep();
        // Degree-order the peeled graph and build the directed adjacency.
        const Dag1D dag = build_dag_1d(comm, std::move(slice));

        TriangleCount local = 0;
        std::uint64_t wedges = 0;
        const VertexId owned = dag.owned();
        for (int round = 0; round < options.rounds; ++round) {
          const VertexId lo = static_cast<VertexId>(
              static_cast<std::uint64_t>(owned) *
              static_cast<std::uint64_t>(round) /
              static_cast<std::uint64_t>(options.rounds));
          const VertexId hi = static_cast<VertexId>(
              static_cast<std::uint64_t>(owned) *
              static_cast<std::uint64_t>(round + 1) /
              static_cast<std::uint64_t>(options.rounds));

          // Generate directed wedges (a, b), a < b, centered at each owned
          // vertex, and ship each to a's owner for the closure check.
          std::vector<std::vector<VertexId>> queries(
              static_cast<std::size_t>(p));
          for (VertexId k = lo; k < hi; ++k) {
            const auto plus = dag.adj_plus[k];
            for (std::size_t i = 0; i < plus.size(); ++i) {
              for (std::size_t j = i + 1; j < plus.size(); ++j) {
                const VertexId a = plus[i];
                const VertexId b = plus[j];
                auto& bucket = queries[static_cast<std::size_t>(
                    core::block_owner(a, dag.num_vertices, p))];
                bucket.push_back(a);
                bucket.push_back(b);
                ++wedges;
              }
            }
          }
          const auto incoming = mpisim::alltoallv(comm, queries);
          for (const auto& bucket : incoming) {
            for (std::size_t at = 0; at + 1 < bucket.size(); at += 2) {
              const VertexId a = bucket[at];
              const VertexId b = bucket[at + 1];
              const auto& list = dag.plus(a);
              if (std::binary_search(list.begin(), list.end(), b)) ++local;
            }
          }
        }
        const TriangleCount total = mpisim::allreduce_sum(comm, local);
        wedge_count.close(wedges);
        return total;
      });
}

}  // namespace tricount::baselines
