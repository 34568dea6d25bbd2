#include "tricount/baselines/push_based1d.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "tricount/kernels/intersect.hpp"
#include "tricount/mpisim/collectives.hpp"

namespace tricount::baselines {

core::RunResult count_triangles_push1d(const graph::EdgeList& graph,
                                       int ranks,
                                       const PushOptions& options) {
  if (options.rounds < 1) {
    throw std::invalid_argument("push1d: rounds must be >= 1");
  }
  return run_baseline(
      "push", graph, ranks, options.model,
      [&](mpisim::Comm& comm, core::LocalSlice input,
          core::PhaseTracker& tracker, core::RankStats& stats) {
        const int p = comm.size();
        core::PhaseTracker::Step preprocess = tracker.pre("preprocess");
        const Dag1D dag = build_dag_1d(comm, std::move(input));
        preprocess.close();

        core::PhaseTracker::Step count = tracker.superstep();
        TriangleCount local = 0;
        kernels::IntersectScratch scratch;
        // Adj+(w) is the pinned hashed row for both the local tasks and the
        // unpacked incoming pushes.
        auto count_against = [&](std::span<const VertexId> aw,
                                 std::span<const VertexId> targets) {
          if (aw.empty()) return;
          local += scratch.intersect_row(
              options.kernel, aw, /*allow_direct=*/true,
              /*backward_early_exit=*/true, stats.kernel, [&](auto&& emit) {
                for (const VertexId u : targets) emit(dag.plus(u));
              });
        };
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

          // Push format per source vertex w, per destination rank:
          //   [#targets, target u..., |Adj+(w)|, Adj+(w)...]
          std::vector<std::vector<VertexId>> outgoing(
              static_cast<std::size_t>(p));
          for (VertexId k = lo; k < hi; ++k) {
            const auto aw = dag.adj_plus[k];
            // Group this vertex's targets by owner so the (usually long)
            // list is shipped at most once per destination rank.
            std::vector<std::vector<VertexId>> targets(
                static_cast<std::size_t>(p));
            for (const VertexId u : aw) {
              targets[static_cast<std::size_t>(
                          core::block_owner(u, dag.num_vertices, p))]
                  .push_back(u);
            }
            for (int r = 0; r < p; ++r) {
              const auto& t = targets[static_cast<std::size_t>(r)];
              if (t.empty()) continue;
              if (r == comm.rank()) {
                count_against(aw, t);
                continue;
              }
              auto& bucket = outgoing[static_cast<std::size_t>(r)];
              bucket.push_back(static_cast<VertexId>(t.size()));
              bucket.insert(bucket.end(), t.begin(), t.end());
              bucket.push_back(static_cast<VertexId>(aw.size()));
              bucket.insert(bucket.end(), aw.begin(), aw.end());
            }
          }
          const auto incoming = mpisim::alltoallv(comm, outgoing);
          for (const auto& bucket : incoming) {
            std::size_t at = 0;
            while (at < bucket.size()) {
              const VertexId nt = bucket[at++];
              const std::span<const VertexId> targets(bucket.data() + at, nt);
              at += nt;
              const VertexId len = bucket[at++];
              const std::span<const VertexId> aw(bucket.data() + at, len);
              at += len;
              count_against(aw, targets);
            }
          }
        }
        stats.kernel.probes = scratch.probes();
        const TriangleCount total = mpisim::allreduce_sum(comm, local);
        count.close(stats.kernel.lookups);
        return total;
      });
}

}  // namespace tricount::baselines
