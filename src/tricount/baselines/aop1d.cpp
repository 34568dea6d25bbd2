#include "tricount/baselines/aop1d.hpp"

#include <algorithm>
#include <span>

#include "tricount/kernels/intersect.hpp"
#include "tricount/mpisim/collectives.hpp"

namespace tricount::baselines {

core::RunResult count_triangles_aop1d(const graph::EdgeList& graph, int ranks,
                                      const AopOptions& options) {
  return run_baseline(
      "aop", graph, ranks, options.model,
      [&](mpisim::Comm& comm, core::LocalSlice input,
          core::PhaseTracker& tracker, core::RankStats& stats) {
        const int p = comm.size();
        core::PhaseTracker::Step preprocess = tracker.pre("preprocess");
        const Dag1D dag = build_dag_1d(comm, std::move(input));
        preprocess.close();

        // --- overlap phase: fetch Adj+ of every referenced non-local
        // vertex.
        core::PhaseTracker::Step overlap = tracker.pre("overlap");
        std::vector<std::vector<VertexId>> wanted(static_cast<std::size_t>(p));
        for (VertexId k = 0; k < dag.owned(); ++k) {
          for (const VertexId u : dag.adj_plus[k]) {
            if (!dag.owns(u)) {
              wanted[static_cast<std::size_t>(
                         core::block_owner(u, dag.num_vertices, p))]
                  .push_back(u);
            }
          }
        }
        for (auto& w : wanted) {
          std::sort(w.begin(), w.end());
          w.erase(std::unique(w.begin(), w.end()), w.end());
        }
        const auto requests = mpisim::alltoallv(comm, wanted);
        std::vector<std::vector<VertexId>> replies(static_cast<std::size_t>(p));
        for (int r = 0; r < p; ++r) {
          auto& reply = replies[static_cast<std::size_t>(r)];
          for (const VertexId u : requests[static_cast<std::size_t>(r)]) {
            core::append_record(reply, u, dag.plus(u));
          }
        }
        const core::GhostRows ghosts = core::unpack_ghosts(
            wanted, mpisim::alltoallv(comm, replies), "aop1d");
        overlap.close();

        // --- counting phase: purely local intersections via the shared
        // kernel layer, reusing Adj+(w) as the pinned row across its tasks.
        core::PhaseTracker::Step count = tracker.superstep();
        auto plus_of = [&](VertexId u) -> std::span<const VertexId> {
          if (dag.owns(u)) return dag.plus(u);
          return ghosts.at(u);
        };
        TriangleCount local = 0;
        kernels::IntersectScratch scratch;
        for (VertexId k = 0; k < dag.owned(); ++k) {
          const auto aw = dag.adj_plus[k];
          if (aw.empty()) continue;
          local += scratch.intersect_row(
              options.kernel, aw, /*allow_direct=*/true,
              /*backward_early_exit=*/true, stats.kernel, [&](auto&& emit) {
                for (const VertexId u : aw) emit(plus_of(u));
              });
        }
        stats.kernel.probes = scratch.probes();
        const TriangleCount total = mpisim::allreduce_sum(comm, local);
        count.close(stats.kernel.lookups);
        return total;
      });
}

}  // namespace tricount::baselines
