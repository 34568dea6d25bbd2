#include "tricount/baselines/aop1d.hpp"

#include <algorithm>
#include <span>

#include "tricount/kernels/intersect.hpp"
#include "tricount/mpisim/collectives.hpp"
#include "tricount/mpisim/runtime.hpp"

namespace tricount::baselines {

std::uint64_t ghost_entries_from_bytes(std::uint64_t bytes) {
  return bytes / sizeof(VertexId);
}

BaselineResult count_triangles_aop1d(const graph::EdgeList& graph, int ranks,
                                     const AopOptions& options) {
  PhaseRecorder recorder(ranks, {"preprocess", "overlap", "count"});
  TriangleCount triangles = 0;

  mpisim::run_world(ranks, [&](mpisim::Comm& comm) {
    const int p = comm.size();
    core::PhaseTracker tracker(comm);

    const core::LocalSlice input =
        core::block_slice_from_edges(graph, comm.rank(), p);
    const Dag1D dag = build_dag_1d(comm, input);
    recorder.record(comm.rank(), 0, tracker.cut());

    // --- overlap phase: fetch Adj+ of every referenced non-local vertex.
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
    recorder.record(comm.rank(), 1, tracker.cut());

    // --- counting phase: purely local intersections via the shared
    // kernel layer, reusing Adj+(w) as the pinned row across its tasks.
    auto plus_of = [&](VertexId u) -> std::span<const VertexId> {
      if (dag.owns(u)) return dag.plus(u);
      return ghosts.at(u);
    };
    TriangleCount local = 0;
    kernels::IntersectScratch scratch;
    kernels::KernelCounters counters;
    for (VertexId k = 0; k < dag.owned(); ++k) {
      const auto aw = dag.adj_plus[k];
      if (aw.empty()) continue;
      local += scratch.intersect_row(
          options.kernel, aw, /*allow_direct=*/true,
          /*backward_early_exit=*/true, counters, [&](auto&& emit) {
            for (const VertexId u : aw) emit(plus_of(u));
          });
    }
    const TriangleCount total = mpisim::allreduce_sum(comm, local);
    recorder.record(comm.rank(), 2, tracker.cut());
    if (comm.rank() == 0) triangles = total;
  });

  return recorder.finish(triangles);
}

}  // namespace tricount::baselines
