#include "tricount/core/dist_truss.hpp"

#include "tricount/core/resident.hpp"

namespace tricount::core {

std::vector<graph::TriangleCount> edge_supports_2d(
    const graph::EdgeList& simplified, int ranks, const RunOptions& options) {
  mpisim::PersistentWorld world(ranks, world_options(options));
  return count_resident(world, preprocess_resident(world, simplified, options),
                        options.config, Tally::kEdgeSupport, &simplified)
      .edge_supports;
}

graph::KtrussResult ktruss_2d(const graph::EdgeList& simplified, int ranks,
                              const RunOptions& options) {
  return graph::ktruss_from_supports(simplified,
                                     edge_supports_2d(simplified, ranks, options));
}

}  // namespace tricount::core
