#include "tricount/core/per_vertex.hpp"

#include "tricount/core/resident.hpp"

namespace tricount::core {

double PerVertexResult::local_clustering(graph::VertexId v,
                                         graph::EdgeIndex degree) const {
  if (degree < 2) return 0.0;
  const double possible =
      static_cast<double>(degree) * static_cast<double>(degree - 1) / 2.0;
  return static_cast<double>(counts.at(v)) / possible;
}

PerVertexResult count_per_vertex_2d(const graph::EdgeList& graph, int ranks,
                                    const RunOptions& options) {
  mpisim::PersistentWorld world(ranks, world_options(options));
  RunResult run =
      count_resident(world, preprocess_resident(world, graph, options),
                     options.config, Tally::kPerVertex);
  return {run.triangles, std::move(run.vertex_triangles), ranks};
}

ClusteringStats clustering_stats(const graph::EdgeList& graph,
                                 const PerVertexResult& per_vertex) {
  const std::vector<graph::EdgeIndex> degrees = graph::degrees(graph);

  ClusteringStats stats;
  stats.triangles = per_vertex.total_triangles;
  double clustering_sum = 0.0;
  for (VertexId v = 0; v < graph.num_vertices; ++v) {
    const graph::EdgeIndex d = degrees[v];
    stats.wedges += d * (d - 1) / 2;
    if (d >= 2) {
      clustering_sum += per_vertex.local_clustering(v, d);
    }
  }
  if (stats.wedges > 0) {
    stats.transitivity = 3.0 * static_cast<double>(stats.triangles) /
                         static_cast<double>(stats.wedges);
  }
  if (graph.num_vertices > 0) {
    stats.average_local_clustering =
        clustering_sum / static_cast<double>(graph.num_vertices);
  }
  return stats;
}

ClusteringStats clustering_stats_2d(const graph::EdgeList& graph, int ranks,
                                    const RunOptions& options) {
  return clustering_stats(graph, count_per_vertex_2d(graph, ranks, options));
}

}  // namespace tricount::core
