#include "tricount/graph/stats.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

namespace tricount::graph {

DegreeStats degree_stats(const Csr& csr) {
  DegreeStats stats;
  const VertexId n = csr.num_vertices();
  if (n == 0) return stats;
  std::vector<EdgeIndex> degrees(n);
  for (VertexId v = 0; v < n; ++v) degrees[v] = csr.degree(v);

  stats.min_degree = *std::min_element(degrees.begin(), degrees.end());
  stats.max_degree = *std::max_element(degrees.begin(), degrees.end());
  double sum = 0.0;
  for (const EdgeIndex d : degrees) {
    sum += static_cast<double>(d);
    if (d == 0) ++stats.isolated_vertices;
  }
  stats.mean_degree = sum / static_cast<double>(n);

  std::vector<EdgeIndex> sorted = degrees;
  std::nth_element(sorted.begin(), sorted.begin() + n / 2, sorted.end());
  stats.median_degree = static_cast<double>(sorted[n / 2]);
  if (n % 2 == 0 && n > 1) {
    std::nth_element(sorted.begin(), sorted.begin() + (n / 2 - 1), sorted.end());
    stats.median_degree =
        (stats.median_degree + static_cast<double>(sorted[n / 2 - 1])) / 2.0;
  }

  double variance = 0.0;
  for (const EdgeIndex d : degrees) {
    const double delta = static_cast<double>(d) - stats.mean_degree;
    variance += delta * delta;
  }
  variance /= static_cast<double>(n);
  if (stats.mean_degree > 0.0) {
    stats.coefficient_of_variation = std::sqrt(variance) / stats.mean_degree;
  }
  return stats;
}

double degree_assortativity(const Csr& csr) {
  // Newman's formulation over directed stubs: for each edge, both
  // orientations contribute a (d(u), d(v)) sample.
  double se = 0.0;   // number of samples
  double sx = 0.0;   // sum of source degrees
  double sxx = 0.0;  // sum of squared source degrees
  double sxy = 0.0;  // sum of products
  for (VertexId u = 0; u < csr.num_vertices(); ++u) {
    const double du = static_cast<double>(csr.degree(u));
    for (const VertexId v : csr.neighbors(u)) {
      const double dv = static_cast<double>(csr.degree(v));
      se += 1.0;
      sx += du;
      sxx += du * du;
      sxy += du * dv;
    }
  }
  if (se < 2.0) return 0.0;
  const double mean = sx / se;
  const double var = sxx / se - mean * mean;
  if (var <= 0.0) return 0.0;
  const double cov = sxy / se - mean * mean;
  return cov / var;
}

ComponentStats connected_components(const Csr& csr) {
  ComponentStats stats;
  const VertexId n = csr.num_vertices();
  stats.component.assign(n, kInvalidVertex);
  std::deque<VertexId> frontier;
  for (VertexId root = 0; root < n; ++root) {
    if (stats.component[root] != kInvalidVertex) continue;
    ++stats.num_components;
    VertexId size = 0;
    stats.component[root] = root;
    frontier.push_back(root);
    while (!frontier.empty()) {
      const VertexId v = frontier.front();
      frontier.pop_front();
      ++size;
      for (const VertexId w : csr.neighbors(v)) {
        if (stats.component[w] == kInvalidVertex) {
          stats.component[w] = root;
          frontier.push_back(w);
        }
      }
    }
    stats.largest_component = std::max(stats.largest_component, size);
  }
  return stats;
}

VertexId two_core_size(const EdgeList& simplified) {
  const Csr csr = Csr::from_edges(simplified);
  const VertexId n = csr.num_vertices();
  std::vector<EdgeIndex> degree(n);
  std::vector<bool> dead(n, false);
  std::deque<VertexId> queue;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = csr.degree(v);
    if (degree[v] < 2) {
      dead[v] = true;
      queue.push_back(v);
    }
  }
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop_front();
    for (const VertexId w : csr.neighbors(v)) {
      if (dead[w]) continue;
      if (--degree[w] < 2) {
        dead[w] = true;
        queue.push_back(w);
      }
    }
  }
  VertexId alive = 0;
  for (VertexId v = 0; v < n; ++v) {
    // Isolated vertices never had edges; count only peeled-with-edges as
    // removed, matching the "can be part of a triangle" closure.
    if (!dead[v]) ++alive;
  }
  return alive;
}

}  // namespace tricount::graph
