#include "tricount/graph/ktruss.hpp"

#include <algorithm>
#include <stdexcept>

namespace tricount::graph {

namespace {

void require_simplified(const EdgeList& graph) {
  for (std::size_t i = 0; i < graph.edges.size(); ++i) {
    const Edge& e = graph.edges[i];
    if (e.u >= e.v) {
      throw std::invalid_argument("ktruss: input must be simplified");
    }
    if (i > 0 && !(graph.edges[i - 1] < e)) {
      throw std::invalid_argument("ktruss: edges must be sorted and unique");
    }
  }
}

}  // namespace

std::vector<TriangleCount> edge_supports(const EdgeList& simplified) {
  require_simplified(simplified);
  const Csr csr = Csr::from_edges(simplified);
  std::vector<TriangleCount> support(simplified.edges.size(), 0);
  for (std::size_t e = 0; e < simplified.edges.size(); ++e) {
    const auto nu = csr.neighbors(simplified.edges[e].u);
    const auto nv = csr.neighbors(simplified.edges[e].v);
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < nu.size() && j < nv.size()) {
      if (nu[i] == nv[j]) {
        ++support[e];
        ++i;
        ++j;
      } else if (nu[i] < nv[j]) {
        ++i;
      } else {
        ++j;
      }
    }
  }
  return support;
}

KtrussResult ktruss_decomposition(const EdgeList& simplified) {
  return ktruss_from_supports(simplified, edge_supports(simplified));
}

KtrussResult ktruss_from_supports(const EdgeList& simplified,
                                  std::vector<TriangleCount> support) {
  require_simplified(simplified);
  const std::size_t m = simplified.edges.size();
  if (support.size() != m) {
    throw std::invalid_argument("ktruss: support/edge size mismatch");
  }
  KtrussResult result;
  result.trussness.assign(m, 2);
  if (m == 0) return result;

  const Csr csr = Csr::from_edges(simplified);

  // slot_edge[i] is the id of the edge behind CSR slot i. Walking the
  // (u, v)-sorted edges hands each row its smaller neighbours before its
  // larger ones, both ascending: exactly the CSR's slot order.
  std::vector<std::size_t> slot_edge(csr.adj().size());
  {
    std::vector<EdgeIndex> cursor(csr.xadj().begin(), csr.xadj().end() - 1);
    for (std::size_t e = 0; e < m; ++e) {
      slot_edge[cursor[simplified.edges[e].u]++] = e;
      slot_edge[cursor[simplified.edges[e].v]++] = e;
    }
  }

  // Bucket queue over support values (Batagelj–Zaveršnik style): `order`
  // holds edge ids sorted by current support, `pos` the index of each
  // edge in `order`, `bin_start[s]` the first index with support >= s.
  TriangleCount max_support = 0;
  for (const TriangleCount s : support) max_support = std::max(max_support, s);
  std::vector<std::size_t> bin_start(static_cast<std::size_t>(max_support) + 2, 0);
  for (const TriangleCount s : support) ++bin_start[s + 1];
  for (std::size_t s = 1; s < bin_start.size(); ++s) {
    bin_start[s] += bin_start[s - 1];
  }
  std::vector<std::size_t> order(m);
  std::vector<std::size_t> pos(m);
  {
    std::vector<std::size_t> cursor(bin_start.begin(), bin_start.end() - 1);
    for (std::size_t e = 0; e < m; ++e) {
      pos[e] = cursor[support[e]]++;
      order[pos[e]] = e;
    }
  }

  std::vector<bool> removed(m, false);

  // Moves edge e from its current bin (support s) into bin s-1.
  auto decrement_support = [&](std::size_t e) {
    const TriangleCount s = support[e];
    const std::size_t first_of_bin = bin_start[s];
    const std::size_t other = order[first_of_bin];
    if (other != e) {
      std::swap(order[pos[e]], order[first_of_bin]);
      std::swap(pos[e], pos[other]);
    }
    ++bin_start[s];
    --support[e];
  };

  for (std::size_t at = 0; at < m; ++at) {
    const std::size_t e = order[at];
    removed[e] = true;
    const TriangleCount s = support[e];
    result.trussness[e] = static_cast<int>(s) + 2;
    result.max_k = std::max(result.max_k, result.trussness[e]);
    // Keep the bucket structure consistent: everything below `at` is gone.
    for (std::size_t b = 0; b <= s; ++b) {
      bin_start[b] = std::max(bin_start[b], at + 1);
    }

    const VertexId u = simplified.edges[e].u;
    const VertexId v = simplified.edges[e].v;
    const auto nu = csr.neighbors(u);
    const auto nv = csr.neighbors(v);
    const std::size_t* eu = slot_edge.data() + csr.xadj()[u];
    const std::size_t* ev = slot_edge.data() + csr.xadj()[v];
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < nu.size() && j < nv.size()) {
      if (nu[i] == nv[j]) {
        const std::size_t e1 = eu[i];  // (u, w)
        const std::size_t e2 = ev[j];  // (v, w)
        if (!removed[e1] && !removed[e2]) {
          // The triangle (u, v, w) dies with e; its other two edges lose
          // one unit of support, floored at e's peel level.
          if (support[e1] > s) decrement_support(e1);
          if (support[e2] > s) decrement_support(e2);
        }
        ++i;
        ++j;
      } else if (nu[i] < nv[j]) {
        ++i;
      } else {
        ++j;
      }
    }
  }
  return result;
}

std::vector<Edge> KtrussResult::truss_edges(const EdgeList& simplified,
                                            int k) const {
  std::vector<Edge> out;
  for (std::size_t e = 0; e < trussness.size(); ++e) {
    if (trussness[e] >= k) out.push_back(simplified.edges[e]);
  }
  return out;
}

}  // namespace tricount::graph
