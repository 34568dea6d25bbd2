#include "tricount/graph/csr.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "tricount/util/prefix.hpp"

namespace tricount::graph {

Csr::Csr(VertexId num_vertices, std::vector<EdgeIndex> xadj,
         std::vector<VertexId> adj)
    : num_vertices_(num_vertices), xadj_(std::move(xadj)), adj_(std::move(adj)) {
  if (xadj_.size() != static_cast<std::size_t>(num_vertices_) + 1) {
    throw std::invalid_argument("Csr: xadj must have n+1 entries");
  }
}

Csr Csr::from_edges(const EdgeList& graph) {
  std::vector<EdgeIndex> xadj(static_cast<std::size_t>(graph.num_vertices) + 1, 0);
  for (const Edge& e : graph.edges) {
    ++xadj[e.u + 1];
    ++xadj[e.v + 1];
  }
  for (std::size_t i = 1; i < xadj.size(); ++i) xadj[i] += xadj[i - 1];
  std::vector<VertexId> adj(xadj.back());
  std::vector<EdgeIndex> cursor(xadj.begin(), xadj.end() - 1);
  for (const Edge& e : graph.edges) {
    adj[cursor[e.u]++] = e.v;
    adj[cursor[e.v]++] = e.u;
  }
  // A simplified list places every row ascending: sort only the others.
  for (VertexId v = 0; v < graph.num_vertices; ++v) {
    const auto first = adj.begin() + static_cast<std::ptrdiff_t>(xadj[v]);
    const auto last = adj.begin() + static_cast<std::ptrdiff_t>(xadj[v + 1]);
    if (std::adjacent_find(first, last, std::greater_equal<>()) != last) {
      std::sort(first, last);
    }
  }
  return Csr(graph.num_vertices, std::move(xadj), std::move(adj));
}

EdgeIndex Csr::max_degree() const {
  EdgeIndex best = 0;
  for (VertexId v = 0; v < num_vertices_; ++v) best = std::max(best, degree(v));
  return best;
}

bool Csr::has_edge(VertexId v, VertexId u) const {
  const auto nbrs = neighbors(v);
  return std::binary_search(nbrs.begin(), nbrs.end(), u);
}

void Csr::validate() const {
  if (xadj_.size() != static_cast<std::size_t>(num_vertices_) + 1) {
    throw std::runtime_error("Csr: xadj size mismatch");
  }
  if (xadj_.front() != 0 || xadj_.back() != adj_.size()) {
    throw std::runtime_error("Csr: xadj endpoints wrong");
  }
  for (VertexId v = 0; v < num_vertices_; ++v) {
    if (xadj_[v] > xadj_[v + 1]) {
      throw std::runtime_error("Csr: xadj not monotone");
    }
    const auto nbrs = neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] >= num_vertices_) {
        throw std::runtime_error("Csr: neighbor id out of range");
      }
      if (i > 0 && nbrs[i - 1] > nbrs[i]) {
        throw std::runtime_error("Csr: adjacency list not sorted");
      }
    }
  }
}

std::vector<VertexId> nonempty_rows(const Csr& csr) {
  std::vector<VertexId> rows;
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    if (csr.degree(v) > 0) rows.push_back(v);
  }
  return rows;
}

}  // namespace tricount::graph
