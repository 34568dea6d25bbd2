#include "tricount/graph/edge_list.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <numeric>
#include <stdexcept>

namespace tricount::graph {
namespace {

/// Buckets smaller than this are insertion-sorted instead of split again.
constexpr std::size_t kInsertionCutoff = 64;

/// The packed sort key (u << bits) | v. With both endpoints below
/// 2^bits, key order is (u, v) order.
struct PackedKey {
  int bits = 1;

  std::uint64_t operator()(const Edge& e) const {
    return (std::uint64_t{e.u} << bits) | e.v;
  }
};

void insertion_sort(Edge* first, Edge* last, PackedKey key) {
  for (Edge* i = first + 1; i < last; ++i) {
    const Edge e = *i;
    const std::uint64_t k = key(e);
    Edge* j = i;
    for (; j > first && key(j[-1]) > k; --j) *j = j[-1];
    *j = e;
  }
}

/// American flag sort of [first, last), whose keys agree above bit
/// `high`: splits on the 8-bit digit just below `high` by a counting pass
/// and an in-place cycle pass, then sorts every bucket on the bits below.
void flag_sort(Edge* first, Edge* last, int high, PackedKey key) {
  const auto size = static_cast<std::size_t>(last - first);
  if (high == 0) return;  // every key is equal
  if (size < kInsertionCutoff) {
    insertion_sort(first, last, key);
    return;
  }
  const int shift = std::max(high - 8, 0);
  const std::uint64_t mask = (std::uint64_t{1} << (high - shift)) - 1;
  const auto digit = [&](const Edge& e) {
    return static_cast<unsigned>((key(e) >> shift) & mask);
  };
  std::array<std::size_t, 256> count{};
  for (const Edge* e = first; e < last; ++e) ++count[digit(*e)];

  std::array<std::size_t, 256> head{};  // next unplaced slot per bucket
  std::exclusive_scan(count.begin(), count.end(), head.begin(),
                      std::size_t{0});
  std::size_t bucket_end = 0;
  for (unsigned d = 0; d < 256; ++d) {
    bucket_end += count[d];
    while (head[d] < bucket_end) {
      Edge e = first[head[d]];
      for (unsigned k = digit(e); k != d; k = digit(e)) {
        std::swap(e, first[head[k]++]);
      }
      first[head[d]++] = e;
    }
  }

  Edge* bucket = first;
  for (unsigned d = 0; d < 256; ++d) {
    if (count[d] > 1) flag_sort(bucket, bucket + count[d], shift, key);
    bucket += count[d];
  }
}

/// Sorts `edges` ascending by (u, v) in place; every endpoint must be
/// below `num_vertices`.
void sort_edges(std::vector<Edge>& edges, VertexId num_vertices) {
  const int bits =
      std::max(1, static_cast<int>(std::bit_width(
                          num_vertices > 0 ? num_vertices - 1 : 0u)));
  flag_sort(edges.data(), edges.data() + edges.size(), 2 * bits,
            PackedKey{bits});
}

}  // namespace

EdgeList simplify(EdgeList graph) {
  auto& edges = graph.edges;
  std::size_t kept = 0;
  for (Edge e : edges) {
    if (e.u > e.v) std::swap(e.u, e.v);
    if (e.v >= graph.num_vertices) {
      throw std::out_of_range("simplify: edge endpoint out of range");
    }
    if (e.u != e.v) edges[kept++] = e;
  }
  edges.resize(kept);
  sort_edges(edges, graph.num_vertices);
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  return graph;
}

std::vector<EdgeIndex> degrees(const EdgeList& graph) {
  std::vector<EdgeIndex> deg(graph.num_vertices, 0);
  for (const Edge& e : graph.edges) {
    ++deg[e.u];
    ++deg[e.v];
  }
  return deg;
}

EdgeIndex max_degree(const EdgeList& graph) {
  const auto deg = degrees(graph);
  EdgeIndex best = 0;
  for (const EdgeIndex d : deg) best = std::max(best, d);
  return best;
}

EdgeList relabel(const EdgeList& graph, const std::vector<VertexId>& perm) {
  if (perm.size() != graph.num_vertices) {
    throw std::invalid_argument("relabel: permutation size mismatch");
  }
  EdgeList out;
  out.num_vertices = graph.num_vertices;
  out.edges.reserve(graph.edges.size());
  for (const Edge& e : graph.edges) {
    VertexId u = perm[e.u];
    VertexId v = perm[e.v];
    if (u > v) std::swap(u, v);
    if (v >= out.num_vertices) {
      throw std::invalid_argument("relabel: not a permutation");
    }
    out.edges.push_back(Edge{u, v});
  }
  sort_edges(out.edges, out.num_vertices);
  return out;
}

bool is_permutation(const std::vector<VertexId>& perm) {
  std::vector<bool> seen(perm.size(), false);
  for (const VertexId v : perm) {
    if (v >= perm.size() || seen[v]) return false;
    seen[v] = true;
  }
  return true;
}

}  // namespace tricount::graph
