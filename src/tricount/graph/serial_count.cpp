#include "tricount/graph/serial_count.hpp"

#include <algorithm>
#include <numeric>
#include <span>

#include "tricount/graph/degree_order.hpp"
#include "tricount/kernels/intersect.hpp"

namespace tricount::graph {

namespace {

/// Builds the "forward" DAG adjacency in order-position space: out[v]
/// holds position[w] for every neighbour w that comes after v in the
/// given total order, sorted ascending. Equal positions mean equal
/// vertices, so the lists feed the intersection kernels directly.
std::vector<std::vector<VertexId>> forward_adjacency(
    const Csr& csr, const std::vector<VertexId>& position) {
  std::vector<std::vector<VertexId>> out(csr.num_vertices());
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    for (const VertexId w : csr.neighbors(v)) {
      if (position[w] > position[v]) out[v].push_back(position[w]);
    }
    std::sort(out[v].begin(), out[v].end());
  }
  return out;
}

}  // namespace

TriangleCount count_triangles_serial(const Csr& csr, IntersectionKind kind) {
  return count_triangles_kernel(csr, kind == IntersectionKind::kList
                                         ? kernels::KernelPolicy::kMerge
                                         : kernels::KernelPolicy::kHash);
}

TriangleCount count_triangles_kernel(const Csr& csr,
                                     kernels::KernelPolicy policy,
                                     kernels::KernelCounters* counters) {
  // Non-decreasing-degree order (§3.1): position[v] = rank of v.
  const std::vector<VertexId> position = degree_order_positions(csr);
  const auto forward = forward_adjacency(csr, position);
  // order[p] = vertex at position p, to map forward entries back.
  std::vector<VertexId> order(csr.num_vertices());
  for (VertexId v = 0; v < csr.num_vertices(); ++v) order[position[v]] = v;

  kernels::KernelCounters local;
  kernels::KernelCounters& k = counters != nullptr ? *counters : local;
  kernels::IntersectScratch scratch;
  TriangleCount total = 0;
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    if (forward[v].empty()) continue;
    ++k.rows_visited;
    total += scratch.intersect_row(
        policy, forward[v], /*allow_direct=*/true,
        /*backward_early_exit=*/true, k, [&](auto&& emit) {
          for (const VertexId wp : forward[v]) {
            const std::vector<VertexId>& fw = forward[order[wp]];
            if (!fw.empty()) emit(fw);
          }
        });
  }
  k.probes += scratch.probes();
  return total;
}

TriangleCount count_triangles_id_order(const Csr& csr) {
  TriangleCount total = 0;
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    const auto nv = csr.neighbors(v);
    for (const VertexId w : nv) {
      if (w <= v) continue;
      const auto nw = csr.neighbors(w);
      // Count x > w adjacent to both v and w (lists are id-sorted).
      auto iv = std::upper_bound(nv.begin(), nv.end(), w);
      auto iw = std::upper_bound(nw.begin(), nw.end(), w);
      while (iv != nv.end() && iw != nw.end()) {
        if (*iv == *iw) {
          ++total;
          ++iv;
          ++iw;
        } else if (*iv < *iw) {
          ++iv;
        } else {
          ++iw;
        }
      }
    }
  }
  return total;
}

std::vector<TriangleCount> per_vertex_triangles(const Csr& csr) {
  std::vector<TriangleCount> counts(csr.num_vertices(), 0);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    const auto nv = csr.neighbors(v);
    for (const VertexId w : nv) {
      if (w <= v) continue;
      const auto nw = csr.neighbors(w);
      auto iv = std::upper_bound(nv.begin(), nv.end(), w);
      auto iw = std::upper_bound(nw.begin(), nw.end(), w);
      while (iv != nv.end() && iw != nw.end()) {
        if (*iv == *iw) {
          ++counts[v];
          ++counts[w];
          ++counts[*iv];
          ++iv;
          ++iw;
        } else if (*iv < *iw) {
          ++iv;
        } else {
          ++iw;
        }
      }
    }
  }
  return counts;
}

TriangleCount count_wedges(const Csr& csr) {
  TriangleCount wedges = 0;
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    const TriangleCount d = csr.degree(v);
    wedges += d * (d - 1) / 2;
  }
  return wedges;
}

double transitivity(const Csr& csr) {
  const TriangleCount wedges = count_wedges(csr);
  if (wedges == 0) return 0.0;
  const TriangleCount triangles = count_triangles_serial(csr);
  return 3.0 * static_cast<double>(triangles) / static_cast<double>(wedges);
}

double average_local_clustering(const Csr& csr) {
  if (csr.num_vertices() == 0) return 0.0;
  const auto tri = per_vertex_triangles(csr);
  double total = 0.0;
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    const TriangleCount d = csr.degree(v);
    if (d < 2) continue;
    const double possible = static_cast<double>(d) * static_cast<double>(d - 1) / 2.0;
    total += static_cast<double>(tri[v]) / possible;
  }
  return total / static_cast<double>(csr.num_vertices());
}

}  // namespace tricount::graph
