#include "tricount/core/dist_graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace tricount::core {

EdgeIndex LocalSlice::owned_edges() const {
  EdgeIndex count = 0;
  for (VertexId k = 0; k < owned(); ++k) {
    const VertexId v = begin + k;
    for (const VertexId u : adj[k]) {
      if (v < u) ++count;
    }
  }
  return count;
}

std::pair<VertexId, VertexId> block_range(VertexId n, int rank, int p) {
  const VertexId chunk = n / static_cast<VertexId>(p);
  const VertexId rem = n % static_cast<VertexId>(p);
  const auto r = static_cast<VertexId>(rank);
  const VertexId begin = r * chunk + std::min(r, rem);
  const VertexId end = begin + chunk + (r < rem ? 1 : 0);
  return {begin, end};
}

int block_owner(VertexId v, VertexId n, int p) {
  // Inverse of block_range: first `rem` blocks have chunk+1 vertices.
  const VertexId chunk = n / static_cast<VertexId>(p);
  const VertexId rem = n % static_cast<VertexId>(p);
  if (chunk == 0) return static_cast<int>(v);
  const VertexId big_span = rem * (chunk + 1);
  if (v < big_span) return static_cast<int>(v / (chunk + 1));
  return static_cast<int>(rem + (v - big_span) / chunk);
}

LocalSlice block_slice_from_edges(const graph::EdgeList& graph, int rank,
                                  int p) {
  LocalSlice slice;
  slice.num_vertices = graph.num_vertices;
  std::tie(slice.begin, slice.end) = block_range(graph.num_vertices, rank, p);
  const VertexId begin = slice.begin;
  const VertexId end = slice.end;
  slice.adj = Adjacency::build(slice.owned(), [&](auto&& emit) {
    for (const graph::Edge& e : graph.edges) {
      if (e.u == e.v) continue;
      if (e.u >= begin && e.u < end) emit(e.u - begin, e.v);
      if (e.v >= begin && e.v < end) emit(e.v - begin, e.u);
    }
  });
  // Edges sorted by (u, v), u < v, fill row v with its lower neighbours
  // and then its higher ones, both ascending, so a simplified list
  // leaves nothing to sort.
  slice.adj.sort_rows();
  return slice;
}

LocalSlice block_slice_from_csr(const graph::Csr& csr, int rank, int p) {
  LocalSlice slice;
  slice.num_vertices = csr.num_vertices();
  std::tie(slice.begin, slice.end) = block_range(csr.num_vertices(), rank, p);
  const auto xadj = csr.xadj().begin();
  const EdgeIndex first = xadj[slice.begin];
  slice.adj.offsets.assign(xadj + slice.begin, xadj + slice.end + 1);
  for (EdgeIndex& at : slice.adj.offsets) at -= first;
  const auto ids = csr.adj().begin();
  slice.adj.ids.assign(ids + static_cast<std::ptrdiff_t>(first),
                       ids + static_cast<std::ptrdiff_t>(xadj[slice.end]));
  return slice;
}

LocalSlice block_slice_from_rmat(mpisim::Comm& comm,
                                 const graph::RmatParams& params) {
  const int p = comm.size();
  const VertexId n = params.num_vertices();
  const EdgeIndex slots = params.num_edge_slots();
  const EdgeIndex begin =
      slots * static_cast<EdgeIndex>(comm.rank()) / static_cast<EdgeIndex>(p);
  const EdgeIndex end = slots * static_cast<EdgeIndex>(comm.rank() + 1) /
                        static_cast<EdgeIndex>(p);
  const std::vector<graph::Edge> generated =
      graph::rmat_edge_slice(params, begin, end);

  // Route each endpoint's (vertex, neighbour) record to the block owner.
  std::vector<std::vector<VertexId>> outgoing(static_cast<std::size_t>(p));
  for (const graph::Edge& e : generated) {
    if (e.u == e.v) continue;  // self-loops never make it into the graph
    const auto to_u = static_cast<std::size_t>(block_owner(e.u, n, p));
    const auto to_v = static_cast<std::size_t>(block_owner(e.v, n, p));
    outgoing[to_u].push_back(e.u);
    outgoing[to_u].push_back(e.v);
    outgoing[to_v].push_back(e.v);
    outgoing[to_v].push_back(e.u);
  }
  const auto incoming = mpisim::alltoallv(comm, outgoing);

  LocalSlice slice;
  slice.num_vertices = n;
  std::tie(slice.begin, slice.end) = block_range(n, comm.rank(), p);
  for (const auto& bucket : incoming) {
    if (bucket.size() % 2 != 0) {
      throw std::runtime_error("rmat routing: odd record stream");
    }
  }
  slice.adj = Adjacency::build(slice.owned(), [&](auto&& emit) {
    for (const auto& bucket : incoming) {
      for (std::size_t i = 0; i < bucket.size(); i += 2) {
        emit(bucket[i] - slice.begin, bucket[i + 1]);
      }
    }
  });
  // Generation is a multigraph stream; deduplicate per list. Both
  // endpoints' owners see the identical multiset for an edge, so the
  // deduplicated graph is globally consistent.
  slice.adj.sort_rows();
  return slice;
}

CyclicSlice cyclic_redistribute(mpisim::Comm& comm, const LocalSlice& input) {
  const int p = comm.size();
  const auto pv = static_cast<VertexId>(p);
  std::vector<std::size_t> words(static_cast<std::size_t>(p), 0);
  for (VertexId k = 0; k < input.owned(); ++k) {
    words[(input.begin + k) % pv] += 2 + input.adj[k].size();
  }
  std::vector<std::vector<VertexId>> outgoing(static_cast<std::size_t>(p));
  for (std::size_t r = 0; r < outgoing.size(); ++r) {
    outgoing[r].reserve(words[r]);
  }
  for (VertexId k = 0; k < input.owned(); ++k) {
    const VertexId v = input.begin + k;
    append_record(outgoing[v % pv], v, input.adj[k]);
  }
  const auto incoming = mpisim::alltoallv(comm, outgoing);

  CyclicSlice slice;
  slice.num_vertices = input.num_vertices;
  slice.rank = comm.rank();
  slice.p = p;
  const VertexId rows = cyclic_row_count(input.num_vertices, p, comm.rank());
  slice.adj = unpack_records(
      rows, incoming, "cyclic redistribute", [&](VertexId v, VertexId) {
        return v % pv == static_cast<VertexId>(comm.rank()) ? v / pv : rows;
      });
  return slice;
}

}  // namespace tricount::core
