#include "tricount/cetric/partition.hpp"

#include <algorithm>
#include <stdexcept>

#include "tricount/core/preprocess.hpp"
#include "tricount/mpisim/collectives.hpp"

namespace tricount::cetric {

int Partition::owner(VertexId v) const {
  // First boundary strictly greater than v, skipping boundaries[0]:
  // empty ranges collapse to repeated boundary values and the upper
  // bound lands past all of them.
  const auto it = std::upper_bound(boundaries.begin() + 1, boundaries.end(), v);
  return static_cast<int>(it - (boundaries.begin() + 1));
}

namespace {

/// What one kernel task costs beyond its lookups, in lookups. Each entry
/// of Adj+(v) opens at most one wedge, and each wedge is one kernel task
/// with a fixed cost that a short tail's few lookups do not pay back.
/// 64 is the smallest weight on the plateau of docs/cetric.md's sweep;
/// larger ones cut more wedges and speed no rank beyond the runs' noise.
constexpr std::uint64_t kTaskWeight = 64;

/// A vertex's split weight: 1 + kTaskWeight·deg+ + C(deg+, 2), the row
/// itself, a task per wedge it generates, and the wedges' tails.
std::uint64_t tail_work(VertexId deg_plus) {
  const auto d = static_cast<std::uint64_t>(deg_plus);
  return 1 + kTaskWeight * d + d * (d - 1) / 2;
}

}  // namespace

std::vector<VertexId> degree_aware_boundaries(
    const std::vector<VertexId>& deg_plus, int p) {
  const auto n = static_cast<VertexId>(deg_plus.size());
  std::vector<VertexId> boundaries(static_cast<std::size_t>(p) + 1, n);
  boundaries[0] = 0;
  std::uint64_t total = 0;
  for (const VertexId d : deg_plus) total += tail_work(d);
  std::uint64_t prefix = 0;
  VertexId v = 0;
  for (int r = 1; r < p; ++r) {
    const std::uint64_t target =
        total * static_cast<std::uint64_t>(r) / static_cast<std::uint64_t>(p);
    while (v < n && prefix < target) {
      prefix += tail_work(deg_plus[v]);
      ++v;
    }
    boundaries[static_cast<std::size_t>(r)] = v;
  }
  return boundaries;
}

CetricGraph build_cetric_graph(mpisim::Comm& comm, core::LocalSlice input) {
  const int p = comm.size();
  const core::RelabeledSlice relabeled = [&] {
    const core::CyclicSlice cyclic = core::cyclic_redistribute(comm, input);
    input = core::LocalSlice{};
    return core::degree_relabel(comm, cyclic);
  }();
  const VertexId n = relabeled.num_vertices;

  // Adj+(w) is the suffix of w's row above w (rows ascend in new ids, and
  // w is not in its own row). Every rank needs the (new id, deg+) pairs
  // for the replicated oracle.
  const std::size_t rows = relabeled.adj.size();
  auto plus_of = [&](std::size_t k) {
    const auto row = relabeled.adj[k];
    const auto above =
        std::upper_bound(row.begin(), row.end(), relabeled.new_ids[k]);
    return row.subspan(static_cast<std::size_t>(above - row.begin()));
  };
  std::vector<VertexId> pairs;
  pairs.reserve(rows * 2);
  for (std::size_t k = 0; k < rows; ++k) {
    pairs.push_back(relabeled.new_ids[k]);
    pairs.push_back(static_cast<VertexId>(plus_of(k).size()));
  }
  const auto all_pairs = mpisim::allgatherv(comm, pairs);

  CetricGraph g;
  g.deg_plus.assign(n, 0);
  for (const auto& bucket : all_pairs) {
    for (std::size_t i = 0; i + 1 < bucket.size(); i += 2) {
      g.deg_plus[bucket[i]] = bucket[i + 1];
    }
  }
  for (const VertexId d : g.deg_plus) {
    g.num_edges += static_cast<EdgeIndex>(d);  // each edge once, as u->v
  }

  g.part.num_vertices = n;
  g.part.p = p;
  g.part.rank = comm.rank();
  g.part.boundaries = degree_aware_boundaries(g.deg_plus, p);

  // Route every Adj+ list to the boundary owner of its row id as a
  // routing record, the encoding shared with build_dag_1d.
  std::vector<std::vector<VertexId>> outgoing(static_cast<std::size_t>(p));
  for (std::size_t k = 0; k < rows; ++k) {
    const VertexId w = relabeled.new_ids[k];
    const auto plus = plus_of(k);
    core::append_record(outgoing[static_cast<std::size_t>(g.part.owner(w))],
                        w, plus);
    g.routed_entries += plus.size();
  }
  const auto incoming = mpisim::alltoallv(comm, outgoing);

  const VertexId owned = g.part.owned();
  g.adj_plus = core::unpack_records(
      owned, incoming, "build_cetric_graph", [&](VertexId w, VertexId len) {
        if (!g.part.owns(w)) return owned;
        if (len != g.deg_plus[w]) {
          throw std::runtime_error(
              "build_cetric_graph: Adj+ length disagrees with deg+");
        }
        return w - g.part.begin();
      });
  return g;
}

}  // namespace tricount::cetric
