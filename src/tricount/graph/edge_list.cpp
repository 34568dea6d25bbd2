#include "tricount/graph/edge_list.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "tricount/graph/edge_sort.hpp"

namespace tricount::graph {
namespace detail {
namespace {

/// Buckets smaller than this are insertion-sorted instead of split again.
constexpr std::size_t kInsertionCutoff = 64;

/// simplify and relabel start one worker per 2^kEdgesPerWorkerLog2 edges.
constexpr int kEdgesPerWorkerLog2 = 16;

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

/// Runs body(w) for every w in [0, workers): worker 0 on the caller, the
/// others on threads of their own. A worker whose thread cannot be
/// started runs on the caller too. Once every worker has finished,
/// rethrows the lowest-numbered worker's exception on the caller.
template <typename Body>
void run_workers(unsigned workers, const Body& body) {
  std::vector<std::exception_ptr> errors(workers);
  const auto guarded = [&](unsigned w) {
    try {
      body(w);
    } catch (...) {
      errors[w] = std::current_exception();
    }
  };
  std::vector<std::thread> threads(workers - 1);
  for (unsigned w = 1; w < workers; ++w) {
    try {
      threads[w - 1] = std::thread(guarded, w);
    } catch (const std::exception&) {
      // std::system_error, or no memory for the thread's state: its
      // share runs on the caller below.
    }
  }
  guarded(0);
  for (unsigned w = 1; w < workers; ++w) {
    if (!threads[w - 1].joinable()) guarded(w);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

/// One worker's share of a round: [head[d], end[d]) of each bucket d.
struct Stripes {
  std::array<std::size_t, 256> head{};
  std::array<std::size_t, 256> end{};
};

/// PARADIS's speculative permutation of one worker's stripes: cycles each
/// edge into its digit's stripe while that stripe has room. Leaves every
/// stripe as its placed edges, then [head, end): edges whose digit's
/// stripe filled first.
void permute_stripes(Edge* a, Stripes& s, TopDigit digit) {
  for (unsigned d = 0; d < 256; ++d) {
    for (std::size_t i = s.head[d]; i < s.end[d]; ++i) {
      Edge e = a[i];
      unsigned k = digit(e);
      while (k != d && s.head[k] < s.end[k]) {
        std::swap(e, a[s.head[k]++]);
        k = digit(e);
      }
      if (k == d) {
        a[i] = a[s.head[d]];
        a[s.head[d]++] = e;
      } else {
        a[i] = e;
      }
    }
  }
}

/// Packs the edges of the sorted run [first, last) that are neither
/// self-loops nor repeats at its front; returns how many it kept.
std::size_t pack_distinct(Edge* first, Edge* last) {
  Edge* out = first;
  for (const Edge* e = first; e < last; ++e) {
    if (e->u != e->v && (out == first || out[-1] != *e)) *out++ = *e;
  }
  return static_cast<std::size_t>(out - first);
}

/// The workers a list of `edges` edges sorts on: one per
/// 2^kEdgesPerWorkerLog2, at least one, at most one per hardware thread.
unsigned sort_workers(std::size_t edges) {
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(
      std::clamp<std::size_t>(edges >> kEdgesPerWorkerLog2, 1, cores));
}

}  // namespace

void permute_to_buckets(std::span<Edge> edges, const BucketBounds& bounds,
                        TopDigit digit, unsigned workers) {
  workers = std::max(workers, 1u);
  Edge* const a = edges.data();
  std::array<std::size_t, 256> head{};  // each bucket's first unplaced slot
  std::copy_n(bounds.begin(), 256, head.begin());
  std::vector<Stripes> stripes(workers);
  std::size_t unplaced = edges.size();
  unsigned round_workers = workers;
  while (unplaced > 0) {
    for (unsigned w = 0; w < round_workers; ++w) {
      for (unsigned d = 0; d < 256; ++d) {
        const std::size_t left = bounds[d + 1] - head[d];
        stripes[w].head[d] = head[d] + left * w / round_workers;
        stripes[w].end[d] = head[d] + left * (w + 1) / round_workers;
      }
    }
    run_workers(round_workers,
                [&](unsigned w) { permute_stripes(a, stripes[w], digit); });
    if (round_workers == 1) break;  // one worker places every edge

    // Repair: the placed edges of each bucket's remainder move to its
    // front. Worker 0's already lead it.
    std::atomic<unsigned> next{0};
    run_workers(round_workers, [&](unsigned) {
      for (unsigned d; (d = next.fetch_add(1, std::memory_order_relaxed)) <
                       256;) {
        const auto placed = [&](const Edge& e) { return digit(e) == d; };
        head[d] = static_cast<std::size_t>(
            std::partition(a + stripes[0].head[d], a + bounds[d + 1],
                           placed) -
            a);
      }
    });
    std::size_t left = 0;
    for (unsigned d = 0; d < 256; ++d) left += bounds[d + 1] - head[d];
    round_workers = 2 * left > unplaced ? 1 : workers;
    unplaced = left;
  }
}

void sort_edges(std::vector<Edge>& edges, VertexId num_vertices,
                bool drop_repeats, unsigned workers) {
  workers = std::max(workers, 1u);
  const int bits =
      std::max(1, static_cast<int>(std::bit_width(
                          num_vertices > 0 ? num_vertices - 1 : 0u)));
  const TopDigit digit{PackedKey{bits}, std::max(2 * bits - 8, 0)};
  const std::size_t m = edges.size();
  Edge* const a = edges.data();

  // Orient, range-check and count the top digits, a chunk per worker.
  std::vector<std::array<std::size_t, 256>> counts(workers);
  run_workers(workers, [&](unsigned w) {
    std::array<std::size_t, 256>& count = counts[w];
    Edge* const last = a + m * (w + 1) / workers;
    for (Edge* e = a + m * w / workers; e < last; ++e) {
      *e = Edge{std::min(e->u, e->v), std::max(e->u, e->v)};
      if (e->v >= num_vertices) {
        throw std::out_of_range("simplify: edge endpoint out of range");
      }
      ++count[digit(*e)];
    }
  });
  BucketBounds bounds{};
  for (unsigned d = 0; d < 256; ++d) {
    bounds[d + 1] = bounds[d];
    for (const auto& count : counts) bounds[d + 1] += count[d];
  }
  permute_to_buckets(edges, bounds, digit, workers);

  // Sort each bucket below its digit, largest first, and with
  // drop_repeats pack its distinct edges at its front.
  std::array<unsigned, 256> order{};
  std::iota(order.begin(), order.end(), 0u);
  const auto size = [&](unsigned d) { return bounds[d + 1] - bounds[d]; };
  std::sort(order.begin(), order.end(),
            [&](unsigned x, unsigned y) { return size(x) > size(y); });
  std::array<std::size_t, 256> kept{};
  std::atomic<unsigned> next{0};
  run_workers(workers, [&](unsigned) {
    for (unsigned i; (i = next.fetch_add(1, std::memory_order_relaxed)) <
                     256;) {
      const unsigned d = order[i];
      Edge* const first = a + bounds[d];
      Edge* const last = a + bounds[d + 1];
      if (size(d) > 1) flag_sort(first, last, digit.shift, digit.key);
      if (drop_repeats) kept[d] = pack_distinct(first, last);
    }
  });
  if (!drop_repeats) return;
  std::size_t out = 0;  // the buckets' kept edges move down, in order
  for (unsigned d = 0; d < 256; ++d) {
    if (out != bounds[d]) std::copy_n(a + bounds[d], kept[d], a + out);
    out += kept[d];
  }
  edges.resize(out);
}

}  // namespace detail

EdgeList simplify(EdgeList graph) {
  detail::sort_edges(graph.edges, graph.num_vertices, /*drop_repeats=*/true,
                     detail::sort_workers(graph.edges.size()));
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
  detail::sort_edges(out.edges, out.num_vertices, /*drop_repeats=*/false,
                     detail::sort_workers(out.edges.size()));
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
