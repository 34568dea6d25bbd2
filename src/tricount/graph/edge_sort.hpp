// The parallel in-place radix sort behind `simplify` and `relabel`.
//
// Internal to graph/edge_list.cpp: callers use simplify() and relabel(),
// which pick the worker count themselves. This header exists so the tests
// and the micro-benchmark can run the sort and its bucket permutation at
// explicit worker counts.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tricount/graph/types.hpp"

namespace tricount::graph::detail {

/// The packed sort key (u << bits) | v. With both endpoints below
/// 2^bits, key order is (u, v) order.
struct PackedKey {
  int bits = 1;

  std::uint64_t operator()(const Edge& e) const {
    return (std::uint64_t{e.u} << bits) | e.v;
  }
};

/// An edge's top radix digit: its packed key shifted right by `shift`.
/// With shift = max(2 * bits - 8, 0) the digit is below 256.
struct TopDigit {
  PackedKey key;
  int shift = 0;

  unsigned operator()(const Edge& e) const {
    return static_cast<unsigned>(key(e) >> shift);
  }
};

/// Bucket d is [bounds[d], bounds[d + 1]).
using BucketBounds = std::array<std::size_t, 257>;

/// Moves every edge into its digit's bucket, in place, on `workers`
/// workers (the caller is worker 0). Bucket d must be as long as the
/// number of edges whose digit is d. Each round splits every bucket's
/// unplaced remainder into one stripe per worker, and a worker cycles
/// edges only inside its own stripes (PARADIS, Cho et al., VLDB 2015);
/// then each remainder is partitioned so its placed edges lead. A round
/// that fails to halve the remainder is followed by a one-worker round,
/// which places every edge.
void permute_to_buckets(std::span<Edge> edges, const BucketBounds& bounds,
                        TopDigit digit, unsigned workers);

/// Orients every edge as (min, max) and sorts the list by (u, v) in place
/// on `workers` workers; with `drop_repeats`, also drops self-loops and
/// repeated edges. Allocates no buffer the size of the list. Throws
/// std::out_of_range, on the caller, if an endpoint is not below
/// `num_vertices`.
void sort_edges(std::vector<Edge>& edges, VertexId num_vertices,
                bool drop_repeats, unsigned workers);

}  // namespace tricount::graph::detail
