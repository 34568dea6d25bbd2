// Adjacency: one rank's rows as a single flat CSR, the form every §5.3
// preprocessing stage hands to the next (dist_graph.hpp, preprocess.hpp),
// plus the routing record the stages exchange whole rows in, and the same
// flat layout for the rows a rank pulls from other ranks as ghosts.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "tricount/graph/types.hpp"

namespace tricount::core {

using graph::EdgeIndex;
using graph::VertexId;

/// Rows as one flat CSR: row k is ids[offsets[k], offsets[k + 1]).
struct Adjacency {
  std::vector<EdgeIndex> offsets{0};
  std::vector<VertexId> ids;

  /// Number of rows.
  std::size_t size() const { return offsets.size() - 1; }

  std::span<const VertexId> operator[](std::size_t row) const {
    return {ids.data() + offsets[row], ids.data() + offsets[row + 1]};
  }

  /// Builds `rows` rows from a generator it runs twice, a count pass and a
  /// place pass: each(emit) must call emit(row, id) for the same entries in
  /// the same order both times. Every row keeps its entries in emission
  /// order. Throws std::out_of_range for a row >= rows.
  template <typename Each>
  static Adjacency build(std::size_t rows, Each&& each) {
    Adjacency adj;
    adj.offsets.assign(rows + 1, 0);
    each([&](std::size_t row, VertexId) {
      if (row >= rows) throw std::out_of_range("Adjacency: row out of range");
      ++adj.offsets[row + 1];
    });
    for (std::size_t r = 0; r < rows; ++r) adj.offsets[r + 1] += adj.offsets[r];
    adj.ids.resize(adj.offsets.back());
    std::vector<EdgeIndex> cursor(adj.offsets.begin(), adj.offsets.end() - 1);
    each([&](std::size_t row, VertexId id) { adj.ids[cursor[row]++] = id; });
    return adj;
  }

  /// Sorts ascending and deduplicates every row that does not already
  /// strictly ascend, compacting ids and offsets in place. A row that
  /// strictly ascends is only moved.
  void sort_rows();

  /// The arrays' footprint, not an exact allocator tally.
  std::uint64_t heap_bytes() const {
    return offsets.size() * sizeof(EdgeIndex) + ids.size() * sizeof(VertexId);
  }

  friend bool operator==(const Adjacency&, const Adjacency&) = default;
};

/// Rows held for a sparse set of vertex ids, such as the rows a rank pulls
/// from their owners as ghosts: row k belongs to keys[k], and the keys
/// strictly ascend.
struct GhostRows {
  std::vector<VertexId> keys;
  Adjacency rows;

  /// Number of rows.
  std::size_t size() const { return keys.size(); }

  /// The row of `key`, by binary search over the keys. Throws
  /// std::out_of_range when no row is held for it.
  std::span<const VertexId> at(VertexId key) const;

  std::uint64_t heap_bytes() const {
    return keys.size() * sizeof(VertexId) + rows.heap_bytes();
  }
};

/// Appends `row` to a routing bucket as the record [key, length, ids...].
void append_record(std::vector<VertexId>& bucket, VertexId key,
                   std::span<const VertexId> row);

/// Unpacks the routing records in every received bucket into `rows` rows,
/// copying each record's ids as one run. row_of(key, length) names the row
/// a record fills, and a result >= rows rejects the record. Throws
/// std::runtime_error "<context>: misrouted vertex" for a rejected record or
/// a row two records fill, and "<context>: truncated record" for a record
/// that runs past its bucket. Rows that no record fills stay empty.
template <typename RowOf>
Adjacency unpack_records(std::size_t rows,
                         const std::vector<std::vector<VertexId>>& buckets,
                         const char* context, RowOf&& row_of) {
  auto fail = [context](const char* what) {
    throw std::runtime_error(std::string(context) + what);
  };
  // offsets[row + 1] holds the row's length until the prefix sum.
  constexpr EdgeIndex kUnfilled = ~EdgeIndex{0};
  Adjacency adj;
  adj.offsets.assign(rows + 1, kUnfilled);
  adj.offsets[0] = 0;
  for (const auto& bucket : buckets) {
    for (std::size_t at = 0; at < bucket.size();) {
      if (bucket.size() - at < 2 || bucket.size() - at - 2 < bucket[at + 1]) {
        fail(": truncated record");
      }
      const VertexId length = bucket[at + 1];
      const std::size_t row = row_of(bucket[at], length);
      if (row >= rows || adj.offsets[row + 1] != kUnfilled) {
        fail(": misrouted vertex");
      }
      adj.offsets[row + 1] = length;
      at += 2 + static_cast<std::size_t>(length);
    }
  }
  for (std::size_t r = 0; r < rows; ++r) {
    if (adj.offsets[r + 1] == kUnfilled) adj.offsets[r + 1] = 0;
    adj.offsets[r + 1] += adj.offsets[r];
  }
  adj.ids.resize(adj.offsets.back());
  for (const auto& bucket : buckets) {
    for (std::size_t at = 0; at < bucket.size();) {
      const VertexId length = bucket[at + 1];
      const auto run = bucket.begin() + static_cast<std::ptrdiff_t>(at + 2);
      std::copy(run, run + length,
                adj.ids.begin() + static_cast<std::ptrdiff_t>(
                                      adj.offsets[row_of(bucket[at], length)]));
      at += 2 + static_cast<std::size_t>(length);
    }
  }
  return adj;
}

/// Unpacks the routing records that answer a row pull into GhostRows, in
/// one pass: bucket s holds rank s's replies to requests[s], which
/// ascends. Owners hold ascending id ranges and answer their requests in
/// order, so the records arrive in id order. Throws std::runtime_error
/// "<context>: truncated record" as unpack_records does, "<context>:
/// ghost ids out of order" for an id not above the one before it, and
/// "<context>: unrequested ghost" for an id requests[s] does not hold;
/// std::invalid_argument when the request lists and buckets differ in
/// number.
GhostRows unpack_ghosts(const std::vector<std::vector<VertexId>>& requests,
                        const std::vector<std::vector<VertexId>>& buckets,
                        const char* context);

}  // namespace tricount::core
