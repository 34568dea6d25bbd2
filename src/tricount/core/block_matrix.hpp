// BlockCsr: the per-processor storage for one 2D-cyclic block of U, L, or
// the task matrix (paper §5.1, §5.2).
//
// Under the cyclic distribution, rank row x owns matrix rows {x, x+q,
// x+2q, ...}; a row's local index is its global id ÷ q (the paper's
// "transformed index v ÷ √p"). Column ids are stored transformed the same
// way (global ÷ q): within one block every column id is congruent to the
// block's column-block index mod q, so the transform is a bijection and
// set intersection on transformed ids is equivalent to intersection on
// global ids — while making hash keys dense (crucial for the masked
// hashing routine) and halving comparisons.
//
// The structure is doubly-compressed (Buluç & Gilbert): alongside the CSR
// arrays it keeps the list of non-empty local rows, which the §5.2
// "doubly sparse traversal" iterates instead of all n/q rows.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "tricount/core/adjacency.hpp"
#include "tricount/graph/types.hpp"
#include "tricount/util/blob.hpp"

namespace tricount::core {

using graph::VertexId;

/// One (row, col) non-zero in local (transformed) coordinates.
struct LocalEntry {
  VertexId row = 0;  ///< global id ÷ q
  VertexId col = 0;  ///< global id ÷ q

  friend bool operator==(const LocalEntry&, const LocalEntry&) = default;
  friend auto operator<=>(const LocalEntry&, const LocalEntry&) = default;
};

/// Number of global row ids in [0, n) congruent to `residue` mod q.
VertexId cyclic_row_count(VertexId n, int q, int residue);

class BlockCsr {
 public:
  BlockCsr() = default;

  /// Builds from a generator it runs twice, as Adjacency::build does:
  /// each(emit) must call emit(row, col) for the same entries in the same
  /// order both times. Rows outside [0, num_local_rows) are an error. A
  /// row whose entries arrive strictly ascending is kept as it arrives;
  /// any other row is sorted ascending and deduplicated.
  template <typename Each>
  static BlockCsr build(VertexId num_local_rows, Each&& each) {
    Adjacency rows = Adjacency::build(num_local_rows, std::forward<Each>(each));
    return from_rows(num_local_rows, std::move(rows));
  }
  /// The same, from entries split over any number of buckets (an
  /// alltoallv's received buckets), taken in order.
  static BlockCsr from_entries(
      VertexId num_local_rows,
      std::span<const std::vector<LocalEntry>> buckets);
  /// The same, from one bucket.
  static BlockCsr from_entries(VertexId num_local_rows,
                               const std::vector<LocalEntry>& entries) {
    return from_entries(num_local_rows, {&entries, 1});
  }

  /// Removes `removed` and adds `added` (any order) in one linear merge
  /// that rewrites xadj, adj and the nonempty row list; untouched runs of
  /// rows are copied whole. Throws std::invalid_argument when a removed
  /// entry is absent or an added one is present or repeated, and
  /// std::out_of_range for a row outside the block; the block is then
  /// unchanged.
  void patch(std::vector<LocalEntry> removed, std::vector<LocalEntry> added);

  VertexId num_local_rows() const { return num_local_rows_; }
  std::uint64_t num_entries() const { return adj_.size(); }

  std::span<const VertexId> row(VertexId local_row) const {
    return {adj_.data() + xadj_[local_row], adj_.data() + xadj_[local_row + 1]};
  }

  VertexId row_degree(VertexId local_row) const {
    return static_cast<VertexId>(xadj_[local_row + 1] - xadj_[local_row]);
  }

  /// Local row ids with at least one entry (the DCSR row list).
  const std::vector<VertexId>& nonempty() const { return nonempty_; }

  const std::vector<std::uint64_t>& xadj() const { return xadj_; }
  const std::vector<VertexId>& adj() const { return adj_; }

  /// Largest row degree (used to size the intersection hash map once).
  VertexId max_row_degree() const;

  /// Approximate heap footprint — the CSR arrays, not an exact allocator
  /// tally — for the memory gauges.
  std::uint64_t heap_bytes() const {
    return xadj_.size() * sizeof(std::uint64_t) +
           (adj_.size() + nonempty_.size()) * sizeof(VertexId);
  }

  /// §5.2 blob form: one contiguous byte buffer containing all arrays.
  std::vector<std::byte> to_blob() const;
  static BlockCsr from_blob(std::span<const std::byte> blob);

  /// Structural invariants (monotone xadj, sorted rows, consistent
  /// nonempty list). Throws std::runtime_error on violation.
  void validate() const;

  friend bool operator==(const BlockCsr&, const BlockCsr&) = default;

 private:
  /// Takes built rows: sorts the rows that need it, then lists the
  /// nonempty ones.
  static BlockCsr from_rows(VertexId num_local_rows, Adjacency rows);

  VertexId num_local_rows_ = 0;
  std::vector<std::uint64_t> xadj_{0};
  std::vector<VertexId> adj_;
  std::vector<VertexId> nonempty_;
};

}  // namespace tricount::core
