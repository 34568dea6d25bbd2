// The four intersection kernels and the per-row scratch state that makes
// them cheap to reuse.
//
// Call shape shared by every counting loop in the repo (2D Cannon, SUMMA,
// serial forward algorithm, 1D baselines): one "hashed" row is fixed and
// probed by many task rows. IntersectScratch::begin_row pins the hashed
// row; IntersectScratch::task then intersects it with one probe row using
// whatever kernel the policy selects, building the hash set or bitset
// lazily on the first task that needs it and reusing it for the rest of
// the row's tasks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tricount/graph/types.hpp"
#include "tricount/hashmap/hash_set.hpp"
#include "tricount/kernels/kernels.hpp"

namespace tricount::kernels {

using graph::TriangleCount;
using graph::VertexId;

/// Dense bitset over one sorted, duplicate-free row. Rebuilding clears
/// exactly the words the previous build set (tracked in a touched-word
/// list), so a reused bitmap can never leak stale bits between rows —
/// the invariant tests/kernels_test.cpp pins down.
class RowBitmap {
 public:
  /// Replaces the contents with `row` (ascending, duplicate-free).
  void build(std::span<const VertexId> row);

  /// Membership test; ids at or above universe() always miss.
  bool test(VertexId v) const {
    const std::size_t word = v >> 6;
    return word < words_.size() && ((words_[word] >> (v & 63)) & 1) != 0;
  }

  /// One past the largest id of the current row (0 when empty).
  VertexId universe() const { return universe_; }

 private:
  std::vector<std::uint64_t> words_;
  std::vector<std::uint32_t> touched_;
  VertexId universe_ = 0;
};

/// Sorted-merge intersection counting matches between two ascending lists.
TriangleCount merge_intersect(std::span<const VertexId> a,
                              std::span<const VertexId> b,
                              KernelCounters& counters);

/// Galloping (exponential + binary search) intersection: every needle is
/// located in `haystack` with a doubling jump from the previous match
/// position. Both lists ascending; pass the shorter list as `needles`.
TriangleCount galloping_intersect(std::span<const VertexId> needles,
                                  std::span<const VertexId> haystack,
                                  KernelCounters& counters);

/// Probes `probe` (ascending) against a built bitmap; stops at the first
/// id past the bitmap's universe (everything later misses too).
TriangleCount bitmap_intersect(const RowBitmap& bitmap,
                               std::span<const VertexId> probe,
                               KernelCounters& counters);

/// Probes `probe` against a built hash set. With `backward_early_exit`
/// (§5.2) the probe list is walked from the largest id down and the loop
/// breaks at the first id below `hashed_min` — every further lookup
/// would miss.
TriangleCount hash_intersect(const hashmap::VertexHashSet& set,
                             std::span<const VertexId> probe,
                             VertexId hashed_min, bool backward_early_exit,
                             KernelCounters& counters);

/// Reusable per-rank scratch: the hash set and bitmap for the currently
/// pinned hashed row, built lazily per row and cached across that row's
/// tasks. Debug builds assert that a cached structure always belongs to
/// the pinned row, so stale reuse across rows trips immediately.
class IntersectScratch {
 public:
  /// Sizes the hash table for the longest row this scratch will see.
  void reserve_for(std::size_t max_row_len) { hash_.reserve_for(max_row_len); }

  /// Pins `row` as the hashed side for subsequent task() calls and
  /// invalidates any structure built for the previous row. `allow_direct`
  /// is the §5.2 modified-hashing switch, forwarded to the hash build.
  void begin_row(std::span<const VertexId> row, bool allow_direct);

  /// Intersects the pinned row with `probe` using the kernel `policy`
  /// selects for this pair. Returns the number of matches.
  TriangleCount task(KernelPolicy policy, std::span<const VertexId> probe,
                     bool backward_early_exit, KernelCounters& counters);

  /// Like task() on the hash kernel, but also calls `on_match(k)` for
  /// every matched id: the per-vertex and per-edge tallies credit each
  /// closing vertex, so a count alone is not enough.
  template <class OnMatch>
  TriangleCount each_match(std::span<const VertexId> probe,
                           bool backward_early_exit, KernelCounters& counters,
                           OnMatch&& on_match) {
    if (row_.empty() || probe.empty()) return 0;
    const hashmap::VertexHashSet& set = hash(counters);
    TriangleCount hits = 0;
    for (std::size_t n = 0; n < probe.size(); ++n) {
      // §5.2 backward early exit: walk down from the largest id and stop
      // below the hashed row's minimum.
      const VertexId k =
          backward_early_exit ? probe[probe.size() - 1 - n] : probe[n];
      if (backward_early_exit && k < row_.front()) break;
      ++counters.lookups;
      if (set.contains(k)) {
        ++hits;
        on_match(k);
      }
    }
    counters.hits += hits;
    return hits;
  }

  std::uint64_t probes() const { return hash_.probes(); }
  void reset_probes() { hash_.reset_probes(); }

  /// Current hash-table capacity (live telemetry's scratch bytes).
  std::size_t hash_capacity() const { return hash_.capacity(); }

 private:
  const hashmap::VertexHashSet& hash(KernelCounters& counters);
  const RowBitmap& bitmap(KernelCounters& counters);

  hashmap::VertexHashSet hash_;
  RowBitmap bitmap_;
  std::span<const VertexId> row_;
  double row_density_ = 0.0;
  bool allow_direct_ = true;
  bool hash_built_ = false;
  bool bitmap_built_ = false;
#ifndef NDEBUG
  /// Identity of the row each cached structure was built from; the
  /// cleared-between-rows assertion compares against the pinned row.
  const VertexId* hash_row_data_ = nullptr;
  std::size_t hash_row_size_ = 0;
  const VertexId* bitmap_row_data_ = nullptr;
  std::size_t bitmap_row_size_ = 0;
#endif
};

}  // namespace tricount::kernels
