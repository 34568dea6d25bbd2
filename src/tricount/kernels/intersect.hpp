// The four intersection kernels and the per-row scratch state that makes
// them cheap to reuse.
//
// Call shape shared by every counting loop in the repo (2D Cannon, SUMMA,
// serial forward algorithm, 1D baselines, cetric, the stream's delta
// pass): one "hashed" row is fixed and probed by many task rows.
// IntersectScratch::intersect_row pins the hashed row and runs every
// probe a caller's generator emits against it, choosing the kernel per
// probe, building the hash set or bitset lazily on the first probe that
// needs it and reusing it for the rest of the row. The bitmap probe runs
// inline for short probes and eight ids per AVX2 step for long ones.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
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
    const std::size_t word = v >> 5;
    return word < words_.size() && ((words_[word] >> (v & 31)) & 1) != 0;
  }

  /// One past the largest id of the current row (0 when empty).
  VertexId universe() const { return universe_; }

  /// The raw 32-bit words, for probes that never index at or past
  /// universe(): word v >> 5 holds id v at bit v & 31 (the width of the
  /// SIMD probe's gather).
  const std::uint32_t* words() const { return words_.data(); }

 private:
  std::vector<std::uint32_t> words_;
  std::vector<std::uint32_t> touched_;
  VertexId universe_ = 0;
};

/// What one bitmap probe found: its hits, its tests (the probe ids it
/// looked up, those in [min, universe) under the clip and below the
/// universe without it), and whether the §5.2 clip skipped ids below the
/// pinned row's min.
struct BitmapProbe {
  std::uint64_t hits = 0;
  std::uint64_t tests = 0;
  bool clipped = false;
  bool operator==(const BitmapProbe&) const = default;
};

/// Probes shorter than this run the scalar loop, longer ones the SIMD
/// probe. `BM_BitmapProbeLength` (bench/bench_micro_kernels.cpp,
/// docs/kernels.md) is the sweep behind it: below 16 ids the SIMD
/// probe's set-up costs more than the ids it saves.
inline constexpr std::size_t kSimdProbeFloor = 16;

/// The scalar bitmap probe: with `clip` (§5.2) a binary search skips the
/// probe ids below `min`, and the loop stops at the first id at or past
/// the universe (the probe ascends, so every later id misses too). The
/// fallback on CPUs without AVX2 and the reference for the SIMD probe.
inline BitmapProbe bitmap_probe_scalar(const RowBitmap& bitmap,
                                       std::span<const VertexId> probe,
                                       VertexId min, bool clip) {
  BitmapProbe out;
  const VertexId* first = probe.data();
  const VertexId* const last = first + probe.size();
  if (clip && first != last && *first < min) {
    first = std::lower_bound(first, last, min);
    out.clipped = true;
  }
  const std::uint32_t* const words = bitmap.words();
  const VertexId universe = bitmap.universe();
  std::uint64_t hits = 0;
  const VertexId* at = first;
  for (; at != last && *at < universe; ++at) {
    hits += (words[*at >> 5] >> (*at & 31)) & 1;
  }
  out.hits = hits;
  out.tests = static_cast<std::uint64_t>(at - first);
  return out;
}

/// True when this CPU runs the AVX2 probe (checked once per process;
/// always false on non-x86 builds).
bool simd_probe_supported();

/// The SIMD bitmap probe: eight ids per AVX2 step — a load of the ids
/// (masked on the last, partial step), an in-range mask for
/// [min, universe) (min is 0 without `clip`) in place of the scalar
/// clip's binary search, a gather of the in-range lanes' words, a
/// variable shift, and per-lane counts of the hit and in-range lanes —
/// stopping after the first step that holds an id at or past the
/// universe. Returns what bitmap_probe_scalar returns on the same input.
/// Runs the scalar loop when !simd_probe_supported().
BitmapProbe bitmap_probe_simd(const RowBitmap& bitmap,
                              std::span<const VertexId> probe, VertexId min,
                              bool clip);

/// The bitmap kernel's probe: scalar below kSimdProbeFloor ids, SIMD at
/// or above it.
inline BitmapProbe bitmap_probe(const RowBitmap& bitmap,
                                std::span<const VertexId> probe, VertexId min,
                                bool clip) {
  return probe.size() < kSimdProbeFloor
             ? bitmap_probe_scalar(bitmap, probe, min, clip)
             : bitmap_probe_simd(bitmap, probe, min, clip);
}

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
/// probes. Debug builds assert that a cached structure always belongs to
/// the pinned row, so stale reuse across rows trips immediately.
class IntersectScratch {
 public:
  /// Sizes the hash table for the longest row this scratch will see.
  void reserve_for(std::size_t max_row_len) { hash_.reserve_for(max_row_len); }

  /// Pins `row` as the hashed side for subsequent task() and each_match()
  /// calls and invalidates any structure built for the previous row.
  /// `allow_direct` is the §5.2 modified-hashing switch, forwarded to the
  /// hash build.
  void begin_row(std::span<const VertexId> row, bool allow_direct) {
    row_ = row;
    allow_direct_ = allow_direct;
    hash_built_ = false;
    bitmap_built_ = false;
  }

  /// The row call: pins `row` (as begin_row) and intersects it with every
  /// probe that `probes` emits — `probes(emit)` calls `emit(probe)` once
  /// per task — using the kernel `policy` selects for each pair. Returns
  /// the number of matches. Counts one `intersection_tasks` per emitted
  /// probe, empty ones included (an empty side runs no kernel). The
  /// bitmap kernel runs inline and its counters are tallied in locals and
  /// added once per row; galloping, hash, merge and the SIMD probe run
  /// out of line and add theirs once per call.
  template <class Probes>
  TriangleCount intersect_row(KernelPolicy policy,
                              std::span<const VertexId> row,
                              bool allow_direct, bool backward_early_exit,
                              KernelCounters& counters, Probes&& probes) {
    begin_row(row, allow_direct);
    return intersect_pinned(policy, backward_early_exit, counters,
                            std::forward<Probes>(probes));
  }

  /// One probe of the row pinned by begin_row: the row call's body run
  /// for a single task, so a row call can be checked against its tasks.
  TriangleCount task(KernelPolicy policy, std::span<const VertexId> probe,
                     bool backward_early_exit, KernelCounters& counters) {
    return intersect_pinned(policy, backward_early_exit, counters,
                            [&](auto&& emit) { emit(probe); });
  }

  /// Like one probe of intersect_row() on the hash kernel, but also calls
  /// `on_match(k)` for every matched id: the per-vertex and per-edge
  /// tallies credit each closing vertex, so a count alone is not enough.
  /// Counts as hash_intersect does.
  template <class OnMatch>
  TriangleCount each_match(std::span<const VertexId> probe,
                           bool backward_early_exit, KernelCounters& counters,
                           OnMatch&& on_match) {
    if (row_.empty() || probe.empty()) return 0;
    const hashmap::VertexHashSet& set = hash(counters);
    TriangleCount hits = 0;
    std::size_t n = 0;
    for (; n < probe.size(); ++n) {
      // §5.2 backward early exit: walk down from the largest id and stop
      // below the hashed row's minimum.
      const VertexId k =
          backward_early_exit ? probe[probe.size() - 1 - n] : probe[n];
      if (backward_early_exit && k < row_.front()) break;
      if (set.contains(k)) {
        ++hits;
        on_match(k);
      }
    }
    ++counters.hash_calls;
    counters.lookups += n;
    counters.hash_lookups += n;
    counters.early_exits += n < probe.size();  // only the break stops early
    counters.hits += hits;
    return hits;
  }

  std::uint64_t probes() const { return hash_.probes(); }
  void reset_probes() { hash_.reset_probes(); }

  /// Current hash-table capacity (live telemetry's scratch bytes).
  std::size_t hash_capacity() const { return hash_.capacity(); }

 private:
  template <class Probes>
  TriangleCount intersect_pinned(KernelPolicy policy, bool backward_early_exit,
                                 KernelCounters& counters, Probes&& probes) {
    const std::span<const VertexId> row = row_;
    TriangleCount found = 0;
    std::uint64_t tasks = 0;
    std::uint64_t bitmap_calls = 0;
    std::uint64_t bitmap_tests = 0;
    std::uint64_t bitmap_hits = 0;
    std::uint64_t clipped = 0;
    probes([&](std::span<const VertexId> probe) {
      ++tasks;
      if (row.empty() || probe.empty()) return;
      switch (choose_kernel(policy, row.size(), probe.size(), row.back())) {
        case KernelKind::kBitmap: {
          const BitmapProbe hit = bitmap_probe(bitmap(counters), probe,
                                               row.front(),
                                               backward_early_exit);
          ++bitmap_calls;
          bitmap_tests += hit.tests;
          bitmap_hits += hit.hits;
          clipped += hit.clipped;
          return;
        }
        case KernelKind::kMerge:
          found += merge_intersect(row, probe, counters);
          return;
        case KernelKind::kGalloping:
          found += row.size() <= probe.size()
                       ? galloping_intersect(row, probe, counters)
                       : galloping_intersect(probe, row, counters);
          return;
        case KernelKind::kHash:
          found += hash_intersect(hash(counters), probe, row.front(),
                                  backward_early_exit, counters);
          return;
      }
    });
    counters.intersection_tasks += tasks;
    counters.bitmap_calls += bitmap_calls;
    counters.lookups += bitmap_tests;
    counters.bitmap_tests += bitmap_tests;
    counters.early_exits += clipped;
    counters.hits += bitmap_hits;
    return found + bitmap_hits;
  }

  const hashmap::VertexHashSet& hash(KernelCounters& counters) {
    if (!hash_built_) build_hash(counters);
    // The scratch is reused across tasks and rows; a hash that was built
    // for a different row than the one currently pinned means the row was
    // not re-pinned and stale entries would corrupt the count.
    assert(hash_row_data_ == row_.data() && hash_row_size_ == row_.size());
    return hash_;
  }
  const RowBitmap& bitmap(KernelCounters& counters) {
    if (!bitmap_built_) build_bitmap(counters);
    assert(bitmap_row_data_ == row_.data() &&
           bitmap_row_size_ == row_.size());
    return bitmap_;
  }
  void build_hash(KernelCounters& counters);
  void build_bitmap(KernelCounters& counters);

  hashmap::VertexHashSet hash_;
  RowBitmap bitmap_;
  std::span<const VertexId> row_;
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
