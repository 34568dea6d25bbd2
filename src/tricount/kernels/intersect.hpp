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
// inline for short probes and eight ids per AVX2 step for long ones. A
// probe emitted with a match sink runs the same kernel, which also packs
// the probe's matched ids for the sink: the per-vertex and edge-support
// sweeps credit each closing vertex from them.
#pragma once

#include <algorithm>
#include <cassert>
#include <concepts>
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

/// Every kernel below counts the matches of two ascending, duplicate-free
/// id lists. Its trailing `matches...` is empty for a count, or one
/// VertexId* into which the kernel also packs the matched ids, in no
/// particular order and without a branch: each id it looks up is stored
/// at the next free slot, which advances only on a hit. The buffer thus
/// needs kMatchSlack slots past the most matches the call can find (the
/// shorter list's length): one for the scalar loops' last store, eight
/// for the SIMD probe, which stores a whole step.
template <class... Matches>
concept MatchBuffer =
    sizeof...(Matches) <= 1 && (std::same_as<Matches, VertexId*> && ...);

inline constexpr std::size_t kMatchSlack = 8;

/// Stores `id` at slot `n` of the match buffer, when the call has one.
/// Every kernel stores through it, so its constraint checks theirs.
template <class... Matches>
  requires MatchBuffer<Matches...>
inline void store_match([[maybe_unused]] std::uint64_t n,
                        [[maybe_unused]] VertexId id, Matches... matches) {
  ((matches[n] = id), ...);
}

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
template <class... Matches>
inline BitmapProbe bitmap_probe_scalar(const RowBitmap& bitmap,
                                       std::span<const VertexId> probe,
                                       VertexId min, bool clip,
                                       Matches... matches) {
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
    store_match(hits, *at, matches...);
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
/// With a match buffer each step also left-packs its hit lanes into it
/// (one permute and one 8-lane store). Runs the scalar loop when
/// !simd_probe_supported().
template <class... Matches>
BitmapProbe bitmap_probe_simd(const RowBitmap& bitmap,
                              std::span<const VertexId> probe, VertexId min,
                              bool clip, Matches... matches);

/// The bitmap kernel's probe: scalar below kSimdProbeFloor ids, SIMD at
/// or above it.
template <class... Matches>
inline BitmapProbe bitmap_probe(const RowBitmap& bitmap,
                                std::span<const VertexId> probe, VertexId min,
                                bool clip, Matches... matches) {
  return probe.size() < kSimdProbeFloor
             ? bitmap_probe_scalar(bitmap, probe, min, clip, matches...)
             : bitmap_probe_simd(bitmap, probe, min, clip, matches...);
}

/// Sorted-merge intersection counting matches between two ascending lists.
template <class... Matches>
TriangleCount merge_intersect(std::span<const VertexId> a,
                              std::span<const VertexId> b,
                              KernelCounters& counters, Matches... matches);

/// Galloping (exponential + binary search) intersection: every needle is
/// located in `haystack` with a doubling jump from the previous match
/// position. Both lists ascending; pass the shorter list as `needles`.
template <class... Matches>
TriangleCount galloping_intersect(std::span<const VertexId> needles,
                                  std::span<const VertexId> haystack,
                                  KernelCounters& counters,
                                  Matches... matches);

/// Probes `probe` against a built hash set. With `backward_early_exit`
/// (§5.2) the probe list is walked from the largest id down and the loop
/// breaks at the first id below `hashed_min` — every further lookup
/// would miss.
template <class... Matches>
TriangleCount hash_intersect(const hashmap::VertexHashSet& set,
                             std::span<const VertexId> probe,
                             VertexId hashed_min, bool backward_early_exit,
                             KernelCounters& counters, Matches... matches);

/// Reusable per-rank scratch: the hash set and bitmap for the currently
/// pinned hashed row, built lazily per row and cached across that row's
/// probes. Debug builds assert that a cached structure always belongs to
/// the pinned row, so stale reuse across rows trips immediately.
class IntersectScratch {
 public:
  /// Sizes the hash table for the longest row this scratch will see.
  void reserve_for(std::size_t max_row_len) { hash_.reserve_for(max_row_len); }

  /// Pins `row` as the hashed side for subsequent task() calls and
  /// invalidates any structure built for the previous row.
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
  ///
  /// A task that needs its matched ids emits `emit(probe, sink)`: the
  /// same kernel also packs them into a scratch buffer, and `sink` gets
  /// them as a std::span<const VertexId> (in no particular order, empty
  /// when either side is) before the next task runs. Its total and
  /// counters are those of `emit(probe)`; only the packing stores differ.
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
    probes([&](std::span<const VertexId> probe, auto&&... sink) {
      static_assert(sizeof...(sink) <= 1, "emit(probe) or emit(probe, sink)");
      ++tasks;
      // Each form keeps its own switch, so a probe emitted without a sink
      // compiles to the counting loop alone: one switch shared through a
      // lambda changed how GCC inlines the count's row call.
      if constexpr (sizeof...(sink) == 0) {
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
      } else {
        VertexId* const matches =
            match_buffer(std::min(row.size(), probe.size()));
        std::size_t matched = 0;
        if (!row.empty() && !probe.empty()) {
          switch (choose_kernel(policy, row.size(), probe.size(),
                                row.back())) {
            case KernelKind::kBitmap: {
              const BitmapProbe hit =
                  bitmap_probe(bitmap(counters), probe, row.front(),
                               backward_early_exit, matches);
              ++bitmap_calls;
              bitmap_tests += hit.tests;
              bitmap_hits += hit.hits;
              clipped += hit.clipped;
              matched = hit.hits;
              break;
            }
            case KernelKind::kMerge:
              matched = merge_intersect(row, probe, counters, matches);
              found += matched;
              break;
            case KernelKind::kGalloping:
              matched = row.size() <= probe.size()
                            ? galloping_intersect(row, probe, counters,
                                                  matches)
                            : galloping_intersect(probe, row, counters,
                                                  matches);
              found += matched;
              break;
            case KernelKind::kHash:
              matched = hash_intersect(hash(counters), probe, row.front(),
                                       backward_early_exit, counters,
                                       matches);
              found += matched;
              break;
          }
        }
        (sink(std::span<const VertexId>(matches, matched)), ...);
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
  /// The packed-match buffer, with room for `most` matches.
  VertexId* match_buffer(std::size_t most) {
    if (matches_.size() < most + kMatchSlack) {
      matches_.resize(most + kMatchSlack);
    }
    return matches_.data();
  }

  hashmap::VertexHashSet hash_;
  RowBitmap bitmap_;
  std::span<const VertexId> row_;
  bool allow_direct_ = true;
  bool hash_built_ = false;
  bool bitmap_built_ = false;
  std::vector<VertexId> matches_;
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
