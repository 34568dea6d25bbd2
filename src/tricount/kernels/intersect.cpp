#include "tricount/kernels/intersect.hpp"

#include <algorithm>
#include <cassert>

namespace tricount::kernels {

void RowBitmap::build(std::span<const VertexId> row) {
  for (const std::uint32_t word : touched_) words_[word] = 0;
  touched_.clear();
  universe_ = row.empty() ? 0 : row.back() + 1;
  const std::size_t needed = (static_cast<std::size_t>(universe_) + 63) / 64;
  if (words_.size() < needed) words_.resize(needed, 0);
  for (const VertexId v : row) {
    const auto word = static_cast<std::uint32_t>(v >> 6);
    if (words_[word] == 0) touched_.push_back(word);
    words_[word] |= std::uint64_t{1} << (v & 63);
  }
}

// The kernels tally lookups, per-kernel operations and hits in locals and
// add them to `counters` once per call: a per-element increment of a
// counter in memory is a loop-carried store-to-load chain. Hits are summed
// from the comparison itself, without a branch.

TriangleCount merge_intersect(std::span<const VertexId> a,
                              std::span<const VertexId> b,
                              KernelCounters& counters) {
  TriangleCount hits = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const VertexId x = a[i];
    const VertexId y = b[j];
    hits += x == y;
    i += x <= y;
    j += y <= x;
  }
  // Each step advanced i, j, or both on a match.
  const std::uint64_t steps = i + j - hits;
  ++counters.merge_calls;
  counters.lookups += steps;
  counters.merge_steps += steps;
  counters.hits += hits;
  return hits;
}

namespace {

/// First index >= `from` with haystack[index] >= x (haystack.size() when
/// none): a doubling jump from `from` brackets x, then binary search.
/// Adds its comparisons to `steps`.
std::size_t gallop_lower_bound(std::span<const VertexId> haystack,
                               std::size_t from, VertexId x,
                               std::uint64_t& steps) {
  const std::size_t n = haystack.size();
  if (from >= n || haystack[from] >= x) return from;
  std::size_t prev = from;  // last index known to hold a value < x
  std::size_t step = 1;
  std::size_t cur = from + step;
  while (cur < n && haystack[cur] < x) {
    ++steps;
    prev = cur;
    step <<= 1;
    cur = from + step;
  }
  std::size_t lo = prev + 1;
  std::size_t hi = std::min(cur, n);
  while (lo < hi) {
    ++steps;
    const std::size_t mid = lo + (hi - lo) / 2;
    if (haystack[mid] < x) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

TriangleCount galloping_intersect(std::span<const VertexId> needles,
                                  std::span<const VertexId> haystack,
                                  KernelCounters& counters) {
  TriangleCount hits = 0;
  std::uint64_t steps = 0;
  std::size_t at = 0;
  std::size_t used = 0;  // needles looked up, the one that ran off included
  while (used < needles.size()) {
    const VertexId x = needles[used++];
    at = gallop_lower_bound(haystack, at, x, steps);
    if (at == haystack.size()) break;
    const bool hit = haystack[at] == x;
    hits += hit;
    at += hit;
  }
  ++counters.galloping_calls;
  counters.lookups += used;
  counters.galloping_steps += steps;
  counters.hits += hits;
  return hits;
}

TriangleCount bitmap_intersect(const RowBitmap& bitmap,
                               std::span<const VertexId> probe,
                               VertexId hashed_min, bool backward_early_exit,
                               KernelCounters& counters) {
  const VertexId* first = probe.data();
  const VertexId* const last = first + probe.size();
  // §5.2's bound from below: the bitmap holds nothing under hashed_min.
  if (backward_early_exit && first != last && *first < hashed_min) {
    first = std::lower_bound(first, last, hashed_min);
    ++counters.early_exits;
  }
  // The probe is ascending, so the ids past the universe come last and
  // every id the loop tests indexes a word the bitmap owns.
  const std::uint64_t* const words = bitmap.words();
  const VertexId universe = bitmap.universe();
  TriangleCount hits = 0;
  const VertexId* at = first;
  for (; at != last && *at < universe; ++at) {
    hits += (words[*at >> 6] >> (*at & 63)) & 1;
  }
  const auto tests = static_cast<std::uint64_t>(at - first);
  ++counters.bitmap_calls;
  counters.lookups += tests;
  counters.bitmap_tests += tests;
  counters.hits += hits;
  return hits;
}

TriangleCount hash_intersect(const hashmap::VertexHashSet& set,
                             std::span<const VertexId> probe,
                             VertexId hashed_min, bool backward_early_exit,
                             KernelCounters& counters) {
  TriangleCount hits = 0;
  std::size_t looked_up = probe.size();
  if (backward_early_exit) {
    // §5.2: the probe list is ascending and the hash holds nothing below
    // hashed_min, so walk from the largest id and stop at the first id
    // below it — every further lookup would miss.
    std::size_t at = probe.size();
    for (; at > 0 && probe[at - 1] >= hashed_min; --at) {
      hits += set.contains(probe[at - 1]);
    }
    if (at > 0) ++counters.early_exits;
    looked_up -= at;
  } else {
    for (const VertexId k : probe) hits += set.contains(k);
  }
  ++counters.hash_calls;
  counters.lookups += looked_up;
  counters.hash_lookups += looked_up;
  counters.hits += hits;
  return hits;
}

void IntersectScratch::begin_row(std::span<const VertexId> row,
                                 bool allow_direct) {
  row_ = row;
  allow_direct_ = allow_direct;
  hash_built_ = false;
  bitmap_built_ = false;
}

const hashmap::VertexHashSet& IntersectScratch::hash(KernelCounters& counters) {
  if (!hash_built_) {
    hash_.build(row_, allow_direct_);
    hash_built_ = true;
    ++counters.hash_builds;
    if (hash_.mode() == hashmap::VertexHashSet::Mode::kDirect) {
      ++counters.direct_builds;
    }
#ifndef NDEBUG
    hash_row_data_ = row_.data();
    hash_row_size_ = row_.size();
#endif
  }
  // The scratch is reused across tasks and rows; a hash that was built
  // for a different row than the one currently pinned means begin_row was
  // skipped and stale entries would corrupt the count.
  assert(hash_row_data_ == row_.data() && hash_row_size_ == row_.size());
  return hash_;
}

const RowBitmap& IntersectScratch::bitmap(KernelCounters& counters) {
  if (!bitmap_built_) {
    bitmap_.build(row_);
    bitmap_built_ = true;
    ++counters.bitmap_builds;
#ifndef NDEBUG
    bitmap_row_data_ = row_.data();
    bitmap_row_size_ = row_.size();
#endif
  }
  assert(bitmap_row_data_ == row_.data() && bitmap_row_size_ == row_.size());
  return bitmap_;
}

TriangleCount IntersectScratch::task(KernelPolicy policy,
                                     std::span<const VertexId> probe,
                                     bool backward_early_exit,
                                     KernelCounters& counters) {
  if (row_.empty() || probe.empty()) return 0;
  switch (choose_kernel(policy, row_.size(), probe.size(), row_.back())) {
    case KernelKind::kMerge:
      return merge_intersect(row_, probe, counters);
    case KernelKind::kGalloping:
      return row_.size() <= probe.size()
                 ? galloping_intersect(row_, probe, counters)
                 : galloping_intersect(probe, row_, counters);
    case KernelKind::kBitmap:
      return bitmap_intersect(bitmap(counters), probe, row_.front(),
                              backward_early_exit, counters);
    case KernelKind::kHash:
      return hash_intersect(hash(counters), probe, row_.front(),
                            backward_early_exit, counters);
  }
  return 0;
}

}  // namespace tricount::kernels
