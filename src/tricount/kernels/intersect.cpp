#include "tricount/kernels/intersect.hpp"

#include <algorithm>
#include <array>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define TRICOUNT_SIMD_PROBE 1
#endif

namespace tricount::kernels {

void RowBitmap::build(std::span<const VertexId> row) {
  for (const std::uint32_t word : touched_) words_[word] = 0;
  touched_.clear();
  universe_ = row.empty() ? 0 : row.back() + 1;
  const std::size_t needed = (static_cast<std::size_t>(universe_) + 31) / 32;
  if (words_.size() < needed) words_.resize(needed, 0);
  for (const VertexId v : row) {
    const VertexId word = v >> 5;
    if (words_[word] == 0) touched_.push_back(word);
    words_[word] |= std::uint32_t{1} << (v & 31);
  }
}

#ifdef TRICOUNT_SIMD_PROBE
namespace {

/// kLeftPack[mask] holds, one per byte from the lowest, the lanes whose
/// bits are set in `mask`: the permutation that moves a step's hit lanes
/// to its front.
constexpr std::array<std::uint64_t, 256> kLeftPack = [] {
  std::array<std::uint64_t, 256> table{};
  for (std::uint64_t mask = 0; mask < 256; ++mask) {
    int slot = 0;
    for (std::uint64_t lane = 0; lane < 8; ++lane) {
      if (((mask >> lane) & 1) != 0) table[mask] |= lane << (8 * slot++);
    }
  }
  return table;
}();

/// The AVX2 probe over ids[0, n), eight ids per step; the last, partial
/// step loads its ids through a mask. Lanes outside [min, universe) are
/// masked out of the gather, so it reads only words the bitmap owns, and
/// a masked lane gathers 0 and never hits. It stops after the first step
/// that holds an id at or past the universe (the probe ascends, so every
/// later id misses too). AVX2 compares signed lanes, so the ids and both
/// bounds are biased by 2^31 to order them as unsigned. With kPack, each
/// step also permutes its hit lanes to the front and stores all eight at
/// matches + (hits so far): the lanes past the hits are overwritten by
/// the next step or lie in the buffer's slack.
template <bool kPack>
__attribute__((target("avx2,popcnt"))) BitmapProbe probe_avx2(
    const std::uint32_t* words, VertexId universe, VertexId min,
    const VertexId* ids, std::size_t n, VertexId* matches) {
  const __m256i bias = _mm256_set1_epi32(INT32_MIN);
  const __m256i lo =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(min)), bias);
  const __m256i hi =
      _mm256_xor_si256(_mm256_set1_epi32(static_cast<int>(universe)), bias);
  const __m256i low_bits = _mm256_set1_epi32(31);
  // Compare masks hold -1 per set lane: subtracting them counts.
  __m256i hits = _mm256_setzero_si256();
  __m256i tests = _mm256_setzero_si256();
  std::size_t packed = 0;
  for (std::size_t at = 0; at < n; at += 8) {
    __m256i live = _mm256_set1_epi32(-1);
    __m256i x;
    if (n - at >= 8) {
      x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ids + at));
    } else {
      live = _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n - at)),
                                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
      x = _mm256_maskload_epi32(reinterpret_cast<const int*>(ids + at), live);
    }
    const __m256i biased = _mm256_xor_si256(x, bias);
    const __m256i below_universe = _mm256_cmpgt_epi32(hi, biased);
    const __m256i in_range = _mm256_and_si256(
        live,
        _mm256_andnot_si256(_mm256_cmpgt_epi32(lo, biased), below_universe));
    const __m256i word = _mm256_mask_i32gather_epi32(
        _mm256_setzero_si256(), reinterpret_cast<const int*>(words),
        _mm256_srli_epi32(x, 5), in_range, 4);
    // Shift bit x & 31 of each word up to the sign bit (31 - (x & 31) is
    // ~x & 31), then spread it to -1 for a hit.
    const __m256i bit =
        _mm256_sllv_epi32(word, _mm256_andnot_si256(x, low_bits));
    hits = _mm256_sub_epi32(hits, _mm256_srai_epi32(bit, 31));
    tests = _mm256_sub_epi32(tests, in_range);
    if constexpr (kPack) {
      const auto mask = static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_castsi256_ps(bit)));
      const __m256i lanes = _mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(&kLeftPack[mask])));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(matches + packed),
                          _mm256_permutevar8x32_epi32(x, lanes));
      packed += static_cast<std::size_t>(_mm_popcnt_u32(mask));
    }
    if (!_mm256_testc_si256(below_universe, live)) break;
  }
  alignas(32) std::uint32_t hit_lanes[8];
  alignas(32) std::uint32_t test_lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(hit_lanes), hits);
  _mm256_store_si256(reinterpret_cast<__m256i*>(test_lanes), tests);
  BitmapProbe out;
  for (int lane = 0; lane < 8; ++lane) {
    out.hits += hit_lanes[lane];
    out.tests += test_lanes[lane];
  }
  return out;
}

}  // namespace
#endif

bool simd_probe_supported() {
#ifdef TRICOUNT_SIMD_PROBE
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0 &&
           __builtin_cpu_supports("popcnt") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

template <class... Matches>
BitmapProbe bitmap_probe_simd(const RowBitmap& bitmap,
                              std::span<const VertexId> probe, VertexId min,
                              bool clip, Matches... matches) {
#ifdef TRICOUNT_SIMD_PROBE
  if (simd_probe_supported()) {
    VertexId* buffer = nullptr;
    ((buffer = matches), ...);
    BitmapProbe result = probe_avx2<sizeof...(Matches) != 0>(
        bitmap.words(), bitmap.universe(), clip ? min : 0, probe.data(),
        probe.size(), buffer);
    result.clipped = clip && !probe.empty() && probe.front() < min;
    return result;
  }
#endif
  return bitmap_probe_scalar(bitmap, probe, min, clip, matches...);
}

// The kernels tally lookups, per-kernel operations and hits in locals and
// add them to `counters` once per call: a per-element increment of a
// counter in memory is a loop-carried store-to-load chain. Hits are summed
// from the comparison itself, without a branch.

template <class... Matches>
TriangleCount merge_intersect(std::span<const VertexId> a,
                              std::span<const VertexId> b,
                              KernelCounters& counters, Matches... matches) {
  TriangleCount hits = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const VertexId x = a[i];
    const VertexId y = b[j];
    store_match(hits, x, matches...);
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

template <class... Matches>
TriangleCount galloping_intersect(std::span<const VertexId> needles,
                                  std::span<const VertexId> haystack,
                                  KernelCounters& counters,
                                  Matches... matches) {
  TriangleCount hits = 0;
  std::uint64_t steps = 0;
  std::size_t at = 0;
  std::size_t used = 0;  // needles looked up, the one that ran off included
  while (used < needles.size()) {
    const VertexId x = needles[used++];
    at = gallop_lower_bound(haystack, at, x, steps);
    if (at == haystack.size()) break;
    const bool hit = haystack[at] == x;
    store_match(hits, x, matches...);
    hits += hit;
    at += hit;
  }
  ++counters.galloping_calls;
  counters.lookups += used;
  counters.galloping_steps += steps;
  counters.hits += hits;
  return hits;
}

template <class... Matches>
TriangleCount hash_intersect(const hashmap::VertexHashSet& set,
                             std::span<const VertexId> probe,
                             VertexId hashed_min, bool backward_early_exit,
                             KernelCounters& counters, Matches... matches) {
  TriangleCount hits = 0;
  std::size_t looked_up = probe.size();
  if (backward_early_exit) {
    // §5.2: the probe list is ascending and the hash holds nothing below
    // hashed_min, so walk from the largest id and stop at the first id
    // below it — every further lookup would miss.
    std::size_t at = probe.size();
    for (; at > 0 && probe[at - 1] >= hashed_min; --at) {
      store_match(hits, probe[at - 1], matches...);
      hits += set.contains(probe[at - 1]);
    }
    if (at > 0) ++counters.early_exits;
    looked_up -= at;
  } else {
    for (const VertexId k : probe) {
      store_match(hits, k, matches...);
      hits += set.contains(k);
    }
  }
  ++counters.hash_calls;
  counters.lookups += looked_up;
  counters.hash_lookups += looked_up;
  counters.hits += hits;
  return hits;
}

// Each out-of-line kernel in its two forms: counting, and counting while
// packing the matched ids.
template BitmapProbe bitmap_probe_simd(const RowBitmap&,
                                       std::span<const VertexId>, VertexId,
                                       bool);
template BitmapProbe bitmap_probe_simd(const RowBitmap&,
                                       std::span<const VertexId>, VertexId,
                                       bool, VertexId*);
template TriangleCount merge_intersect(std::span<const VertexId>,
                                       std::span<const VertexId>,
                                       KernelCounters&);
template TriangleCount merge_intersect(std::span<const VertexId>,
                                       std::span<const VertexId>,
                                       KernelCounters&, VertexId*);
template TriangleCount galloping_intersect(std::span<const VertexId>,
                                           std::span<const VertexId>,
                                           KernelCounters&);
template TriangleCount galloping_intersect(std::span<const VertexId>,
                                           std::span<const VertexId>,
                                           KernelCounters&, VertexId*);
template TriangleCount hash_intersect(const hashmap::VertexHashSet&,
                                      std::span<const VertexId>, VertexId,
                                      bool, KernelCounters&);
template TriangleCount hash_intersect(const hashmap::VertexHashSet&,
                                      std::span<const VertexId>, VertexId,
                                      bool, KernelCounters&, VertexId*);

void IntersectScratch::build_hash(KernelCounters& counters) {
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

void IntersectScratch::build_bitmap(KernelCounters& counters) {
  bitmap_.build(row_);
  bitmap_built_ = true;
  ++counters.bitmap_builds;
#ifndef NDEBUG
  bitmap_row_data_ = row_.data();
  bitmap_row_size_ = row_.size();
#endif
}

}  // namespace tricount::kernels
