// Adversarial unit tests for the intersection-kernel subsystem: golden
// values on degenerate shapes (empty, singleton, identical, disjoint),
// the auto policy's decision boundaries at exactly the thresholds, the
// bitmap's [min, max] clip, the bitmap's stale-bit clearing across
// rebuilds, the scratch's cleared-between-rows invariant that guards
// against stale hash entries, and the matched ids a crediting row call
// packs.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "tricount/core/block_matrix.hpp"
#include "tricount/kernels/intersect.hpp"
#include "tricount/kernels/kernels.hpp"
#include "tricount/util/rng.hpp"

namespace tricount::kernels {
namespace {

using graph::TriangleCount;
using graph::VertexId;

std::vector<VertexId> sorted_random(std::size_t n, std::uint64_t seed,
                                    std::uint64_t range) {
  util::Xoshiro256 rng(seed);
  std::vector<VertexId> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(static_cast<VertexId>(rng.bounded(range)));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

// One row call of `scratch` that pins `row` and probes it with `probes`.
TriangleCount run_row(IntersectScratch& scratch, KernelPolicy policy,
                      std::span<const VertexId> row,
                      const std::vector<std::vector<VertexId>>& probes,
                      bool backward_early_exit, KernelCounters& counters) {
  return scratch.intersect_row(policy, row, /*allow_direct=*/true,
                               backward_early_exit, counters,
                               [&](auto&& emit) {
                                 for (const auto& probe : probes) emit(probe);
                               });
}

// Runs one (hashed, probe) pair through the scratch under `policy`.
TriangleCount run_task(KernelPolicy policy, const std::vector<VertexId>& hashed,
                       const std::vector<VertexId>& probe,
                       KernelCounters* out = nullptr) {
  IntersectScratch scratch;
  scratch.reserve_for(hashed.size());
  KernelCounters counters;
  const TriangleCount found = run_row(scratch, policy, hashed, {probe},
                                      /*backward_early_exit=*/false, counters);
  if (out != nullptr) *out = counters;
  return found;
}

constexpr KernelPolicy kAllPolicies[] = {
    KernelPolicy::kAuto, KernelPolicy::kMerge, KernelPolicy::kGalloping,
    KernelPolicy::kBitmap, KernelPolicy::kHash};

TEST(KernelPolicyNames, RoundTrip) {
  for (const KernelPolicy policy : kAllPolicies) {
    KernelPolicy parsed = KernelPolicy::kAuto;
    EXPECT_TRUE(parse_policy(to_string(policy), parsed)) << to_string(policy);
    EXPECT_EQ(parsed, policy);
  }
  KernelPolicy out = KernelPolicy::kBitmap;
  EXPECT_FALSE(parse_policy("list", out));
  EXPECT_FALSE(parse_policy("", out));
  EXPECT_FALSE(parse_policy("Merge", out));
  EXPECT_EQ(out, KernelPolicy::kBitmap);  // untouched on failure
}

TEST(ChooseKernel, ForcedPoliciesPassThrough) {
  EXPECT_EQ(choose_kernel(KernelPolicy::kMerge, 1000, 1, 5),
            KernelKind::kMerge);
  EXPECT_EQ(choose_kernel(KernelPolicy::kGalloping, 5, 5, 5),
            KernelKind::kGalloping);
  EXPECT_EQ(choose_kernel(KernelPolicy::kBitmap, 2, 2, 1u << 30),
            KernelKind::kBitmap);
  EXPECT_EQ(choose_kernel(KernelPolicy::kHash, 1 << 20, 1, 5),
            KernelKind::kHash);
}

TEST(ChooseKernel, GallopingSkewBoundaryIsExact) {
  const std::size_t skew = AutoThresholds::kGallopingSkew;
  // A probe exactly skew times the pinned row: galloping.
  EXPECT_EQ(choose_kernel(KernelPolicy::kAuto, 7, skew * 7, 0),
            KernelKind::kGalloping);
  // One element short of the threshold: not galloping.
  EXPECT_NE(choose_kernel(KernelPolicy::kAuto, 7, skew * 7 - 1, 0),
            KernelKind::kGalloping);
  // A pinned row skew times the probe never gallops: its structure is
  // built once and serves the row's other tasks.
  EXPECT_NE(choose_kernel(KernelPolicy::kAuto, skew * 7, 7, 0),
            KernelKind::kGalloping);
}

TEST(ChooseKernel, BitmapThresholdsAreExact) {
  const VertexId universe = AutoThresholds::kBitmapMaxUniverse;
  // The largest id that still fits the budget gets the bitmap, at any
  // row length; one more falls back to hashing.
  for (const std::size_t len : {1u, 4u, 64u}) {
    EXPECT_EQ(choose_kernel(KernelPolicy::kAuto, len, len, universe - 1),
              KernelKind::kBitmap);
    EXPECT_EQ(choose_kernel(KernelPolicy::kAuto, len, len, universe),
              KernelKind::kHash);
  }
  // A probe skew times the pinned row gallops, inside the budget or past
  // it; a pinned row skew times the probe takes the budget's kernel.
  const std::size_t skew = AutoThresholds::kGallopingSkew;
  EXPECT_EQ(choose_kernel(KernelPolicy::kAuto, 1, skew, universe - 1),
            KernelKind::kGalloping);
  EXPECT_EQ(choose_kernel(KernelPolicy::kAuto, 1, skew, universe),
            KernelKind::kGalloping);
  EXPECT_EQ(choose_kernel(KernelPolicy::kAuto, skew, 1, universe - 1),
            KernelKind::kBitmap);
  EXPECT_EQ(choose_kernel(KernelPolicy::kAuto, skew, 1, universe),
            KernelKind::kHash);
}

TEST(Kernels, EmptyAndSingletonRows) {
  const std::vector<VertexId> empty;
  const std::vector<VertexId> one{42};
  const std::vector<VertexId> other{41};
  for (const KernelPolicy policy : kAllPolicies) {
    SCOPED_TRACE(to_string(policy));
    EXPECT_EQ(run_task(policy, empty, one), 0u);
    EXPECT_EQ(run_task(policy, one, empty), 0u);
    EXPECT_EQ(run_task(policy, empty, empty), 0u);
    EXPECT_EQ(run_task(policy, one, one), 1u);
    EXPECT_EQ(run_task(policy, one, other), 0u);
  }
}

TEST(Kernels, FullyOverlappingRows) {
  const std::vector<VertexId> row = sorted_random(500, 9, 1u << 14);
  for (const KernelPolicy policy : kAllPolicies) {
    SCOPED_TRACE(to_string(policy));
    KernelCounters counters;
    EXPECT_EQ(run_task(policy, row, row, &counters), row.size());
    EXPECT_EQ(counters.hits, row.size());
  }
}

TEST(Kernels, DisjointRows) {
  std::vector<VertexId> low;
  std::vector<VertexId> high;
  for (VertexId v = 0; v < 200; ++v) {
    low.push_back(2 * v);
    high.push_back(2 * v + 1);
  }
  for (const KernelPolicy policy : kAllPolicies) {
    SCOPED_TRACE(to_string(policy));
    EXPECT_EQ(run_task(policy, low, high), 0u);
    EXPECT_EQ(run_task(policy, high, low), 0u);
  }
}

TEST(Kernels, GallopingExtremeNeedles) {
  const std::vector<VertexId> haystack = sorted_random(4096, 3, 1u << 18);
  // Needles below, inside, and above the haystack's range.
  std::vector<VertexId> needles{0, haystack[haystack.size() / 2],
                                haystack.back(),
                                static_cast<VertexId>(haystack.back() + 7)};
  std::sort(needles.begin(), needles.end());
  needles.erase(std::unique(needles.begin(), needles.end()), needles.end());
  KernelCounters counters;
  const TriangleCount expected =
      merge_intersect(needles, haystack, counters);
  KernelCounters gallop;
  EXPECT_EQ(galloping_intersect(needles, haystack, gallop), expected);
  EXPECT_EQ(gallop.hits, expected);
  EXPECT_EQ(gallop.galloping_calls, 1u);
  EXPECT_EQ(gallop.lookups, needles.size());
}

TEST(Kernels, AllKernelsAgreeOnRandomPairs) {
  util::Xoshiro256 rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const auto a = sorted_random(1 + rng.bounded(600), rng(), 1u << 12);
    const auto b = sorted_random(1 + rng.bounded(600), rng(), 1u << 12);
    KernelCounters reference;
    const TriangleCount expected = merge_intersect(a, b, reference);
    for (const KernelPolicy policy : kAllPolicies) {
      SCOPED_TRACE(::testing::Message()
                   << "trial=" << trial << " policy=" << to_string(policy)
                   << " |a|=" << a.size() << " |b|=" << b.size());
      KernelCounters counters;
      EXPECT_EQ(run_task(policy, a, b, &counters), expected);
      EXPECT_EQ(counters.hits, expected);
    }
  }
}

TEST(Kernels, BackwardEarlyExitMatchesForwardHashing) {
  util::Xoshiro256 rng(123);
  for (int trial = 0; trial < 20; ++trial) {
    // Shift the hashed row upward so the probe has a below-minimum tail
    // for the early exit to cut.
    auto hashed = sorted_random(200, rng(), 1u << 12);
    for (VertexId& v : hashed) v += 1u << 12;
    const auto probe = sorted_random(400, rng(), 1u << 13);
    hashmap::VertexHashSet set;
    set.reserve_for(hashed.size());
    set.build(hashed, true);
    KernelCounters forward;
    KernelCounters backward;
    const TriangleCount expected =
        hash_intersect(set, probe, hashed.front(), false, forward);
    EXPECT_EQ(hash_intersect(set, probe, hashed.front(), true, backward),
              expected);
    EXPECT_LE(backward.hash_lookups, forward.hash_lookups);
    if (probe.front() < hashed.front()) {
      EXPECT_EQ(backward.early_exits, 1u);
    }
  }
}

TEST(Kernels, BitmapClipsProbeToHashedRowRange) {
  // The pinned row spans [100, 200]; the probe starts below its min and
  // runs past its max. Four probe ids lie in [100, 200], two of them hits.
  const std::vector<VertexId> row{100, 150, 175, 200};
  const std::vector<VertexId> probe{1, 7, 50, 99, 100, 120, 160, 200, 201,
                                    900};
  IntersectScratch scratch;
  scratch.reserve_for(row.size());

  KernelCounters clipped;
  EXPECT_EQ(run_row(scratch, KernelPolicy::kBitmap, row, {probe}, true,
                    clipped),
            2u);
  EXPECT_EQ(clipped.lookups, 4u);
  EXPECT_EQ(clipped.bitmap_tests, 4u);
  EXPECT_EQ(clipped.early_exits, 1u);
  EXPECT_EQ(clipped.hits, 2u);

  // Without the §5.2 exit only the stop past the max applies.
  KernelCounters unclipped;
  EXPECT_EQ(run_row(scratch, KernelPolicy::kBitmap, row, {probe}, false,
                    unclipped),
            2u);
  EXPECT_EQ(unclipped.lookups, 8u);
  EXPECT_EQ(unclipped.bitmap_tests, 8u);
  EXPECT_EQ(unclipped.early_exits, 0u);

  // A probe wholly below the min tests nothing and still exits once.
  const std::vector<VertexId> below{3, 99};
  KernelCounters none;
  EXPECT_EQ(run_row(scratch, KernelPolicy::kBitmap, row, {below}, true, none),
            0u);
  EXPECT_EQ(none.lookups, 0u);
  EXPECT_EQ(none.early_exits, 1u);
}

TEST(Kernels, AutoBuildsLongPinnedRowOnceForShortProbes) {
  // A hub row pinned against short tails, as cetric closes wedges at a
  // hub: kAuto builds the row's bitmap once and tests every probe in it,
  // instead of galloping each short probe through the long row.
  const std::vector<VertexId> row = sorted_random(2048, 21, 1u << 16);
  IntersectScratch scratch;
  scratch.reserve_for(row.size());
  util::Xoshiro256 rng(22);
  std::vector<std::vector<VertexId>> probes;
  TriangleCount expected = 0;
  for (int t = 0; t < 16; ++t) {
    probes.push_back(sorted_random(1 + rng.bounded(8), rng(), 1u << 16));
    KernelCounters reference;
    expected += merge_intersect(row, probes.back(), reference);
  }
  KernelCounters counters;
  EXPECT_EQ(run_row(scratch, KernelPolicy::kAuto, row, probes, true, counters),
            expected);
  EXPECT_EQ(counters.galloping_calls, 0u);
  EXPECT_EQ(counters.bitmap_calls, 16u);
  EXPECT_EQ(counters.bitmap_builds, 1u);
  EXPECT_EQ(counters.hash_calls, 0u);
}

// `len` distinct ascending ids: every id of `must` below len, then ids
// drawn from [lo, hi) (as many as fit).
std::vector<VertexId> distinct_ids(util::Xoshiro256& rng, std::size_t len,
                                   VertexId lo, VertexId hi,
                                   const std::vector<VertexId>& must) {
  std::vector<VertexId> ids(
      must.begin(), must.begin() + static_cast<std::ptrdiff_t>(
                                       std::min(len, must.size())));
  len = std::min<std::size_t>(len, ids.size() + (hi - lo));
  for (;;) {
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    if (ids.size() >= len) return ids;
    while (ids.size() < len) {
      ids.push_back(lo + static_cast<VertexId>(rng.bounded(hi - lo)));
    }
  }
}

TEST(BitmapProbe, SimdMatchesScalar) {
  if (!simd_probe_supported()) {
    GTEST_SKIP() << "this CPU has no AVX2, so the SIMD probe runs the "
                    "scalar loop";
  }
  std::vector<std::size_t> lengths;
  for (std::size_t len = 1; len <= 64; ++len) lengths.push_back(len);
  for (const std::size_t len : {1000u, 1023u, 2048u, 3333u, 5000u}) {
    lengths.push_back(len);
  }
  util::Xoshiro256 rng(4242);
  RowBitmap bitmap;
  std::size_t simd_probes = 0;
  for (const std::size_t len : lengths) {
    // The pinned row starts at min (0 half the time) and holds the word
    // edges 31, 32, 63 and 64 when they lie above min.
    const VertexId min =
        rng.bounded(2) == 0 ? 0 : 1 + static_cast<VertexId>(rng.bounded(100));
    const auto span = static_cast<VertexId>(4 * len + 128);
    std::vector<VertexId> edges{min};
    for (const VertexId v : {31u, 32u, 63u, 64u}) {
      if (v > min) edges.push_back(v);
    }
    const std::vector<VertexId> row =
        distinct_ids(rng, len + edges.size(), min, min + span, edges);
    ASSERT_EQ(row.front(), min);
    bitmap.build(row);
    const VertexId universe = bitmap.universe();
    const std::vector<std::vector<VertexId>> probes{
        // Across the row, with the word edges, universe - 1 and universe.
        distinct_ids(rng, len, 0, universe + 64,
                     {31, 32, 63, 64, universe - 1, universe}),
        distinct_ids(rng, len, 0, universe + 64, {}),
        // Wholly below the min (empty when min is 0), wholly past the
        // max, and empty.
        distinct_ids(rng, len, 0, min, {}),
        distinct_ids(rng, len, universe, universe + span, {universe}),
        {}};
    for (const auto& probe : probes) {
      for (const bool clip : {true, false}) {
        SCOPED_TRACE(::testing::Message()
                     << "len=" << len << " |probe|=" << probe.size()
                     << " min=" << min << " universe=" << universe
                     << " clip=" << clip);
        const BitmapProbe scalar =
            bitmap_probe_scalar(bitmap, probe, min, clip);
        ASSERT_EQ(bitmap_probe_simd(bitmap, probe, min, clip), scalar);
        // The hits are the intersection whatever the clip.
        KernelCounters merged;
        EXPECT_EQ(scalar.hits, merge_intersect(row, probe, merged));
        // A row call on the bitmap kernel (the row starts at min) adds
        // the same counts.
        IntersectScratch scratch;
        KernelCounters counters;
        EXPECT_EQ(run_row(scratch, KernelPolicy::kBitmap, row, {probe}, clip,
                          counters),
                  scalar.hits);
        EXPECT_EQ(counters.bitmap_calls, probe.empty() ? 0u : 1u);
        EXPECT_EQ(counters.lookups, scalar.tests);
        EXPECT_EQ(counters.bitmap_tests, scalar.tests);
        EXPECT_EQ(counters.early_exits, scalar.clipped ? 1u : 0u);
        EXPECT_EQ(counters.hits, scalar.hits);
        simd_probes += probe.size() >= kSimdProbeFloor;
      }
    }
  }
  EXPECT_GT(simd_probes, 0u);
}

TEST(IntersectScratch, RowCallMatchesOneProbeCalls) {
  // Row A's ids fit the bitmap budget; row B's lie past 2^22, so kAuto
  // hashes it. Each row takes empty probes, a probe 32x the row (kAuto
  // gallops it) and probes on both sides of the SIMD floor.
  util::Xoshiro256 rng(808);
  const VertexId past_budget = AutoThresholds::kBitmapMaxUniverse;
  const std::vector<std::vector<VertexId>> rows{
      distinct_ids(rng, 24, 1000, 1u << 14, {}),
      distinct_ids(rng, 24, past_budget, past_budget + (1u << 14), {})};
  for (const auto& row : rows) {
    const VertexId base = row.front() - 1000;
    std::vector<std::vector<VertexId>> probes{{}};
    for (const std::size_t len :
         {std::size_t{1}, kSimdProbeFloor - 1, kSimdProbeFloor,
          kSimdProbeFloor + 1, std::size_t{100},
          AutoThresholds::kGallopingSkew * row.size()}) {
      probes.push_back(distinct_ids(rng, len, base, base + (1u << 14), {}));
    }
    probes.push_back({});
    for (const KernelPolicy policy : kAllPolicies) {
      SCOPED_TRACE(::testing::Message() << to_string(policy)
                                        << " row.front()=" << row.front());
      IntersectScratch scratch;
      scratch.reserve_for(row.size());
      KernelCounters row_call;
      const TriangleCount total =
          run_row(scratch, policy, row, probes, true, row_call);
      KernelCounters one_probe;
      TriangleCount sum = 0;
      scratch.begin_row(row, /*allow_direct=*/true);
      for (const auto& probe : probes) {
        sum += scratch.task(policy, probe, true, one_probe);
      }
      EXPECT_EQ(total, sum);
      EXPECT_EQ(row_call, one_probe);
      EXPECT_EQ(row_call.intersection_tasks, probes.size());
    }
  }
}

TEST(IntersectScratch, CreditingRowCallMatchesCountingRowCall) {
  // A task emitted with a match sink runs the kernel the counting row
  // call runs: the same total and counters, and the ids it packs are the
  // task's intersection with the row. Row A fits the bitmap budget; row B
  // lies past 2^22, so kAuto hashes it. Both hold the word edges 31 and
  // 32 (63 and 64) above their base, and their probes take lengths 1-40
  // (both sides of the SIMD floor, every length mod 8), longer ones, ids
  // at universe - 1 and universe, a probe 32x the row (kAuto gallops it),
  // and probes wholly below the min and wholly past the max.
  util::Xoshiro256 rng(2828);
  for (const VertexId base :
       {VertexId{0}, AutoThresholds::kBitmapMaxUniverse}) {
    const VertexId min = base + 5;
    const std::vector<VertexId> row = distinct_ids(
        rng, 200, min, base + 2000,
        {min, base + 31, base + 32, base + 63, base + 64});
    const VertexId universe = row.back() + 1;
    std::vector<std::vector<VertexId>> probes{{}};
    for (std::size_t len = 1; len <= 40; ++len) {
      probes.push_back(distinct_ids(rng, len, base, universe + 64,
                                    {base + 31, base + 32, universe - 1,
                                     universe}));
    }
    for (const std::size_t len : {100u, 1001u, 1003u, 1005u, 1007u}) {
      probes.push_back(distinct_ids(rng, len, base, universe + 64,
                                    {universe - 1, universe}));
    }
    probes.push_back(distinct_ids(
        rng, AutoThresholds::kGallopingSkew * row.size() + 1, base,
        base + 20000, {}));
    for (const std::size_t len : {1u, 5u, 17u}) {
      probes.push_back(distinct_ids(rng, len, base, min, {}));
      probes.push_back(
          distinct_ids(rng, len, universe, universe + 4000, {universe}));
    }
    for (const KernelPolicy policy : kAllPolicies) {
      for (const bool clip : {true, false}) {
        SCOPED_TRACE(::testing::Message()
                     << to_string(policy) << " base=" << base
                     << " clip=" << clip);
        IntersectScratch counting;
        KernelCounters counted;
        const TriangleCount total =
            run_row(counting, policy, row, probes, clip, counted);

        IntersectScratch crediting;
        KernelCounters credited;
        std::vector<std::vector<VertexId>> matched;
        EXPECT_EQ(crediting.intersect_row(
                      policy, row, /*allow_direct=*/true, clip, credited,
                      [&](auto&& emit) {
                        for (const auto& probe : probes) {
                          emit(probe, [&](std::span<const VertexId> ids) {
                            matched.emplace_back(ids.begin(), ids.end());
                          });
                        }
                      }),
                  total);
        EXPECT_EQ(credited, counted);
        ASSERT_EQ(matched.size(), probes.size());
        for (std::size_t task = 0; task < probes.size(); ++task) {
          std::vector<VertexId> expected;
          std::set_intersection(row.begin(), row.end(),
                                probes[task].begin(), probes[task].end(),
                                std::back_inserter(expected));
          std::sort(matched[task].begin(), matched[task].end());
          EXPECT_EQ(matched[task], expected)
              << "task " << task << " |probe|=" << probes[task].size();
        }
        if (policy == KernelPolicy::kAuto && base != 0) {
          EXPECT_GT(credited.hash_calls, 0u);
          EXPECT_EQ(credited.bitmap_calls, 0u);
        }
      }
    }
  }
}

TEST(RowBitmap, RebuildClearsStaleBits) {
  RowBitmap bitmap;
  // Row A touches high words; row B is short and low. After rebuilding
  // with B, every A-only bit must read as absent (the stale-bit
  // regression the per-shift bitmap reuse depends on).
  const std::vector<VertexId> row_a{5, 700, 1400, 4096, 99999};
  const std::vector<VertexId> row_b{6, 64};
  bitmap.build(row_a);
  for (const VertexId v : row_a) EXPECT_TRUE(bitmap.test(v)) << v;
  bitmap.build(row_b);
  for (const VertexId v : row_a) EXPECT_FALSE(bitmap.test(v)) << v;
  for (const VertexId v : row_b) EXPECT_TRUE(bitmap.test(v)) << v;
  EXPECT_EQ(bitmap.universe(), 65u);
  // And back again: growing rebuild after a shrinking one stays exact.
  bitmap.build(row_a);
  for (const VertexId v : row_a) EXPECT_TRUE(bitmap.test(v)) << v;
  EXPECT_FALSE(bitmap.test(6));
}

TEST(RowBitmap, EmptyRowAndUniverseBoundary) {
  RowBitmap bitmap;
  bitmap.build(std::vector<VertexId>{3, 9});
  bitmap.build(std::vector<VertexId>{});
  EXPECT_EQ(bitmap.universe(), 0u);
  EXPECT_FALSE(bitmap.test(0));
  EXPECT_FALSE(bitmap.test(3));
  bitmap.build(std::vector<VertexId>{63, 64});
  EXPECT_EQ(bitmap.universe(), 65u);
  EXPECT_TRUE(bitmap.test(63));
  EXPECT_TRUE(bitmap.test(64));
  EXPECT_FALSE(bitmap.test(65));
  EXPECT_FALSE(bitmap.test(1u << 30));  // far past the allocated words
}

TEST(IntersectScratch, NoStaleEntriesAcrossRows) {
  // The bug this pins down: the hash set is reused across tasks, and a
  // row switch that failed to invalidate it would intersect row B's
  // tasks against row A's entries. Values are chosen so row A would
  // produce spurious hits against row B's probe.
  const std::vector<VertexId> row_a{10, 20, 30, 40, 50};
  const std::vector<VertexId> row_b{15, 25, 35};
  const std::vector<VertexId> probe{10, 15, 20, 25, 30};
  IntersectScratch scratch;
  scratch.reserve_for(row_a.size());
  KernelCounters counters;
  for (const KernelPolicy policy :
       {KernelPolicy::kHash, KernelPolicy::kBitmap, KernelPolicy::kAuto}) {
    SCOPED_TRACE(to_string(policy));
    // 10, 20, 30.
    EXPECT_EQ(run_row(scratch, policy, row_a, {probe}, false, counters), 3u);
    // 15, 25 per probe: repeating the probe gives the same answer (builds
    // are cached, not re-accumulated).
    EXPECT_EQ(run_row(scratch, policy, row_b, {probe, probe}, false, counters),
              4u);
  }
}

TEST(IntersectScratch, LazyBuildsHappenOncePerRow) {
  const std::vector<VertexId> row = sorted_random(300, 5, 1u << 10);
  const std::vector<VertexId> probe = sorted_random(300, 6, 1u << 10);
  IntersectScratch scratch;
  scratch.reserve_for(row.size());
  KernelCounters counters;
  const std::vector<std::vector<VertexId>> five(5, probe);
  run_row(scratch, KernelPolicy::kHash, row, five, false, counters);
  run_row(scratch, KernelPolicy::kBitmap, row, five, false, counters);
  EXPECT_EQ(counters.hash_builds, 1u);
  EXPECT_EQ(counters.bitmap_builds, 1u);
  EXPECT_EQ(counters.hash_calls, 5u);
  EXPECT_EQ(counters.bitmap_calls, 5u);
  // A merge task on the same row builds nothing.
  run_row(scratch, KernelPolicy::kMerge, row, {probe}, false, counters);
  EXPECT_EQ(counters.hash_builds, 1u);
  EXPECT_EQ(counters.bitmap_builds, 1u);
}

TEST(KernelCounters, PerKernelAttributionAndAggregation) {
  const std::vector<VertexId> a = sorted_random(128, 1, 512);
  const std::vector<VertexId> b = sorted_random(128, 2, 512);
  KernelCounters sum;
  for (const KernelPolicy policy :
       {KernelPolicy::kMerge, KernelPolicy::kGalloping, KernelPolicy::kBitmap,
        KernelPolicy::kHash}) {
    KernelCounters counters;
    run_task(policy, a, b, &counters);
    sum += counters;
  }
  EXPECT_EQ(sum.merge_calls, 1u);
  EXPECT_EQ(sum.galloping_calls, 1u);
  EXPECT_EQ(sum.bitmap_calls, 1u);
  EXPECT_EQ(sum.hash_calls, 1u);
  EXPECT_GT(sum.merge_steps, 0u);
  EXPECT_GT(sum.galloping_steps, 0u);
  EXPECT_GT(sum.bitmap_tests, 0u);
  EXPECT_GT(sum.hash_lookups, 0u);
  // lookups aggregates exactly the per-kernel elementary operations:
  // merge steps, galloping needles (one per shorter-list element),
  // bitmap tests, and hash lookups.
  const std::uint64_t galloping_needles = std::min(a.size(), b.size());
  EXPECT_EQ(sum.lookups, sum.merge_steps + galloping_needles +
                             sum.bitmap_tests + sum.hash_lookups);
}

TEST(KernelCounters, LookupsEqualPerKernelOpsForNonMergeKernels) {
  const std::vector<VertexId> a = sorted_random(256, 3, 1024);
  const std::vector<VertexId> b = sorted_random(256, 4, 1024);
  {
    KernelCounters c;
    run_task(KernelPolicy::kGalloping, a, b, &c);
    // One lookup per consumed needle; the kernel may break early once
    // the haystack is exhausted.
    EXPECT_GT(c.lookups, 0u);
    EXPECT_LE(c.lookups, std::min(a.size(), b.size()));
  }
  {
    KernelCounters c;
    run_task(KernelPolicy::kBitmap, a, b, &c);
    EXPECT_EQ(c.lookups, c.bitmap_tests);
  }
  {
    KernelCounters c;
    run_task(KernelPolicy::kHash, a, b, &c);
    EXPECT_EQ(c.lookups, c.hash_lookups);
    EXPECT_EQ(c.hash_lookups, b.size());
  }
  {
    KernelCounters c;
    run_task(KernelPolicy::kMerge, a, b, &c);
    EXPECT_EQ(c.lookups, c.merge_steps);
  }
}

TEST(BlockCsr, RowsAreDuplicateFreeAfterPreprocessing) {
  // The kernels assume strictly ascending, duplicate-free rows; the
  // BlockCsr build is where that invariant is established.
  util::Xoshiro256 rng(17);
  std::vector<core::LocalEntry> entries;
  const VertexId rows = 32;
  for (int i = 0; i < 4000; ++i) {
    entries.push_back({static_cast<VertexId>(rng.bounded(rows)),
                       static_cast<VertexId>(rng.bounded(64))});
  }
  const core::BlockCsr block = core::BlockCsr::from_entries(rows, entries);
  block.validate();
  for (VertexId r = 0; r < rows; ++r) {
    const auto row = block.row(r);
    for (std::size_t i = 1; i < row.size(); ++i) {
      ASSERT_LT(row[i - 1], row[i]) << "row " << r;
    }
  }
  // With 4000 draws over a 32x64 grid, collisions were certain — the
  // dedup must have dropped them.
  EXPECT_LT(block.num_entries(), 4000u);
}

}  // namespace
}  // namespace tricount::kernels
