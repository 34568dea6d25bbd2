// Adversarial unit tests for the intersection-kernel subsystem: golden
// values on degenerate shapes (empty, singleton, identical, disjoint),
// the auto policy's decision boundaries at exactly the thresholds, the
// bitmap's [min, max] clip, the bitmap's stale-bit clearing across
// rebuilds, and the scratch's cleared-between-rows invariant that guards
// against stale hash entries.
#include <gtest/gtest.h>

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

// Runs one (hashed, probe) pair through the scratch under `policy`.
TriangleCount run_task(KernelPolicy policy, const std::vector<VertexId>& hashed,
                       const std::vector<VertexId>& probe,
                       KernelCounters* out = nullptr) {
  IntersectScratch scratch;
  scratch.reserve_for(hashed.size());
  KernelCounters counters;
  scratch.begin_row(hashed, /*allow_direct=*/true);
  const TriangleCount found =
      scratch.task(policy, probe, /*backward_early_exit=*/false, counters);
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
  scratch.begin_row(row, true);

  KernelCounters clipped;
  EXPECT_EQ(scratch.task(KernelPolicy::kBitmap, probe, true, clipped), 2u);
  EXPECT_EQ(clipped.lookups, 4u);
  EXPECT_EQ(clipped.bitmap_tests, 4u);
  EXPECT_EQ(clipped.early_exits, 1u);
  EXPECT_EQ(clipped.hits, 2u);

  // Without the §5.2 exit only the stop past the max applies.
  KernelCounters unclipped;
  EXPECT_EQ(scratch.task(KernelPolicy::kBitmap, probe, false, unclipped), 2u);
  EXPECT_EQ(unclipped.lookups, 8u);
  EXPECT_EQ(unclipped.bitmap_tests, 8u);
  EXPECT_EQ(unclipped.early_exits, 0u);

  // A probe wholly below the min tests nothing and still exits once.
  const std::vector<VertexId> below{3, 99};
  KernelCounters none;
  EXPECT_EQ(scratch.task(KernelPolicy::kBitmap, below, true, none), 0u);
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
  scratch.begin_row(row, true);
  util::Xoshiro256 rng(22);
  KernelCounters counters;
  TriangleCount found = 0;
  TriangleCount expected = 0;
  for (int t = 0; t < 16; ++t) {
    const auto probe = sorted_random(1 + rng.bounded(8), rng(), 1u << 16);
    KernelCounters reference;
    expected += merge_intersect(row, probe, reference);
    found += scratch.task(KernelPolicy::kAuto, probe, true, counters);
  }
  EXPECT_EQ(found, expected);
  EXPECT_EQ(counters.galloping_calls, 0u);
  EXPECT_EQ(counters.bitmap_calls, 16u);
  EXPECT_EQ(counters.bitmap_builds, 1u);
  EXPECT_EQ(counters.hash_calls, 0u);
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
    scratch.begin_row(row_a, true);
    EXPECT_EQ(scratch.task(policy, probe, false, counters), 3u);  // 10,20,30
    scratch.begin_row(row_b, true);
    EXPECT_EQ(scratch.task(policy, probe, false, counters), 2u);  // 15,25
    // Repeating the task gives the same answer (builds are cached, not
    // re-accumulated).
    EXPECT_EQ(scratch.task(policy, probe, false, counters), 2u);
  }
}

TEST(IntersectScratch, LazyBuildsHappenOncePerRow) {
  const std::vector<VertexId> row = sorted_random(300, 5, 1u << 10);
  const std::vector<VertexId> probe = sorted_random(300, 6, 1u << 10);
  IntersectScratch scratch;
  scratch.reserve_for(row.size());
  KernelCounters counters;
  scratch.begin_row(row, true);
  for (int i = 0; i < 5; ++i) {
    scratch.task(KernelPolicy::kHash, probe, false, counters);
    scratch.task(KernelPolicy::kBitmap, probe, false, counters);
  }
  EXPECT_EQ(counters.hash_builds, 1u);
  EXPECT_EQ(counters.bitmap_builds, 1u);
  EXPECT_EQ(counters.hash_calls, 5u);
  EXPECT_EQ(counters.bitmap_calls, 5u);
  // A merge task on the same row builds nothing.
  scratch.begin_row(row, true);
  scratch.task(KernelPolicy::kMerge, probe, false, counters);
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
