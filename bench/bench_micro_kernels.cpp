// Microbenchmarks (google-benchmark) of the kernels underlying the
// experiment results: hash build/lookup in both modes, map vs list
// intersection, the bitmap-vs-hash universe sweep behind the auto
// policy's bitmap budget, the pinned-row skew sweep behind its galloping
// rule, the probe-length sweep behind the SIMD bitmap probe's floor, blob
// serialization, and RMAT edge generation.
#include <benchmark/benchmark.h>

#include "tricount/core/block_matrix.hpp"
#include "tricount/graph/generators.hpp"
#include "tricount/hashmap/hash_set.hpp"
#include "tricount/kernels/intersect.hpp"
#include "tricount/util/rng.hpp"

namespace {

using tricount::graph::TriangleCount;
using tricount::graph::VertexId;
using tricount::hashmap::VertexHashSet;
using tricount::kernels::KernelPolicy;

std::vector<VertexId> random_keys(std::size_t n, std::uint64_t seed,
                                  std::uint64_t range) {
  tricount::util::Xoshiro256 rng(seed);
  std::vector<VertexId> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(static_cast<VertexId>(rng.bounded(range)));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

void BM_HashBuildDirect(benchmark::State& state) {
  const auto keys = random_keys(static_cast<std::size_t>(state.range(0)), 1,
                                1u << 24);
  VertexHashSet set;
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.build(keys, /*allow_direct=*/true));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(keys.size()) *
                          state.iterations());
}
BENCHMARK(BM_HashBuildDirect)->Range(16, 4096);

void BM_HashBuildProbing(benchmark::State& state) {
  const auto keys = random_keys(static_cast<std::size_t>(state.range(0)), 1,
                                1u << 24);
  VertexHashSet set;
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.build(keys, /*allow_direct=*/false));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(keys.size()) *
                          state.iterations());
}
BENCHMARK(BM_HashBuildProbing)->Range(16, 4096);

void BM_MapIntersection(benchmark::State& state) {
  const auto hashed = random_keys(static_cast<std::size_t>(state.range(0)), 1,
                                  1u << 20);
  const auto lookups = random_keys(static_cast<std::size_t>(state.range(0)), 2,
                                   1u << 20);
  VertexHashSet set;
  set.build(hashed, true);
  for (auto _ : state) {
    std::uint64_t hits = 0;
    for (const VertexId k : lookups) {
      if (set.contains(k)) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(lookups.size()) *
                          state.iterations());
}
BENCHMARK(BM_MapIntersection)->Range(64, 8192);

void BM_ListIntersection(benchmark::State& state) {
  const auto a = random_keys(static_cast<std::size_t>(state.range(0)), 1,
                             1u << 20);
  const auto b = random_keys(static_cast<std::size_t>(state.range(0)), 2,
                             1u << 20);
  for (auto _ : state) {
    std::uint64_t hits = 0;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] == b[j]) {
        ++hits;
        ++i;
        ++j;
      } else if (a[i] < b[j]) {
        ++i;
      } else {
        ++j;
      }
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(a.size()) *
                          state.iterations());
}
BENCHMARK(BM_ListIntersection)->Range(64, 8192);

void BM_GallopingIntersectionSkewed(benchmark::State& state) {
  // Needles 64 elements, haystack range(0): the skewed shape the auto
  // policy routes to galloping.
  const auto needles = random_keys(64, 1, 1u << 20);
  const auto haystack =
      random_keys(static_cast<std::size_t>(state.range(0)), 2, 1u << 20);
  tricount::kernels::KernelCounters counters;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tricount::kernels::galloping_intersect(needles, haystack, counters));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(needles.size()) *
                          state.iterations());
}
BENCHMARK(BM_GallopingIntersectionSkewed)->Range(2048, 131072);

void BM_MergeIntersectionSkewed(benchmark::State& state) {
  // The same skewed shape through the merge kernel, for comparison.
  const auto needles = random_keys(64, 1, 1u << 20);
  const auto haystack =
      random_keys(static_cast<std::size_t>(state.range(0)), 2, 1u << 20);
  tricount::kernels::KernelCounters counters;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tricount::kernels::merge_intersect(needles, haystack, counters));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(needles.size()) *
                          state.iterations());
}
BENCHMARK(BM_MergeIntersectionSkewed)->Range(2048, 131072);

void BM_BitmapIntersection(benchmark::State& state) {
  // Dense rows (range 4x the length) probed repeatedly — the bitmap
  // build amortizes across probes exactly as it does across a shift's
  // tasks.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto hashed = random_keys(n, 1, static_cast<std::uint64_t>(n) * 4);
  const auto probe = random_keys(n, 2, static_cast<std::uint64_t>(n) * 4);
  tricount::kernels::RowBitmap bitmap;
  bitmap.build(hashed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tricount::kernels::bitmap_probe(
        bitmap, probe, hashed.front(), /*clip=*/true));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(probe.size()) *
                          state.iterations());
}
BENCHMARK(BM_BitmapIntersection)->Range(64, 8192);

void BM_BitmapBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto hashed = random_keys(n, 1, static_cast<std::uint64_t>(n) * 4);
  tricount::kernels::RowBitmap bitmap;
  for (auto _ : state) {
    bitmap.build(hashed);
    benchmark::DoNotOptimize(bitmap.universe());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(hashed.size()) *
                          state.iterations());
}
BENCHMARK(BM_BitmapBuild)->Range(64, 8192);

void BM_BitmapVsHashUniverse(benchmark::State& state) {
  // The sweep behind AutoThresholds::kBitmapMaxUniverse: ns per task of
  // the bitmap (arg 0 = 0) and hash (1) kernels through IntersectScratch,
  // the lazy build included, for rows of length arg 1 over a universe of
  // 2^arg 2 ids. Each pinned row and its probes share a span of 2^12 ids
  // placed at random in the universe, so successive rows land on
  // different bitmap words, as they do in a block of a large graph.
  const KernelPolicy policy =
      state.range(0) == 0 ? KernelPolicy::kBitmap : KernelPolicy::kHash;
  const auto len = static_cast<std::size_t>(state.range(1));
  const std::uint64_t universe = std::uint64_t{1} << state.range(2);
  constexpr std::uint64_t kSpan = 1u << 12;
  constexpr std::size_t kRows = 4096;
  constexpr std::size_t kProbesPerRow = 4;
  tricount::util::Xoshiro256 rng(11);
  std::vector<std::vector<VertexId>> rows;
  std::vector<std::vector<VertexId>> probes;
  auto placed = [&](VertexId base) {
    auto row = random_keys(len, rng(), kSpan);
    for (VertexId& v : row) v += base;
    return row;
  };
  for (std::size_t r = 0; r < kRows; ++r) {
    const auto base = static_cast<VertexId>(rng.bounded(universe - kSpan));
    rows.push_back(placed(base));
    for (std::size_t t = 0; t < kProbesPerRow; ++t) {
      probes.push_back(placed(base));
    }
  }
  tricount::kernels::IntersectScratch scratch;
  scratch.reserve_for(len);
  tricount::kernels::KernelCounters counters;
  for (auto _ : state) {
    TriangleCount hits = 0;
    for (std::size_t r = 0; r < kRows; ++r) {
      hits += scratch.intersect_row(
          policy, rows[r], /*allow_direct=*/true,
          /*backward_early_exit=*/true, counters, [&](auto&& emit) {
            for (std::size_t t = 0; t < kProbesPerRow; ++t) {
              emit(probes[r * kProbesPerRow + t]);
            }
          });
    }
    benchmark::DoNotOptimize(hits);
  }
  // Printed as time per task (an inverted rate, e.g. "20.1ns").
  state.counters["per_task"] = benchmark::Counter(
      static_cast<double>(kRows * kProbesPerRow),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_BitmapVsHashUniverse)
    ->ArgsProduct({{0, 1}, {4, 8, 16, 32, 64}, {14, 16, 18, 20, 22, 24, 26}})
    ->ArgNames({"hash", "len", "log2_universe"});

void BM_PinnedRowSkew(benchmark::State& state) {
  // The sweep behind kAuto's galloping rule: ns per task of galloping
  // (arg 0 = 0) and the bitmap (1) through IntersectScratch, the bitmap
  // build included, when the pinned row is arg 2 times as long as its
  // probes of arg 1 ids and each row takes arg 3 tasks. A row and its
  // probes share a span of 4x the row's length, placed at random in a
  // universe of 2^17 ids, as a hub row and the short tails closing at it
  // do in cetric on RMAT s17.
  const KernelPolicy policy =
      state.range(0) == 0 ? KernelPolicy::kGalloping : KernelPolicy::kBitmap;
  const auto probe_len = static_cast<std::size_t>(state.range(1));
  const std::size_t row_len =
      probe_len * static_cast<std::size_t>(state.range(2));
  const auto tasks = static_cast<std::size_t>(state.range(3));
  const std::uint64_t span = 4 * row_len;
  constexpr std::uint64_t kUniverse = 1u << 17;
  constexpr std::size_t kRows = 256;
  tricount::util::Xoshiro256 rng(13);
  std::vector<std::vector<VertexId>> rows;
  std::vector<std::vector<VertexId>> probes;
  auto placed = [&](std::size_t len, VertexId base) {
    auto row = random_keys(len, rng(), span);
    for (VertexId& v : row) v += base;
    return row;
  };
  for (std::size_t r = 0; r < kRows; ++r) {
    const auto base = static_cast<VertexId>(rng.bounded(kUniverse - span));
    rows.push_back(placed(row_len, base));
    for (std::size_t t = 0; t < tasks; ++t) {
      probes.push_back(placed(probe_len, base));
    }
  }
  tricount::kernels::IntersectScratch scratch;
  scratch.reserve_for(row_len);
  tricount::kernels::KernelCounters counters;
  for (auto _ : state) {
    TriangleCount hits = 0;
    for (std::size_t r = 0; r < kRows; ++r) {
      hits += scratch.intersect_row(
          policy, rows[r], /*allow_direct=*/true,
          /*backward_early_exit=*/true, counters, [&](auto&& emit) {
            for (std::size_t t = 0; t < tasks; ++t) {
              emit(probes[r * tasks + t]);
            }
          });
    }
    benchmark::DoNotOptimize(hits);
  }
  state.counters["per_task"] = benchmark::Counter(
      static_cast<double>(kRows * tasks),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_PinnedRowSkew)
    ->ArgsProduct({{0, 1}, {1, 2, 4, 8}, {32, 128, 1024}, {1, 4, 32}})
    ->ArgNames({"bitmap", "probe", "skew", "tasks"});

void BM_BitmapProbeLength(benchmark::State& state) {
  // The sweep behind kSimdProbeFloor: ns per probe of the scalar (arg 0 =
  // 0) and the SIMD (1) bitmap probe, clip on, for probes of arg 1 ids
  // over a universe of 2^arg 2 ids. Each of 64 pinned rows and its 8
  // probes draw ids from one span of 4x the probe length placed at
  // random in the universe, so a probe runs both below the row's min
  // (the clip) and past its max (the stop). Bitmaps are built outside
  // the timed loop.
  const bool simd = state.range(0) != 0;
  if (simd && !tricount::kernels::simd_probe_supported()) {
    state.SkipWithError("this CPU has no AVX2");
    return;
  }
  const auto len = static_cast<std::size_t>(state.range(1));
  const std::uint64_t universe = std::uint64_t{1} << state.range(2);
  const std::uint64_t span = 4 * len;
  constexpr std::size_t kRows = 64;
  constexpr std::size_t kProbesPerRow = 8;
  tricount::util::Xoshiro256 rng(17);
  std::vector<std::vector<VertexId>> rows;
  std::vector<std::vector<VertexId>> probes;
  std::vector<tricount::kernels::RowBitmap> bitmaps(kRows);
  auto placed = [&](VertexId base) {  // exactly len distinct ids
    std::vector<VertexId> row;
    while (row.size() < len) {
      auto more = random_keys(len - row.size(), rng(), span);
      row.insert(row.end(), more.begin(), more.end());
      std::sort(row.begin(), row.end());
      row.erase(std::unique(row.begin(), row.end()), row.end());
    }
    for (VertexId& v : row) v += base;
    return row;
  };
  for (std::size_t r = 0; r < kRows; ++r) {
    const auto base = static_cast<VertexId>(rng.bounded(universe - span));
    rows.push_back(placed(base));
    bitmaps[r].build(rows[r]);
    for (std::size_t t = 0; t < kProbesPerRow; ++t) {
      probes.push_back(placed(base));
    }
  }
  for (auto _ : state) {
    std::uint64_t hits = 0;
    for (std::size_t r = 0; r < kRows; ++r) {
      for (std::size_t t = 0; t < kProbesPerRow; ++t) {
        const auto& probe = probes[r * kProbesPerRow + t];
        hits += simd ? tricount::kernels::bitmap_probe_simd(
                           bitmaps[r], probe, rows[r].front(), true)
                           .hits
                     : tricount::kernels::bitmap_probe_scalar(
                           bitmaps[r], probe, rows[r].front(), true)
                           .hits;
      }
    }
    benchmark::DoNotOptimize(hits);
  }
  state.counters["per_probe"] = benchmark::Counter(
      static_cast<double>(kRows * kProbesPerRow),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_BitmapProbeLength)
    ->ArgsProduct({{0, 1},
                   {2, 4, 8, 12, 16, 24, 32, 64, 256, 1024, 4096},
                   {16, 20}})
    ->ArgNames({"simd", "len", "log2_universe"});

void BM_BlockBlobRoundTrip(benchmark::State& state) {
  std::vector<tricount::core::LocalEntry> entries;
  tricount::util::Xoshiro256 rng(3);
  const auto rows = static_cast<VertexId>(state.range(0));
  for (int i = 0; i < state.range(0) * 8; ++i) {
    entries.push_back({static_cast<VertexId>(rng.bounded(rows)),
                       static_cast<VertexId>(rng.bounded(1u << 20))});
  }
  const auto block = tricount::core::BlockCsr::from_entries(rows, entries);
  for (auto _ : state) {
    const auto blob = block.to_blob();
    benchmark::DoNotOptimize(tricount::core::BlockCsr::from_blob(blob));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(block.to_blob().size()) * state.iterations());
}
BENCHMARK(BM_BlockBlobRoundTrip)->Range(256, 16384);

void BM_RmatEdgeGeneration(benchmark::State& state) {
  tricount::graph::RmatParams params;
  params.scale = 20;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tricount::graph::rmat_edge_slice(
        params, 0, static_cast<tricount::graph::EdgeIndex>(state.range(0))));
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
}
BENCHMARK(BM_RmatEdgeGeneration)->Range(1024, 65536);

}  // namespace

BENCHMARK_MAIN();
