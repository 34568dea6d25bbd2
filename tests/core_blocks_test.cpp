// Tests for BlockCsr: construction, transformed-index invariants, blob
// round-trips, the in-place patch merge, and the cyclic row-count helper.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

#include "tricount/core/block_matrix.hpp"
#include "tricount/util/rng.hpp"

namespace tricount::core {
namespace {

TEST(CyclicRowCount, MatchesBruteForce) {
  for (const VertexId n : {0u, 1u, 5u, 16u, 17u, 100u}) {
    for (const int q : {1, 2, 3, 4, 5, 13}) {
      for (int residue = 0; residue < q; ++residue) {
        VertexId expected = 0;
        for (VertexId v = 0; v < n; ++v) {
          if (v % static_cast<VertexId>(q) == static_cast<VertexId>(residue)) {
            ++expected;
          }
        }
        EXPECT_EQ(cyclic_row_count(n, q, residue), expected)
            << "n=" << n << " q=" << q << " r=" << residue;
      }
    }
  }
}

TEST(BlockCsr, FromEntriesSortsAndDeduplicates) {
  const std::vector<LocalEntry> entries = {
      {2, 9}, {0, 5}, {2, 1}, {0, 5}, {2, 4}};
  const BlockCsr block = BlockCsr::from_entries(4, entries);
  block.validate();
  EXPECT_EQ(block.num_local_rows(), 4u);
  EXPECT_EQ(block.num_entries(), 4u);  // one duplicate removed
  const auto row0 = block.row(0);
  EXPECT_EQ(std::vector<VertexId>(row0.begin(), row0.end()),
            (std::vector<VertexId>{5}));
  const auto row2 = block.row(2);
  EXPECT_EQ(std::vector<VertexId>(row2.begin(), row2.end()),
            (std::vector<VertexId>{1, 4, 9}));
  EXPECT_EQ(block.row_degree(1), 0u);
  EXPECT_EQ(block.nonempty(), (std::vector<VertexId>{0, 2}));
  EXPECT_EQ(block.max_row_degree(), 3u);
}

TEST(BlockCsr, FromEntriesKeepsAscendingRunsAndSortsTheirShuffle) {
  // scatter_2d's buckets carry each row as one ascending run, which the
  // build keeps as it arrives. The same entries shuffled over the buckets,
  // with repeats, must build the same block.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Xoshiro256 rng(seed);
    const auto rows = static_cast<VertexId>(1 + rng.bounded(30));
    const auto cols = static_cast<VertexId>(1 + rng.bounded(30));
    std::set<LocalEntry> live;
    const std::uint64_t fill = rng.bounded(rows * cols + 1);
    for (std::uint64_t i = 0; i < fill; ++i) {
      live.insert({static_cast<VertexId>(rng.bounded(rows)),
                   static_cast<VertexId>(rng.bounded(cols))});
    }
    std::vector<std::vector<LocalEntry>> runs(3);
    for (const LocalEntry& e : live) runs[e.row % 3].push_back(e);
    std::vector<LocalEntry> shuffled(live.begin(), live.end());
    for (std::size_t i = 0, size = shuffled.size(); i < size; i += 3) {
      shuffled.push_back(shuffled[i]);
    }
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    std::vector<std::vector<LocalEntry>> scattered(3);
    for (const LocalEntry& e : shuffled) {
      scattered[rng.bounded(3)].push_back(e);
    }

    const BlockCsr from_runs = BlockCsr::from_entries(rows, runs);
    from_runs.validate();
    std::vector<VertexId> expected_cols;
    for (const LocalEntry& e : live) expected_cols.push_back(e.col);
    EXPECT_EQ(from_runs.adj(), expected_cols) << "seed " << seed;
    EXPECT_EQ(BlockCsr::from_entries(rows, scattered), from_runs)
        << "seed " << seed;
  }
}

TEST(BlockCsr, EmptyBlock) {
  const BlockCsr block = BlockCsr::from_entries(5, std::vector<LocalEntry>{});
  block.validate();
  EXPECT_EQ(block.num_entries(), 0u);
  EXPECT_TRUE(block.nonempty().empty());
  EXPECT_EQ(block.max_row_degree(), 0u);
}

TEST(BlockCsr, ZeroRowBlock) {
  const BlockCsr block = BlockCsr::from_entries(0, std::vector<LocalEntry>{});
  block.validate();
  EXPECT_EQ(block.num_local_rows(), 0u);
}

TEST(BlockCsr, OutOfRangeRowThrows) {
  EXPECT_THROW(BlockCsr::from_entries(2, {{2, 0}}), std::out_of_range);
}

TEST(BlockCsr, BlobRoundTrip) {
  const std::vector<LocalEntry> entries = {
      {0, 3}, {1, 1}, {1, 7}, {3, 0}, {3, 2}, {3, 9}};
  const BlockCsr block = BlockCsr::from_entries(4, entries);
  const auto blob = block.to_blob();
  const BlockCsr restored = BlockCsr::from_blob(blob);
  restored.validate();
  EXPECT_EQ(restored, block);
}

TEST(BlockCsr, BlobRoundTripEmpty) {
  const BlockCsr block = BlockCsr::from_entries(3, std::vector<LocalEntry>{});
  EXPECT_EQ(BlockCsr::from_blob(block.to_blob()), block);
}

TEST(BlockCsr, BlobRejectsGarbage) {
  std::vector<std::byte> garbage(128, std::byte{0x42});
  EXPECT_THROW(BlockCsr::from_blob(garbage), std::runtime_error);
}

// --- patch: one linear merge instead of a rebuild -------------------------

TEST(BlockCsrPatch, EqualsRebuildOnRandomBlocks) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Xoshiro256 rng(seed);
    const auto rows = static_cast<VertexId>(1 + rng.bounded(30));
    const auto cols = static_cast<VertexId>(1 + rng.bounded(30));
    std::set<LocalEntry> live;
    const std::uint64_t fill = rng.bounded(rows * cols + 1);
    for (std::uint64_t i = 0; i < fill; ++i) {
      live.insert({static_cast<VertexId>(rng.bounded(rows)),
                   static_cast<VertexId>(rng.bounded(cols))});
    }
    BlockCsr block = BlockCsr::from_entries(
        rows, std::vector<LocalEntry>(live.begin(), live.end()));

    std::vector<LocalEntry> removed;
    std::vector<LocalEntry> added;
    for (const LocalEntry& e : live) {
      if (rng.bounded(4) == 0) removed.push_back(e);
    }
    for (int i = 0; i < 20; ++i) {
      const LocalEntry e{static_cast<VertexId>(rng.bounded(rows)),
                         static_cast<VertexId>(rng.bounded(cols))};
      if (live.count(e) == 0 &&
          std::find(added.begin(), added.end(), e) == added.end()) {
        added.push_back(e);
      }
    }
    for (const LocalEntry& e : removed) live.erase(e);
    live.insert(added.begin(), added.end());
    // Unsorted input: the patch sorts its own lists.
    std::reverse(removed.begin(), removed.end());
    block.patch(removed, added);
    block.validate();
    const std::vector<LocalEntry> expected(live.begin(), live.end());
    EXPECT_EQ(block, BlockCsr::from_entries(rows, expected)) << "seed " << seed;
  }
}

TEST(BlockCsrPatch, RowsLeaveAndJoinTheNonemptyList) {
  BlockCsr block = BlockCsr::from_entries(5, {{1, 4}, {3, 0}, {3, 2}});
  ASSERT_EQ(block.nonempty(), (std::vector<VertexId>{1, 3}));
  block.patch({{1, 4}}, {{0, 7}, {4, 1}, {4, 0}});
  block.validate();
  EXPECT_EQ(block.nonempty(), (std::vector<VertexId>{0, 3, 4}));
  EXPECT_EQ(block.row_degree(1), 0u);
  const auto row4 = block.row(4);
  EXPECT_EQ(std::vector<VertexId>(row4.begin(), row4.end()),
            (std::vector<VertexId>{0, 1}));
  EXPECT_EQ(block.xadj(), (std::vector<std::uint64_t>{0, 1, 1, 1, 3, 5}));
}

TEST(BlockCsrPatch, ZeroRowBlockPatchesToItself) {
  BlockCsr block = BlockCsr::from_entries(0, std::vector<LocalEntry>{});
  block.patch({}, {});
  block.validate();
  EXPECT_EQ(block, BlockCsr::from_entries(0, std::vector<LocalEntry>{}));
  EXPECT_THROW(block.patch({}, {{0, 0}}), std::out_of_range);
}

TEST(BlockCsrPatch, ContradictionsThrowAndLeaveTheBlock) {
  const BlockCsr original = BlockCsr::from_entries(3, {{0, 1}, {2, 5}});
  BlockCsr block = original;
  EXPECT_THROW(block.patch({{0, 2}}, {}), std::invalid_argument);  // absent
  EXPECT_THROW(block.patch({{1, 0}}, {}), std::invalid_argument);  // empty row
  EXPECT_THROW(block.patch({}, {{2, 5}}), std::invalid_argument);  // present
  EXPECT_THROW(block.patch({}, {{1, 3}, {1, 3}}), std::invalid_argument);
  EXPECT_THROW(block.patch({{0, 1}, {0, 1}}, {}), std::invalid_argument);
  EXPECT_THROW(block.patch({{0, 1}}, {{0, 1}}), std::invalid_argument);
  EXPECT_THROW(block.patch({}, {{3, 0}}), std::out_of_range);
  EXPECT_EQ(block, original);
}

}  // namespace
}  // namespace tricount::core
