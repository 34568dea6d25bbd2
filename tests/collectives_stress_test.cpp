// Randomized stress test of the collective layer: long random sequences
// of mixed collectives with random payload sizes, validated against
// sequential oracles computed from the same seeds. Exercises tag-space
// discipline (every rank must stay in lockstep across hundreds of
// collectives) far beyond what the unit tests cover.
#include <gtest/gtest.h>

#include <numeric>

#include "tricount/mpisim/collectives.hpp"
#include "tricount/mpisim/runtime.hpp"
#include "tricount/util/rng.hpp"

namespace tricount::mpisim {
namespace {

/// Deterministic payload for (seed, rank, round, index).
std::uint64_t value_of(std::uint64_t seed, int rank, int round, int i) {
  return util::stream_seed(seed, (static_cast<std::uint64_t>(rank) << 40) ^
                                     (static_cast<std::uint64_t>(round) << 20) ^
                                     static_cast<std::uint64_t>(i)) &
         0xffff;  // small values so sums never overflow
}

class CollectivesStress
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(CollectivesStress, LongMixedSequencesStayInLockstep) {
  const auto [p, seed] = GetParam();
  run_world(p, [&, p_ = p, seed_ = seed](Comm& comm) {
    // Every rank derives the same schedule from the seed, as SPMD code
    // would; payloads depend on (rank, round).
    util::Xoshiro256 schedule(seed_);
    for (int round = 0; round < 60; ++round) {
      const std::uint64_t op = schedule.bounded(6);
      const int len = 1 + static_cast<int>(schedule.bounded(40));
      const int root = static_cast<int>(schedule.bounded(static_cast<std::uint64_t>(p_)));
      switch (op) {
        case 0: {  // allreduce sum of per-rank vectors
          std::vector<std::uint64_t> mine(static_cast<std::size_t>(len));
          for (int i = 0; i < len; ++i) {
            mine[static_cast<std::size_t>(i)] =
                value_of(seed_, comm.rank(), round, i);
          }
          allreduce(comm, mine, std::plus<std::uint64_t>());
          for (int i = 0; i < len; ++i) {
            std::uint64_t expected = 0;
            for (int r = 0; r < p_; ++r) expected += value_of(seed_, r, round, i);
            ASSERT_EQ(mine[static_cast<std::size_t>(i)], expected)
                << "round " << round;
          }
          break;
        }
        case 1: {  // bcast from a random root
          std::vector<std::uint64_t> data;
          if (comm.rank() == root) {
            data.resize(static_cast<std::size_t>(len));
            for (int i = 0; i < len; ++i) {
              data[static_cast<std::size_t>(i)] = value_of(seed_, root, round, i);
            }
          }
          bcast(comm, data, root);
          ASSERT_EQ(data.size(), static_cast<std::size_t>(len));
          for (int i = 0; i < len; ++i) {
            ASSERT_EQ(data[static_cast<std::size_t>(i)],
                      value_of(seed_, root, round, i));
          }
          break;
        }
        case 2: {  // alltoallv with size depending on (src, dest)
          std::vector<std::vector<std::uint64_t>> out(static_cast<std::size_t>(p_));
          for (int dest = 0; dest < p_; ++dest) {
            const int count = (comm.rank() + dest + round) % 5;
            out[static_cast<std::size_t>(dest)].assign(
                static_cast<std::size_t>(count),
                value_of(seed_, comm.rank(), round, dest));
          }
          const auto in = alltoallv(comm, out);
          for (int src = 0; src < p_; ++src) {
            const int count = (src + comm.rank() + round) % 5;
            ASSERT_EQ(in[static_cast<std::size_t>(src)].size(),
                      static_cast<std::size_t>(count));
            for (const std::uint64_t v : in[static_cast<std::size_t>(src)]) {
              ASSERT_EQ(v, value_of(seed_, src, round, comm.rank()));
            }
          }
          break;
        }
        case 3: {  // inclusive and exclusive prefix sums
          std::vector<std::uint64_t> mine{
              static_cast<std::uint64_t>(comm.rank() + round)};
          std::uint64_t expected = 0;
          for (int r = 0; r < comm.rank(); ++r) {
            expected += static_cast<std::uint64_t>(r + round);
          }
          const auto exclusive = scan_and_exscan(
              comm, mine, std::plus<std::uint64_t>(), std::uint64_t{0});
          ASSERT_EQ(exclusive, std::vector<std::uint64_t>{expected});
          ASSERT_EQ(mine, std::vector<std::uint64_t>{
                              expected + static_cast<std::uint64_t>(
                                             comm.rank() + round)});
          break;
        }
        case 4: {  // gatherv to a random root, then barrier
          const std::vector<std::uint64_t> mine(
              static_cast<std::size_t>(comm.rank() % 3 + 1),
              value_of(seed_, comm.rank(), round, 0));
          const auto gathered = gatherv(comm, mine, root);
          if (comm.rank() == root) {
            for (int r = 0; r < p_; ++r) {
              ASSERT_EQ(gathered[static_cast<std::size_t>(r)].size(),
                        static_cast<std::size_t>(r % 3 + 1));
            }
          }
          barrier(comm);
          break;
        }
        default: {  // allgatherv of one value per rank
          const auto all = allgatherv(
              comm, std::vector<std::uint64_t>{
                        value_of(seed_, comm.rank(), round, 1)});
          for (int r = 0; r < p_; ++r) {
            ASSERT_EQ(all[static_cast<std::size_t>(r)],
                      std::vector<std::uint64_t>{value_of(seed_, r, round, 1)});
          }
          break;
        }
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    WorldsAndSeeds, CollectivesStress,
    ::testing::Combine(::testing::Values(2, 3, 5, 8, 13),
                       ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace tricount::mpisim
