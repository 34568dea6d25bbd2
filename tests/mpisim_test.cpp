// Tests for the message-passing runtime: point-to-point semantics,
// collective correctness against sequential oracles, topology helpers,
// failure propagation, performance counters, and job isolation on a
// PersistentWorld under chaos.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "tricount/mpisim/cart2d.hpp"
#include "tricount/mpisim/collectives.hpp"
#include "tricount/mpisim/recovery.hpp"
#include "tricount/mpisim/runtime.hpp"

namespace tricount::mpisim {
namespace {

TEST(PointToPoint, SendRecvDeliversPayload) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 7, std::vector<int>{1, 2, 3});
    } else {
      const auto got = comm.recv<int>(0, 7);
      EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
    }
  });
}

TEST(PointToPoint, TagMatchingSelectsMessage) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, /*tag=*/1, 100);
      comm.send_value<int>(1, /*tag=*/2, 200);
    } else {
      // Receive out of send order by tag.
      EXPECT_EQ(comm.recv_value<int>(0, 2), 200);
      EXPECT_EQ(comm.recv_value<int>(0, 1), 100);
    }
  });
}

TEST(PointToPoint, NonOvertakingPerSourceAndTag) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 50; ++i) comm.send_value<int>(1, 3, i);
    } else {
      for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(comm.recv_value<int>(0, 3), i);
      }
    }
  });
}

TEST(PointToPoint, WildcardSourceReceivesFromAnyone) {
  run_world(4, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<int> got;
      for (int i = 0; i < 3; ++i) {
        got.push_back(comm.recv_value<int>(kAnySource, 5));
      }
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
    } else {
      comm.send_value<int>(0, 5, comm.rank());
    }
  });
}

TEST(PointToPoint, SendrecvRingDoesNotDeadlock) {
  run_world(5, [](Comm& comm) {
    const int right = (comm.rank() + 1) % comm.size();
    const int left = (comm.rank() - 1 + comm.size()) % comm.size();
    const auto got = comm.sendrecv<int>(right, 9, std::vector<int>{comm.rank()},
                                        left, 9);
    EXPECT_EQ(got, std::vector<int>{left});
  });
}

TEST(PointToPoint, EmptyPayloadAllowed) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 4, std::vector<int>{});
    } else {
      EXPECT_TRUE(comm.recv<int>(0, 4).empty());
    }
  });
}

TEST(PointToPoint, SendToInvalidRankThrows) {
  EXPECT_THROW(run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) comm.send_value<int>(5, 0, 1);
    // rank 1 exits immediately; failure propagation handles rank 0.
  }), std::invalid_argument);
}

TEST(Runtime, RankExceptionPropagatesAndUnblocksPeers) {
  EXPECT_THROW(run_world(3, [](Comm& comm) {
    if (comm.rank() == 0) {
      throw std::runtime_error("rank 0 exploded");
    }
    // These ranks block forever unless the failure wakes them.
    (void)comm.recv_message(kAnySource, 1);
  }), std::runtime_error);
}

TEST(PointToPoint, IprobeSeesPendingMessage) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, 6, 1);
      comm.send_value<int>(1, 8, 2);  // completion signal
    } else {
      // Wait for both messages to be queued, then probe selectively.
      (void)comm.recv_value<int>(0, 8);
      EXPECT_TRUE(comm.iprobe(0, 6));
      EXPECT_TRUE(comm.iprobe(kAnySource, kAnyTag));
      EXPECT_FALSE(comm.iprobe(0, 99));
      (void)comm.recv_value<int>(0, 6);
      EXPECT_FALSE(comm.iprobe(kAnySource, kAnyTag));
    }
  });
}

// --- non-blocking requests -------------------------------------------------

TEST(Requests, IsendCompletesImmediatelyAndBufferIsReusable) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<int> buffer{1, 2, 3};
      Request req =
          comm.isend_bytes(1, 7, std::as_bytes(std::span<const int>(buffer)));
      EXPECT_TRUE(req.done());  // buffered send: copied before return
      buffer.assign({9, 9, 9});  // must not affect the in-flight payload
      Message& m = req.wait();
      EXPECT_TRUE(m.payload.empty());  // send requests carry no message
    } else {
      EXPECT_EQ(comm.recv<int>(0, 7), (std::vector<int>{1, 2, 3}));
    }
  });
}

TEST(Requests, IrecvWaitDeliversPayload) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 11, std::vector<int>{4, 5});
    } else {
      Request req = comm.irecv(0, 11);
      EXPECT_FALSE(req.done());
      Message& m = req.wait();
      EXPECT_EQ(m.source, 0);
      EXPECT_EQ(m.tag, 11);
      EXPECT_EQ(Comm::unpack<int>(m.payload), (std::vector<int>{4, 5}));
      // Waiting twice is a no-op and returns the retained message.
      EXPECT_EQ(Comm::unpack<int>(req.wait().payload),
                (std::vector<int>{4, 5}));
    }
  });
}

TEST(Requests, TestPollsWithoutBlocking) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      (void)comm.recv_value<int>(1, 2);  // sync: peer posted its irecv
      comm.send_value<int>(1, 1, 42);
    } else {
      Request req = comm.irecv(0, 1);
      EXPECT_FALSE(req.test());  // nothing sent yet
      comm.send_value<int>(0, 2, 0);
      while (!req.test()) {
      }
      EXPECT_TRUE(req.done());
      EXPECT_EQ(Comm::unpack<int>(req.wait().payload), std::vector<int>{42});
    }
  });
}

TEST(Requests, OutOfOrderCompletionAcrossTags) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      // Sent in tag order 21 then 22; receiver completes 22 first.
      comm.send_value<int>(1, 21, 100);
      comm.send_value<int>(1, 22, 200);
    } else {
      Request first = comm.irecv(0, 21);
      Request second = comm.irecv(0, 22);
      EXPECT_EQ(Comm::unpack<int>(second.wait().payload),
                std::vector<int>{200});
      EXPECT_FALSE(first.done());
      EXPECT_EQ(Comm::unpack<int>(first.wait().payload),
                std::vector<int>{100});
    }
  });
}

TEST(Requests, AnySourceIrecvMatchesAnyone) {
  run_world(4, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<int> got;
      for (int i = 0; i < 3; ++i) {
        Request req = comm.irecv(kAnySource, 5);
        got.push_back(Comm::unpack<int>(req.wait().payload).at(0));
      }
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
    } else {
      comm.send_value<int>(0, 5, comm.rank());
    }
  });
}

TEST(Requests, WaitAllCompletesEveryRequest) {
  run_world(4, [](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<Request> requests;
      requests.push_back(Request());  // empty handles are skipped
      for (int src = 1; src < 4; ++src) {
        requests.push_back(comm.irecv(src, 6));
      }
      wait_all(requests);
      std::vector<int> got;
      for (Request& r : requests) {
        if (!r.empty()) got.push_back(Comm::unpack<int>(r.wait().payload).at(0));
      }
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, (std::vector<int>{10, 20, 30}));
    } else {
      comm.send_value<int>(0, 6, comm.rank() * 10);
    }
  });
}

TEST(Requests, MoveTransfersOwnership) {
  run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value<int>(1, 13, 7);
    } else {
      Request req = comm.irecv(0, 13);
      Request moved = std::move(req);
      EXPECT_TRUE(req.empty());  // NOLINT(bugprone-use-after-move)
      EXPECT_FALSE(moved.empty());
      EXPECT_EQ(Comm::unpack<int>(moved.wait().payload), std::vector<int>{7});
    }
  });
}

TEST(Requests, WaitOnEmptyRequestThrows) {
  run_world(1, [](Comm&) {
    Request empty;
    EXPECT_THROW(empty.wait(), std::logic_error);
  });
}

TEST(Requests, CountersChargeCompletionNotPosting) {
  const auto counters = run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      (void)comm.isend_bytes(
          1, 2, std::as_bytes(std::span<const std::uint64_t>(
                    std::vector<std::uint64_t>{1, 2, 3, 4})));
    } else {
      Request req = comm.irecv(0, 2);
      req.wait();
    }
  }).counters;
  EXPECT_EQ(counters[0].messages_sent, 1u);
  EXPECT_EQ(counters[0].bytes_sent, 32u);
  EXPECT_EQ(counters[1].messages_received, 1u);
  EXPECT_EQ(counters[1].bytes_received, 32u);
}

TEST(Runtime, CountersTrackTraffic) {
  const auto counters = run_world(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<std::uint64_t>(1, 2, std::vector<std::uint64_t>{1, 2, 3, 4});
    } else {
      (void)comm.recv<std::uint64_t>(0, 2);
    }
  }).counters;
  EXPECT_EQ(counters[0].messages_sent, 1u);
  EXPECT_EQ(counters[0].bytes_sent, 32u);
  EXPECT_EQ(counters[1].messages_received, 1u);
  EXPECT_EQ(counters[1].bytes_received, 32u);
}

TEST(Runtime, SingleRankWorldRunsInline) {
  const auto counters = run_world(1, [](Comm& comm) {
    EXPECT_EQ(comm.rank(), 0);
    EXPECT_EQ(comm.size(), 1);
  }).counters;
  EXPECT_EQ(counters.size(), 1u);
}

TEST(Runtime, InvalidWorldSizeThrows) {
  EXPECT_THROW(run_world(0, [](Comm&) {}), std::invalid_argument);
}

// --- collectives -----------------------------------------------------------

class CollectivesTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesTest, Barrier) {
  const int p = GetParam();
  std::atomic<int> entered{0};
  run_world(p, [&](Comm& comm) {
    entered.fetch_add(1);
    barrier(comm);
    EXPECT_EQ(entered.load(), p);
  });
}

TEST_P(CollectivesTest, BcastFromEveryRoot) {
  const int p = GetParam();
  for (int root = 0; root < p; ++root) {
    run_world(p, [&](Comm& comm) {
      std::vector<int> data;
      if (comm.rank() == root) data = {root, 17, 23};
      bcast(comm, data, root);
      EXPECT_EQ(data, (std::vector<int>{root, 17, 23}));
    });
  }
}

TEST_P(CollectivesTest, AllreduceSum) {
  const int p = GetParam();
  run_world(p, [&](Comm& comm) {
    const int total = allreduce_sum(comm, comm.rank() + 1);
    EXPECT_EQ(total, p * (p + 1) / 2);
  });
}

TEST_P(CollectivesTest, AllreduceMax) {
  const int p = GetParam();
  run_world(p, [&](Comm& comm) {
    EXPECT_EQ(allreduce_max(comm, comm.rank() * 3), (p - 1) * 3);
  });
}

TEST_P(CollectivesTest, ElementwiseVectorAllreduce) {
  const int p = GetParam();
  run_world(p, [&](Comm& comm) {
    std::vector<std::uint64_t> data = {1, static_cast<std::uint64_t>(comm.rank()), 2};
    allreduce(comm, data, std::plus<std::uint64_t>());
    EXPECT_EQ(data[0], static_cast<std::uint64_t>(p));
    EXPECT_EQ(data[1], static_cast<std::uint64_t>(p * (p - 1) / 2));
    EXPECT_EQ(data[2], static_cast<std::uint64_t>(2 * p));
  });
}

TEST_P(CollectivesTest, GathervCollectsInRankOrder) {
  const int p = GetParam();
  run_world(p, [&](Comm& comm) {
    // Rank r contributes r copies of its rank id.
    const std::vector<int> local(static_cast<std::size_t>(comm.rank()),
                                 comm.rank());
    const auto gathered = gatherv(comm, local, /*root=*/0);
    if (comm.rank() == 0) {
      ASSERT_EQ(gathered.size(), static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(gathered[static_cast<std::size_t>(r)].size(),
                  static_cast<std::size_t>(r));
      }
    } else {
      EXPECT_TRUE(gathered.empty());
    }
  });
}

TEST_P(CollectivesTest, AllgathervEveryoneSeesEverything) {
  const int p = GetParam();
  run_world(p, [&](Comm& comm) {
    const std::vector<int> local = {comm.rank(), comm.rank() * 10};
    const auto all = allgatherv(comm, local);
    ASSERT_EQ(all.size(), static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)],
                (std::vector<int>{r, r * 10}));
    }
  });
}

TEST_P(CollectivesTest, AlltoallvPersonalizedExchange) {
  const int p = GetParam();
  run_world(p, [&](Comm& comm) {
    // Rank r sends {r*100 + dest} to each dest.
    std::vector<std::vector<int>> outgoing(static_cast<std::size_t>(p));
    for (int dest = 0; dest < p; ++dest) {
      outgoing[static_cast<std::size_t>(dest)] = {comm.rank() * 100 + dest};
    }
    const auto incoming = alltoallv(comm, outgoing);
    ASSERT_EQ(incoming.size(), static_cast<std::size_t>(p));
    for (int src = 0; src < p; ++src) {
      EXPECT_EQ(incoming[static_cast<std::size_t>(src)],
                (std::vector<int>{src * 100 + comm.rank()}));
    }
  });
}

TEST_P(CollectivesTest, AlltoallvVariableSizes) {
  const int p = GetParam();
  run_world(p, [&](Comm& comm) {
    // Rank r sends (r + dest) % 3 elements to dest.
    std::vector<std::vector<int>> outgoing(static_cast<std::size_t>(p));
    for (int dest = 0; dest < p; ++dest) {
      outgoing[static_cast<std::size_t>(dest)]
          .assign(static_cast<std::size_t>((comm.rank() + dest) % 3), dest);
    }
    const auto incoming = alltoallv(comm, outgoing);
    for (int src = 0; src < p; ++src) {
      EXPECT_EQ(incoming[static_cast<std::size_t>(src)].size(),
                static_cast<std::size_t>((src + comm.rank()) % 3));
    }
  });
}

TEST(CollectivesGroup, BcastGroupWithinRowsOfAGrid) {
  // 3x3 grid: broadcast within each row from a per-row root; the column
  // groups must not interfere.
  run_world(9, [](Comm& comm) {
    const int row = comm.rank() / 3;
    const int col = comm.rank() % 3;
    std::vector<int> row_members = {row * 3, row * 3 + 1, row * 3 + 2};
    const int root_index = row % 3;
    std::vector<int> data;
    if (col == root_index) data = {row * 100, 7};
    bcast_group(comm, data, std::span<const int>(row_members), root_index);
    EXPECT_EQ(data, (std::vector<int>{row * 100, 7}));

    // Then a column broadcast, exercising tag alignment across groups.
    std::vector<int> col_members = {col, col + 3, col + 6};
    std::vector<int> col_data;
    if (row == 0) col_data = {col * 11};
    bcast_group(comm, col_data, std::span<const int>(col_members), 0);
    EXPECT_EQ(col_data, (std::vector<int>{col * 11}));
  });
}

TEST(CollectivesGroup, SingletonGroupIsNoop) {
  run_world(2, [](Comm& comm) {
    std::vector<int> members = {comm.rank()};
    std::vector<int> data = {comm.rank()};
    bcast_group(comm, data, std::span<const int>(members), 0);
    EXPECT_EQ(data[0], comm.rank());
  });
}

TEST(CollectivesGroup, NonMemberCallThrows) {
  run_world(3, [](Comm& comm) {
    std::vector<int> members = {0, 1};
    std::vector<int> data;
    if (comm.rank() == 2) {
      EXPECT_THROW(
          bcast_group(comm, data, std::span<const int>(members), 0),
          std::invalid_argument);
      return;
    }
    if (comm.rank() == 0) data = {42};
    bcast_group(comm, data, std::span<const int>(members), 0);
    EXPECT_EQ(data, std::vector<int>{42});
  });
}

TEST_P(CollectivesTest, ScattervDeliversPerRankBuckets) {
  const int p = GetParam();
  run_world(p, [&](Comm& comm) {
    std::vector<std::vector<int>> buckets;
    if (comm.rank() == 0) {
      buckets.resize(static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        buckets[static_cast<std::size_t>(r)].assign(
            static_cast<std::size_t>(r + 1), r * 7);
      }
    }
    const auto mine = scatterv(comm, buckets, 0);
    EXPECT_EQ(mine.size(), static_cast<std::size_t>(comm.rank() + 1));
    for (const int v : mine) EXPECT_EQ(v, comm.rank() * 7);
  });
}

TEST_P(CollectivesTest, ReduceScatterBlock) {
  const int p = GetParam();
  run_world(p, [&](Comm& comm) {
    // Every rank contributes vector [0, 1, ..., 2p-1] scaled by its rank+1.
    std::vector<std::uint64_t> data(static_cast<std::size_t>(2 * p));
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = i * static_cast<std::size_t>(comm.rank() + 1);
    }
    const auto mine =
        reduce_scatter_block(comm, data, std::plus<std::uint64_t>());
    // Reduced element i = i * sum(1..p); rank r owns elements [2r, 2r+2).
    const std::uint64_t scale =
        static_cast<std::uint64_t>(p) * static_cast<std::uint64_t>(p + 1) / 2;
    ASSERT_EQ(mine.size(), 2u);
    EXPECT_EQ(mine[0], static_cast<std::uint64_t>(2 * comm.rank()) * scale);
    EXPECT_EQ(mine[1], static_cast<std::uint64_t>(2 * comm.rank() + 1) * scale);
  });
}

TEST_P(CollectivesTest, ScanAndExscanSum) {
  const int p = GetParam();
  run_world(p, [&](Comm& comm) {
    const int r = comm.rank();
    EXPECT_EQ(exscan_sum(comm, r + 1), r * (r + 1) / 2);
    EXPECT_EQ(scan_sum(comm, r + 1), (r + 1) * (r + 2) / 2);
  });
}

TEST_P(CollectivesTest, VectorScanExscan) {
  const int p = GetParam();
  run_world(p, [&](Comm& comm) {
    const int r = comm.rank();
    std::vector<std::uint64_t> data = {1, static_cast<std::uint64_t>(r)};
    const auto excl = scan_and_exscan(comm, data, std::plus<std::uint64_t>(),
                                      std::uint64_t{0});
    EXPECT_EQ(data[0], static_cast<std::uint64_t>(r + 1));        // inclusive count
    EXPECT_EQ(excl[0], static_cast<std::uint64_t>(r));            // exclusive count
    EXPECT_EQ(data[1], static_cast<std::uint64_t>(r * (r + 1) / 2));
    EXPECT_EQ(excl[1], static_cast<std::uint64_t>(r >= 1 ? r * (r - 1) / 2 : 0));
  });
}

TEST_P(CollectivesTest, BackToBackCollectivesDoNotInterfere) {
  const int p = GetParam();
  run_world(p, [&](Comm& comm) {
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(allreduce_sum(comm, 1), p);
      barrier(comm);
      EXPECT_EQ(bcast_value(comm, comm.rank() == i % p ? 99 : -1, i % p), 99);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectivesTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 16));

// --- Cart2D ------------------------------------------------------------------

TEST(Cart2D, PerfectSquareRoot) {
  EXPECT_EQ(perfect_square_root(1), 1);
  EXPECT_EQ(perfect_square_root(4), 2);
  EXPECT_EQ(perfect_square_root(169), 13);
  EXPECT_EQ(perfect_square_root(2), 0);
  EXPECT_EQ(perfect_square_root(0), 0);
  EXPECT_EQ(perfect_square_root(-9), 0);
}

TEST(Cart2D, CoordinatesAndNeighbors) {
  run_world(9, [](Comm& comm) {
    Cart2D grid(comm);
    EXPECT_EQ(grid.q(), 3);
    EXPECT_EQ(grid.rank_of(grid.row(), grid.col()), comm.rank());
    EXPECT_EQ(grid.row(), comm.rank() / 3);
    EXPECT_EQ(grid.col(), comm.rank() % 3);
    // Wraparound: left of column 0 is column q-1.
    EXPECT_EQ(grid.left(), grid.rank_of(grid.row(), (grid.col() + 2) % 3));
    EXPECT_EQ(grid.up(), grid.rank_of((grid.row() + 2) % 3, grid.col()));
    EXPECT_EQ(grid.right(), grid.rank_of(grid.row(), (grid.col() + 1) % 3));
    EXPECT_EQ(grid.down(), grid.rank_of((grid.row() + 1) % 3, grid.col()));
  });
}

TEST(Cart2D, NonSquareWorldThrows) {
  run_world(6, [](Comm& comm) {
    EXPECT_THROW(Cart2D grid(comm), std::invalid_argument);
  });
}

TEST(Cart2D, ShiftRingReturnsToStart) {
  // Shifting a token left q times around a grid row returns it home.
  run_world(16, [](Comm& comm) {
    Cart2D grid(comm);
    int token = comm.rank();
    for (int s = 0; s < grid.q(); ++s) {
      token = comm.sendrecv<int>(grid.left(), 11, std::vector<int>{token},
                                 grid.right(), 11)[0];
    }
    EXPECT_EQ(token, comm.rank());
  });
}

// --- crash recovery (mpisim/recovery.hpp) -----------------------------------

/// Crashes rank 1 once, at superstep 1; injects no message faults.
class CrashRankOne : public FaultInjector {
 public:
  FaultAction on_message(int, int, int, std::uint64_t, int) const override {
    return {};
  }
  double straggler_factor(int) const override { return 1.0; }
  int crash_superstep(int rank) const override { return rank == 1 ? 1 : -1; }
};

TEST(Recovery, CrashedSuperstepRunsTwiceAndKeepsTheReplay) {
  const CrashRankOne plan;
  WorldOptions options;
  options.fault_injector = &plan;
  std::vector<std::vector<int>> calls(3, std::vector<int>(3, 0));
  std::vector<std::vector<int>> kept(3, std::vector<int>(3, 0));
  const WorldReport report = run_world(
      3,
      [&](Comm& comm) {
        auto& mine = calls[static_cast<std::size_t>(comm.rank())];
        for (int step = 0; step < 3; ++step) {
          auto& count = mine[static_cast<std::size_t>(step)];
          // Returns which execution produced the value: a replay must be
          // the one the caller keeps.
          kept[static_cast<std::size_t>(comm.rank())]
              [static_cast<std::size_t>(step)] =
                  run_superstep(comm, step, [&] { return ++count; });
        }
      },
      options);
  for (int rank = 0; rank < 3; ++rank) {
    const auto r = static_cast<std::size_t>(rank);
    const int crashed = rank == 1 ? 1 : -1;
    for (int step = 0; step < 3; ++step) {
      const int runs = step == crashed ? 2 : 1;
      EXPECT_EQ(calls[r][static_cast<std::size_t>(step)], runs);
      EXPECT_EQ(kept[r][static_cast<std::size_t>(step)], runs);
    }
    EXPECT_EQ(report.chaos[r].crashes, rank == 1 ? 1u : 0u);
    EXPECT_EQ(report.chaos[r].recoveries, report.chaos[r].crashes);
  }
}

TEST(Recovery, NoInjectorRunsEachSuperstepOnce) {
  int runs = 0;
  run_world(2, [&](Comm& comm) {
    EXPECT_EQ(crash_superstep(comm), -1);
    if (comm.rank() == 0) (void)run_superstep(comm, 0, [&] { return ++runs; });
  });
  EXPECT_EQ(runs, 1);
}

// --- PersistentWorld under chaos ---------------------------------------------

/// Duplicates every transmission. The receiver takes the first copy and
/// returns, so the second one is still queued when the job ends.
class DuplicateEverything : public FaultInjector {
 public:
  FaultAction on_message(int, int, int, std::uint64_t, int) const override {
    FaultAction action;
    action.duplicate = true;
    return action;
  }
  double straggler_factor(int) const override { return 1.0; }
  int crash_superstep(int) const override { return -1; }
};

TEST(PersistentWorld, StaleCopiesNeverCrossJobs) {
  const DuplicateEverything plan;
  WorldOptions options;
  options.fault_injector = &plan;
  PersistentWorld world(2, options);
  // Both jobs send on one tag, and each job's channels restart at
  // sequence 1: a copy left over from the first job would pass for the
  // second job's message.
  for (const int payload : {100, 101}) {
    int received = 0;
    const WorldReport report = world.run_job([&](Comm& comm) {
      if (comm.rank() == 0) {
        comm.send_value<int>(1, 7, payload);
      } else {
        received = comm.recv_value<int>(0, 7);
      }
    });
    EXPECT_EQ(received, payload);
    EXPECT_EQ(report.chaos[0].duplicates_injected, 1u) << payload;
  }
  EXPECT_EQ(world.jobs_run(), 2u);
}

/// Faults first attempts only, picked by sequence number, so a job's
/// injections are a pure function of its messages: retransmits go clean.
class FaultFirstAttempts : public FaultInjector {
 public:
  FaultAction on_message(int, int, int, std::uint64_t seq,
                         int attempt) const override {
    FaultAction action;
    if (attempt > 1) return action;
    switch (seq % 4) {
      case 0:
        action.drop = true;
        break;
      case 1:
        action.duplicate = true;
        break;
      case 2:
        action.reorder = true;
        break;
      default:
        action.delay_seconds = 1e-4;
    }
    return action;
  }
  double straggler_factor(int) const override { return 1.0; }
  int crash_superstep(int) const override { return -1; }
  double retry_timeout_seconds() const override { return 1e-3; }
};

TEST(PersistentWorld, ChaosTalliesArePerJob) {
  const FaultFirstAttempts plan;
  WorldOptions options;
  options.fault_injector = &plan;
  constexpr int p = 4;
  // Job k: every rank sends k + 4 values to every peer, then reduces.
  auto job = [](int k) {
    return [k](Comm& comm) {
      for (int peer = 0; peer < comm.size(); ++peer) {
        if (peer == comm.rank()) continue;
        for (int i = 0; i < k + 4; ++i) comm.send_value<int>(peer, 3, i);
      }
      for (int peer = 0; peer < comm.size(); ++peer) {
        if (peer == comm.rank()) continue;
        for (int i = 0; i < k + 4; ++i) {
          EXPECT_EQ(comm.recv_value<int>(peer, 3), i);
        }
      }
      EXPECT_EQ(allreduce_sum(comm, std::uint64_t{1}),
                static_cast<std::uint64_t>(comm.size()));
    };
  };
  PersistentWorld shared(p, options);
  for (int k = 0; k < 3; ++k) {
    const WorldReport alone = run_world(p, job(k), options);
    const WorldReport reused = shared.run_job(job(k));
    ChaosCounters total;
    for (int r = 0; r < p; ++r) {
      const ChaosCounters& got = reused.chaos[static_cast<std::size_t>(r)];
      const ChaosCounters& want = alone.chaos[static_cast<std::size_t>(r)];
      EXPECT_EQ(got.drops_injected, want.drops_injected) << k << "/" << r;
      EXPECT_EQ(got.duplicates_injected, want.duplicates_injected)
          << k << "/" << r;
      EXPECT_EQ(got.reorders_injected, want.reorders_injected)
          << k << "/" << r;
      EXPECT_EQ(got.delays_injected, want.delays_injected) << k << "/" << r;
      EXPECT_DOUBLE_EQ(got.delay_modeled_seconds, want.delay_modeled_seconds)
          << k << "/" << r;
      total += got;
    }
    EXPECT_GT(total.drops_injected, 0u) << k;
    EXPECT_GT(total.duplicates_injected, 0u) << k;
    EXPECT_GT(total.reorders_injected, 0u) << k;
    EXPECT_GT(total.delays_injected, 0u) << k;
  }
}

}  // namespace
}  // namespace tricount::mpisim
