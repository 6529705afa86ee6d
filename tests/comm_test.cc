#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>

#include "src/comm/comm.h"

namespace ucp {
namespace {

// Runs `body(rank, group)` on `n` threads sharing one group over ranks [0, n).
void RunGroup(int n, const std::function<void(int, ProcessGroup&)>& body) {
  World world(n);
  std::vector<int> ranks(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    ranks[static_cast<size_t>(i)] = i;
  }
  auto state = world.CreateGroup(ranks);
  RunSpmd(n, [&](int rank) {
    ProcessGroup group(state, rank);
    body(rank, group);
  });
}

TEST(CommTest, AllReduceSumAllRanksSeeTotal) {
  const int n = 4;
  std::vector<Tensor> results(n);
  RunGroup(n, [&](int rank, ProcessGroup& group) {
    Tensor t = Tensor::Full({8}, static_cast<float>(rank + 1));
    group.AllReduceSum(t);
    results[static_cast<size_t>(rank)] = t;
  });
  for (int r = 0; r < n; ++r) {
    EXPECT_TRUE(Tensor::BitEqual(results[static_cast<size_t>(r)], Tensor::Full({8}, 10.0f)));
  }
}

TEST(CommTest, AllReduceDeterministicAcrossRepeats) {
  // Summation order is group order, not arrival order: repeated runs are bit-identical even
  // for values where fp addition is not associative.
  const int n = 6;
  auto run_once = [&] {
    std::vector<Tensor> results(n);
    RunGroup(n, [&](int rank, ProcessGroup& group) {
      Tensor t = Tensor::Full({4}, 0.1f * static_cast<float>(rank) + 1e-7f);
      for (int i = 0; i < 50; ++i) {
        Tensor copy = t.Clone();
        group.AllReduceSum(copy);
        if (i == 49) {
          results[static_cast<size_t>(rank)] = copy;
        }
      }
    });
    return results;
  };
  auto a = run_once();
  auto b = run_once();
  for (int r = 0; r < n; ++r) {
    EXPECT_TRUE(Tensor::BitEqual(a[static_cast<size_t>(r)], b[static_cast<size_t>(r)]));
    EXPECT_TRUE(Tensor::BitEqual(a[0], a[static_cast<size_t>(r)]));
  }
}

TEST(CommTest, AllReduceMax) {
  const int n = 3;
  std::vector<float> results(n);
  RunGroup(n, [&](int rank, ProcessGroup& group) {
    Tensor t = Tensor::Full({1}, rank == 1 ? 9.0f : -1.0f);
    group.AllReduceMax(t);
    results[static_cast<size_t>(rank)] = t.at(0);
  });
  for (float r : results) {
    EXPECT_EQ(r, 9.0f);
  }
}

TEST(CommTest, ScalarReductions) {
  const int n = 5;
  std::vector<double> sums(n);
  std::vector<double> maxes(n);
  RunGroup(n, [&](int rank, ProcessGroup& group) {
    sums[static_cast<size_t>(rank)] = group.AllReduceSumScalar(rank);
    maxes[static_cast<size_t>(rank)] = group.AllReduceMaxScalar(rank * 1.5);
  });
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(sums[static_cast<size_t>(r)], 10.0);
    EXPECT_EQ(maxes[static_cast<size_t>(r)], 6.0);
  }
}

TEST(CommTest, AllGatherTensorsRaggedShapes) {
  // ZeRO-3 gathers shards whose sizes differ across ranks.
  const int n = 3;
  std::vector<std::vector<Tensor>> results(n);
  RunGroup(n, [&](int rank, ProcessGroup& group) {
    Tensor t = Tensor::Full({rank + 1}, static_cast<float>(rank));
    results[static_cast<size_t>(rank)] = group.AllGatherTensors(t);
  });
  for (int r = 0; r < n; ++r) {
    ASSERT_EQ(results[static_cast<size_t>(r)].size(), 3u);
    for (int s = 0; s < n; ++s) {
      EXPECT_EQ(results[static_cast<size_t>(r)][static_cast<size_t>(s)].numel(), s + 1);
      EXPECT_EQ(results[static_cast<size_t>(r)][static_cast<size_t>(s)].at(0),
                static_cast<float>(s));
    }
  }
}

TEST(CommTest, AllGatherConcatOrderedByRank) {
  const int n = 4;
  std::vector<Tensor> results(n);
  RunGroup(n, [&](int rank, ProcessGroup& group) {
    Tensor t = Tensor::Full({1, 2}, static_cast<float>(rank));
    results[static_cast<size_t>(rank)] = group.AllGatherConcat(t, 0);
  });
  for (int r = 0; r < n; ++r) {
    const Tensor& g = results[static_cast<size_t>(r)];
    EXPECT_EQ(g.shape(), (Shape{4, 2}));
    for (int s = 0; s < n; ++s) {
      EXPECT_EQ(g.at(s * 2), static_cast<float>(s));
    }
  }
}

TEST(CommTest, ReduceScatterSumGivesOwnedSlice) {
  const int n = 2;
  std::vector<Tensor> results(n);
  RunGroup(n, [&](int rank, ProcessGroup& group) {
    // rank 0 contributes [0,1,2,3], rank 1 contributes [10,11,12,13].
    Tensor full = Tensor::Zeros({4});
    for (int i = 0; i < 4; ++i) {
      full.at(i) = static_cast<float>(rank * 10 + i);
    }
    Tensor shard = Tensor::Zeros({2});
    group.ReduceScatterSum(full, shard);
    results[static_cast<size_t>(rank)] = shard;
  });
  EXPECT_EQ(results[0].at(0), 10.0f);  // 0 + 10
  EXPECT_EQ(results[0].at(1), 12.0f);  // 1 + 11
  EXPECT_EQ(results[1].at(0), 14.0f);  // 2 + 12
  EXPECT_EQ(results[1].at(1), 16.0f);  // 3 + 13
}

TEST(CommTest, BroadcastFromNonZeroRoot) {
  const int n = 3;
  std::vector<Tensor> results(n);
  RunGroup(n, [&](int rank, ProcessGroup& group) {
    Tensor t = Tensor::Full({4}, static_cast<float>(rank));
    group.Broadcast(t, /*root_index=*/2);
    results[static_cast<size_t>(rank)] = t;
  });
  for (int r = 0; r < n; ++r) {
    EXPECT_TRUE(Tensor::BitEqual(results[static_cast<size_t>(r)], Tensor::Full({4}, 2.0f)));
  }
}

TEST(CommTest, BackToBackCollectivesDoNotInterleave) {
  // A rank finishing op k must not corrupt peers still inside op k; generations protect the
  // rendezvous. Run many rounds with asymmetric work to shake out races.
  const int n = 4;
  RunGroup(n, [&](int rank, ProcessGroup& group) {
    for (int round = 0; round < 200; ++round) {
      Tensor t = Tensor::Full({4}, static_cast<float>(rank + round));
      group.AllReduceSum(t);
      float expected = static_cast<float>(n * round + n * (n - 1) / 2);
      UCP_CHECK_EQ(t.at(0), expected) << "round " << round << " rank " << rank;
    }
  });
}

TEST(CommTest, SubgroupsOperateIndependently) {
  World world(4);
  auto even = world.CreateGroup({0, 2});
  auto odd = world.CreateGroup({1, 3});
  std::vector<double> results(4);
  RunSpmd(4, [&](int rank) {
    ProcessGroup group(rank % 2 == 0 ? even : odd, rank);
    results[static_cast<size_t>(rank)] = group.AllReduceSumScalar(rank);
  });
  EXPECT_EQ(results[0], 2.0);
  EXPECT_EQ(results[2], 2.0);
  EXPECT_EQ(results[1], 4.0);
  EXPECT_EQ(results[3], 4.0);
}

TEST(CommTest, SizeOneGroupIsIdentity) {
  World world(1);
  auto state = world.CreateGroup({0});
  ProcessGroup group(state, 0);
  Tensor t = Tensor::Full({3}, 7.0f);
  group.AllReduceSum(t);
  EXPECT_TRUE(Tensor::BitEqual(t, Tensor::Full({3}, 7.0f)));
  EXPECT_EQ(group.AllReduceSumScalar(5.0), 5.0);
}

TEST(CommTest, SendRecvFifoOrder) {
  World world(2);
  std::vector<float> received;
  RunSpmd(2, [&](int rank) {
    if (rank == 0) {
      for (int i = 0; i < 5; ++i) {
        world.Send(0, 1, Tensor::Full({1}, static_cast<float>(i)));
      }
    } else {
      for (int i = 0; i < 5; ++i) {
        received.push_back(world.Recv(0, 1).at(0));
      }
    }
  });
  EXPECT_EQ(received, (std::vector<float>{0, 1, 2, 3, 4}));
}

TEST(CommTest, SendCopiesPayload) {
  World world(2);
  RunSpmd(2, [&](int rank) {
    if (rank == 0) {
      Tensor t = Tensor::Full({2}, 1.0f);
      world.Send(0, 1, t);
      t.Fill_(99.0f);  // mutation after send must not affect the receiver
    } else {
      Tensor got = world.Recv(0, 1);
      UCP_CHECK_EQ(got.at(0), 1.0f);
    }
  });
}

TEST(CommTest, BidirectionalChannelsDistinct) {
  World world(2);
  RunSpmd(2, [&](int rank) {
    int other = 1 - rank;
    world.Send(rank, other, Tensor::Full({1}, static_cast<float>(rank)));
    Tensor got = world.Recv(other, rank);
    UCP_CHECK_EQ(got.at(0), static_cast<float>(other));
  });
}

TEST(CommTest, BarrierSynchronizes) {
  const int n = 4;
  std::atomic<int> arrived{0};
  RunGroup(n, [&](int, ProcessGroup& group) {
    arrived.fetch_add(1);
    group.Barrier();
    UCP_CHECK_EQ(arrived.load(), n);
  });
}

// ---------------------------------------------------------------------------
// Failure detection: death marks at the first wait that needs the dead rank, the watchdog
// for ranks that stop unmarked.
// ---------------------------------------------------------------------------

using std::chrono::milliseconds;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

RankFailure KilledAt(int rank) {
  RankFailure failure;
  failure.kind = RankFailure::Kind::kInjected;
  failure.rank = rank;
  failure.site = "test";
  return failure;
}

// Rank 0 dies; rank 1 waits on it in group {0, 1}, rank 2 waits on rank 1 in group {1, 2}.
// Both unwind with rank 0's failure long before the watchdog, rank 1 even with its watchdog
// suspended, and the world is never aborted.
TEST(CommFailureTest, DeathMarkUnwindsWaitersAtOnceAndCascades) {
  World world(3, WorldOptions{milliseconds(10000)});
  auto first = world.CreateGroup({0, 1});
  auto second = world.CreateGroup({1, 2});
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::optional<RankFailure>> failures = RunSpmdFallible(3, [&](int rank) {
    if (rank == 0) {
      world.MarkDead(0, KilledAt(0));
      return;
    }
    Tensor t = Tensor::Full({4}, 1.0f);
    if (rank == 1) {
      ScopedWatchdogSuspend suspend;
      ProcessGroup(first, rank).AllReduceSum(t);
    } else {
      ProcessGroup(second, rank).AllReduceSum(t);
    }
  });
  EXPECT_LT(SecondsSince(t0), 1.0);
  EXPECT_FALSE(world.aborted());
  EXPECT_FALSE(failures[0].has_value());
  for (int r : {1, 2}) {
    ASSERT_TRUE(failures[static_cast<size_t>(r)].has_value()) << "rank " << r;
    EXPECT_EQ(failures[static_cast<size_t>(r)]->kind, RankFailure::Kind::kInjected);
    EXPECT_EQ(failures[static_cast<size_t>(r)]->rank, 0);
  }
}

TEST(CommFailureTest, WaitsWithoutDeadMemberProceed) {
  World world(3, WorldOptions{milliseconds(10000)});
  world.MarkDead(2, KilledAt(2));
  auto live = world.CreateGroup({0, 1});
  std::vector<float> sums(2, 0.0f);
  RunSpmd(2, [&](int rank) {
    Tensor t = Tensor::Full({1}, static_cast<float>(rank + 1));
    ProcessGroup(live, rank).AllReduceSum(t);
    sums[static_cast<size_t>(rank)] = t.at(0);
    if (rank == 0) {
      world.Send(0, 1, Tensor::Full({1}, 7.0f));
    } else {
      UCP_CHECK_EQ(world.Recv(0, 1).at(0), 7.0f);
    }
  });
  EXPECT_EQ(sums, (std::vector<float>{3.0f, 3.0f}));
}

// A message sent before the sender died is still delivered; the next receive fails at once.
TEST(CommFailureTest, RecvFromDeadSenderDeliversQueuedThenThrows) {
  World world(2, WorldOptions{milliseconds(10000)});
  world.Send(0, 1, Tensor::Full({1}, 5.0f));
  world.MarkDead(0, KilledAt(0));
  EXPECT_EQ(world.Recv(0, 1).at(0), 5.0f);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    world.Recv(0, 1);
    ADD_FAILURE() << "receive from a dead sender returned";
  } catch (const RankFailureError& e) {
    EXPECT_EQ(e.failure().rank, 0);
    EXPECT_EQ(e.failure().kind, RankFailure::Kind::kInjected);
  }
  EXPECT_LT(SecondsSince(t0), 1.0);
  EXPECT_FALSE(world.aborted());
}

// A rank that stops without a mark (a hang) is seen only when the watchdog expires, and the
// detector aborts the world blaming it.
TEST(CommFailureTest, UnmarkedStopIsSeenOnlyByTheWatchdog) {
  const milliseconds watchdog(200);
  World world(2, WorldOptions{watchdog});
  auto group = world.CreateGroup({0, 1});
  std::vector<std::optional<RankFailure>> failures = RunSpmdFallible(2, [&](int rank) {
    if (rank == 0) {
      return;
    }
    Tensor t = Tensor::Full({1}, 1.0f);
    ProcessGroup(group, rank).AllReduceSum(t);
  });
  ASSERT_TRUE(failures[1].has_value());
  EXPECT_EQ(failures[1]->kind, RankFailure::Kind::kWatchdog);
  EXPECT_EQ(failures[1]->rank, 0);
  EXPECT_GE(failures[1]->blocked_seconds, 0.2);
  EXPECT_TRUE(world.aborted());
}

}  // namespace
}  // namespace ucp
