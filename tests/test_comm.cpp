// Communication substrate: point-to-point ordering, barriers, every
// collective against a serial reference, across rank counts (including
// non-powers of two) and payload sizes.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <thread>

#include "comm/comm.hpp"
#include "common/errors.hpp"
#include "common/rng.hpp"

namespace pf15::comm {
namespace {

TEST(Comm, SendRecvDeliversPayload) {
  Cluster cluster(2);
  cluster.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 42, std::vector<float>{1.0f, 2.0f, 3.0f});
    } else {
      const auto msg = comm.recv(0, 42);
      ASSERT_EQ(msg.size(), 3u);
      EXPECT_FLOAT_EQ(msg[2], 3.0f);
    }
  });
}

TEST(Comm, MessagesArriveInSendOrder) {
  Cluster cluster(2);
  cluster.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      for (float i = 0; i < 20; ++i) {
        comm.send(1, 7, std::vector<float>{i});
      }
    } else {
      for (float i = 0; i < 20; ++i) {
        EXPECT_FLOAT_EQ(comm.recv(0, 7)[0], i);
      }
    }
  });
}

TEST(Comm, TagsAreIndependentChannels) {
  Cluster cluster(2);
  cluster.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 1, std::vector<float>{1.0f});
      comm.send(1, 2, std::vector<float>{2.0f});
    } else {
      // Receive in reverse tag order: must not block or cross over.
      EXPECT_FLOAT_EQ(comm.recv(0, 2)[0], 2.0f);
      EXPECT_FLOAT_EQ(comm.recv(0, 1)[0], 1.0f);
    }
  });
}

TEST(Comm, ProbeSeesPendingMessage) {
  Cluster cluster(2);
  cluster.run([](Communicator& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 5, std::vector<float>{9.0f});
      comm.barrier();
    } else {
      comm.barrier();
      EXPECT_TRUE(comm.probe(0, 5));
      EXPECT_FALSE(comm.probe(0, 6));
      comm.recv(0, 5);
      EXPECT_FALSE(comm.probe(0, 5));
    }
  });
}

TEST(Comm, BarrierSynchronizes) {
  const int n = 5;
  Cluster cluster(n);
  std::atomic<int> before{0}, after{0};
  cluster.run([&](Communicator& comm) {
    before++;
    comm.barrier();
    // Everyone must have incremented before anyone proceeds.
    EXPECT_EQ(before.load(), n);
    after++;
    comm.barrier();
    EXPECT_EQ(after.load(), n);
  });
}

TEST(Comm, RepeatedBarriersDoNotDeadlock) {
  Cluster cluster(4);
  cluster.run([](Communicator& comm) {
    for (int i = 0; i < 50; ++i) comm.barrier();
  });
}

class AllReduceSizes
    : public ::testing::TestWithParam<std::tuple<int, std::size_t, int>> {};

TEST_P(AllReduceSizes, SumMatchesSerialReference) {
  const int ranks = std::get<0>(GetParam());
  const std::size_t payload = std::get<1>(GetParam());
  const auto algo = static_cast<AllReduceAlgo>(std::get<2>(GetParam()));

  // Expected: elementwise sum over ranks of rank-dependent vectors.
  std::vector<float> expected(payload, 0.0f);
  for (int r = 0; r < ranks; ++r) {
    for (std::size_t i = 0; i < payload; ++i) {
      expected[i] += static_cast<float>(r + 1) +
                     static_cast<float>(i % 13) * 0.5f;
    }
  }

  Cluster cluster(ranks);
  cluster.run([&](Communicator& comm) {
    std::vector<float> data(payload);
    for (std::size_t i = 0; i < payload; ++i) {
      data[i] = static_cast<float>(comm.rank() + 1) +
                static_cast<float>(i % 13) * 0.5f;
    }
    comm.allreduce_sum(data, algo);
    for (std::size_t i = 0; i < payload; ++i) {
      ASSERT_NEAR(data[i], expected[i], 1e-3f)
          << "rank " << comm.rank() << " element " << i;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllReduceSizes,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16),   // rank counts
        ::testing::Values(std::size_t{1}, std::size_t{13},
                          std::size_t{1024}, std::size_t{4099}),
        ::testing::Values(0, 1, 2)));  // ring, recursive doubling, tree

TEST(Comm, BroadcastFromEveryRoot) {
  const int n = 6;
  for (int root = 0; root < n; ++root) {
    Cluster cluster(n);
    cluster.run([&](Communicator& comm) {
      std::vector<float> data(17, comm.rank() == root ? 3.5f : -1.0f);
      comm.broadcast(data, root);
      for (float v : data) ASSERT_FLOAT_EQ(v, 3.5f);
    });
  }
}

TEST(Comm, ReduceSumOnRoot) {
  const int n = 7;
  Cluster cluster(n);
  cluster.run([&](Communicator& comm) {
    std::vector<float> data{static_cast<float>(comm.rank())};
    comm.reduce_sum(data, 2);
    if (comm.rank() == 2) {
      EXPECT_FLOAT_EQ(data[0], static_cast<float>(n * (n - 1) / 2));
    }
  });
}

TEST(Comm, GatherConcatenatesInRankOrder) {
  const int n = 5;
  Cluster cluster(n);
  cluster.run([&](Communicator& comm) {
    const std::vector<float> mine{static_cast<float>(comm.rank() * 10),
                                  static_cast<float>(comm.rank() * 10 + 1)};
    const auto all = comm.gather(mine, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(all.size(), 2u * n);
      for (int r = 0; r < n; ++r) {
        EXPECT_FLOAT_EQ(all[2 * r], static_cast<float>(r * 10));
        EXPECT_FLOAT_EQ(all[2 * r + 1], static_cast<float>(r * 10 + 1));
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

TEST(Comm, SplitFormsDisjointGroups) {
  Cluster cluster(6);
  cluster.run([](Communicator& comm) {
    // Colors: {0,1,2} -> group A, {3,4,5} -> group B.
    const int color = comm.rank() / 3;
    Communicator sub = comm.split(color, comm.rank());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), comm.rank() % 3);
    // Group-local all-reduce must not leak across groups.
    std::vector<float> data{1.0f};
    sub.allreduce_sum(data);
    EXPECT_FLOAT_EQ(data[0], 3.0f);
  });
}

TEST(Comm, SplitRespectsKeyOrdering) {
  Cluster cluster(4);
  cluster.run([](Communicator& comm) {
    // All same color; key reverses the rank order.
    Communicator sub = comm.split(0, -comm.rank());
    EXPECT_EQ(sub.rank(), comm.size() - 1 - comm.rank());
  });
}

TEST(Comm, NestedSplits) {
  Cluster cluster(8);
  cluster.run([](Communicator& comm) {
    Communicator half = comm.split(comm.rank() / 4, comm.rank());
    Communicator quarter = half.split(half.rank() / 2, half.rank());
    EXPECT_EQ(quarter.size(), 2);
    std::vector<float> data{1.0f};
    quarter.allreduce_sum(data);
    EXPECT_FLOAT_EQ(data[0], 2.0f);
  });
}

TEST(Comm, ExceptionInRankPropagates) {
  Cluster cluster(2);
  EXPECT_THROW(cluster.run([](Communicator& comm) {
                 if (comm.rank() == 1) throw Error("rank 1 exploded");
               }),
               Error);
}

TEST(Comm, AllReduceManyRoundsStaysConsistent) {
  // Regression against cross-iteration tag collisions.
  Cluster cluster(4);
  cluster.run([](Communicator& comm) {
    for (int round = 1; round <= 30; ++round) {
      std::vector<float> data{static_cast<float>(comm.rank() + round)};
      comm.allreduce_sum(data, AllReduceAlgo::kRing);
      // sum over ranks of (rank + round) = 6 + 4*round.
      ASSERT_FLOAT_EQ(data[0], 6.0f + 4.0f * round) << "round " << round;
    }
  });
}

}  // namespace

// ---- Abort semantics (MPI_Abort stand-in) --------------------------------

TEST(Comm, PeerFailureUnblocksRecv) {
  // Rank 0 blocks in recv for a message rank 1 will never send because it
  // dies first. Without abort propagation this deadlocks; with it, run()
  // returns and rethrows rank 1's root-cause exception.
  Cluster cluster(2);
  try {
    cluster.run([](Communicator& comm) {
      if (comm.rank() == 1) throw Error("rank 1 died");
      (void)comm.recv(1, 7);
      FAIL() << "recv must not return a phantom message";
    });
    FAIL() << "run() must rethrow";
  } catch (const AbortedError&) {
    FAIL() << "root cause must win over the secondary abort";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "rank 1 died");
  }
}

TEST(Comm, PeerFailureUnblocksProbe) {
  // Rank 0 polls the way a parameter server polls its clients; rank 1
  // sends one message and dies. Polling for a message that will never
  // come must throw instead of reading false forever, the message that
  // did arrive still reads true, and run() rethrows the root cause.
  Cluster cluster(2);
  try {
    cluster.run([](Communicator& comm) {
      if (comm.rank() == 1) {
        comm.send(0, 7, std::vector<float>{1.0f});
        throw Error("rank 1 died");
      }
      EXPECT_THROW(
          { while (!comm.probe(1, 8)) std::this_thread::yield(); },
          AbortedError);
      EXPECT_TRUE(comm.probe(1, 7));
      EXPECT_EQ(comm.recv(1, 7), std::vector<float>{1.0f});
    });
    FAIL() << "run() must rethrow";
  } catch (const AbortedError&) {
    FAIL() << "root cause must win over the secondary abort";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "rank 1 died");
  }
}

TEST(Comm, PeerFailureUnblocksBarrier) {
  Cluster cluster(3);
  EXPECT_THROW(cluster.run([](Communicator& comm) {
                 if (comm.rank() == 2) throw Error("rank 2 died");
                 comm.barrier();
               }),
               Error);
}

TEST(Comm, PeerFailureUnblocksSplit) {
  Cluster cluster(3);
  EXPECT_THROW(cluster.run([](Communicator& comm) {
                 if (comm.rank() == 2) throw Error("rank 2 died");
                 (void)comm.split(0, comm.rank());
               }),
               Error);
}

TEST(Comm, IoStatsCountPointToPointTraffic) {
  // io_stats() is per world rank; diff around an isolated send/recv so
  // barrier traffic from setup doesn't pollute the expectation.
  Cluster cluster(2);
  cluster.run([](Communicator& comm) {
    comm.barrier();
    const IoStats before = comm.io_stats();
    if (comm.rank() == 0) {
      comm.send(1, 9, std::vector<float>{1.0f, 2.0f, 3.0f});
      const IoStats after = comm.io_stats();
      EXPECT_EQ(after.bytes_sent - before.bytes_sent, 12u);
      EXPECT_EQ(after.messages_sent - before.messages_sent, 1u);
    } else {
      (void)comm.recv(0, 9);
      const IoStats after = comm.io_stats();
      EXPECT_EQ(after.bytes_recv - before.bytes_recv, 12u);
      EXPECT_EQ(after.messages_recv - before.messages_recv, 1u);
    }
  });
}

TEST(Comm, ClockOffsetZeroOnRootAndBoundedOnPeers) {
  // Every rank lives in one process here, so the true offset is zero;
  // the handshake must return exactly 0 on the root and a small
  // barrier-skew-sized value everywhere else.
  Cluster cluster(3);
  cluster.run([](Communicator& comm) {
    const double offset = comm.clock_offset_us(/*root=*/0, /*rounds=*/4);
    if (comm.rank() == 0) {
      EXPECT_EQ(offset, 0.0);
    } else {
      // Median over barrier-synchronized rounds: scheduling skew only.
      EXPECT_LT(std::abs(offset), 1e5);  // 100 ms of slack for CI noise
    }
  });
}

TEST(Comm, MessagesSentBeforeAbortAreStillDelivered) {
  // Abort wakes waiters with nothing to read, but a message already in
  // the mailbox is consumed normally first.
  Cluster cluster(2);
  try {
    cluster.run([](Communicator& comm) {
      if (comm.rank() == 1) {
        std::vector<float> payload{42.0f};
        comm.send(0, 3, payload);
        throw Error("rank 1 died after sending");
      }
      const auto msg = comm.recv(1, 3);
      ASSERT_EQ(msg.size(), 1u);
      EXPECT_FLOAT_EQ(msg[0], 42.0f);
    });
    FAIL() << "run() must rethrow rank 1's error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "rank 1 died after sending");
  }
}

}  // namespace pf15::comm
