// Semantics tests for the work-stealing task scheduler
// (src/common/task_scheduler.hpp): spawn/wait completion, help-first
// nesting, steal-heavy counter reconciliation, continuation handoff
// under concurrent completion, and exception propagation out of stolen
// tasks. Bit-exactness of the parallel executor against the serial
// schedule lives with the graph tests (test_graph.cpp), where the real
// model plans are.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/task_scheduler.hpp"

namespace pf15 {
namespace {

TEST(TaskScheduler, SpawnWaitRunsEveryTask) {
  TaskScheduler sched(4);
  TaskSync sync;
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    sched.spawn(sync, [&] { ran++; });
  }
  sched.wait(sync);
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(sync.pending(), 0u);
}

TEST(TaskScheduler, ParallelForCoversRangeExactlyOnce) {
  TaskScheduler sched(4);
  std::vector<std::atomic<int>> hits(1000);
  sched.parallel_for(0, 1000, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskScheduler, ParallelForEmptyAndSingleton) {
  TaskScheduler sched(2);
  int ran = 0;
  sched.parallel_for(7, 7, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 0);
  // A single iteration runs inline on the caller.
  sched.parallel_for(7, 8, [&](std::size_t i) {
    ran += static_cast<int>(i);
  });
  EXPECT_EQ(ran, 7);
}

TEST(TaskScheduler, NestedWaitInsideTaskIsLegal) {
  // The core property the old pool lacked: a task may spawn-and-wait on
  // the same scheduler at any depth, because wait() executes pending
  // work instead of parking. Three levels deep on a 2-worker scheduler —
  // completion cannot rely on free workers, only on helping.
  TaskScheduler sched(2);
  std::atomic<int> leaf{0};
  TaskSync outer;
  sched.spawn(outer, [&] {
    sched.parallel_for(0, 4, [&](std::size_t) {
      sched.parallel_for(0, 4, [&](std::size_t) {
        sched.parallel_for(0, 4, [&](std::size_t) { leaf++; });
      });
    });
  });
  sched.wait(outer);
  EXPECT_EQ(leaf.load(), 4 * 4 * 4);
}

TEST(TaskScheduler, SingleWorkerStillCompletesNestedWork) {
  TaskScheduler sched(1);
  std::atomic<int> leaf{0};
  TaskSync sync;
  sched.spawn(sync, [&] {
    sched.parallel_for(0, 16, [&](std::size_t) { leaf++; });
  });
  sched.wait(sync);
  EXPECT_EQ(leaf.load(), 16);
}

TEST(TaskScheduler, CrossSchedulerParallelForIsAllowed) {
  // A worker of scheduler A may fan out on scheduler B: its wait helps
  // on B. CompileOptions::scheduler relies on this — a node of a plan
  // compiled onto a private scheduler waits on the global one inside the
  // conv backends. A detached task runs only on A's single worker, so
  // the waiting thread is that worker, never the test thread.
  TaskScheduler a(1);
  TaskScheduler b(2);
  std::atomic<int> sum{0};
  std::atomic<bool> on_a_worker{false};
  std::atomic<bool> done{false};
  a.spawn_detached([&] {
    on_a_worker = a.current_thread_in_scheduler();
    b.parallel_for(0, 10, [&](std::size_t i) {
      sum += static_cast<int>(i);
    });
    done = true;
  });
  while (!done.load()) std::this_thread::yield();
  EXPECT_TRUE(on_a_worker.load());
  EXPECT_EQ(sum.load(), 45);
}

TEST(TaskScheduler, CurrentThreadInSchedulerIdentifiesWorkers) {
  TaskScheduler sched(2);
  EXPECT_FALSE(sched.current_thread_in_scheduler());
  // A detached task can only ever run on a worker — the external thread
  // helps exclusively inside wait(), which is never entered here. (A
  // spawn+wait pair would be wrong: the helping waiter may execute the
  // task itself, on a non-worker thread.)
  std::atomic<bool> inside{false};
  std::atomic<bool> done{false};
  sched.spawn_detached([&] {
    inside = sched.current_thread_in_scheduler();
    done = true;
  });
  while (!done.load()) std::this_thread::yield();
  EXPECT_TRUE(inside.load());
}

TEST(TaskScheduler, StealHeavyCountersReconcile) {
  // One producer task fans out a large burst from its own deque while
  // every other worker (and the waiting external thread) can only get
  // work by stealing. Once quiescent the lifetime counters must
  // reconcile exactly: every spawn executed, nothing lost or doubled.
  TaskScheduler sched(4);
  constexpr int kBurst = 2000;
  std::atomic<int> ran{0};
  TaskSync sync;
  TaskSync producer_done;
  sched.spawn(producer_done, [&] {
    for (int i = 0; i < kBurst; ++i) {
      sched.spawn(sync, [&] {
        // A little work so thieves see a non-empty deque for a while.
        volatile int x = 0;
        for (int j = 0; j < 50; ++j) x = x + j;
        ran++;
      });
    }
  });
  sched.wait(producer_done);
  sched.wait(sync);
  EXPECT_EQ(ran.load(), kBurst);
  const TaskScheduler::Stats st = sched.stats();
  EXPECT_EQ(st.spawned, st.executed);
  EXPECT_LE(st.stolen, st.executed);
}

TEST(TaskScheduler, ContinuationRunsOnceAfterGroupDrains) {
  // on_complete registered while the watched group is actively draining
  // on other threads: the handoff cell must fire the continuation
  // exactly once, and only after every task of the group completed.
  TaskScheduler sched(4);
  for (int round = 0; round < 50; ++round) {
    TaskSync group;
    TaskSync cont;
    std::atomic<int> done{0};
    std::atomic<int> fired{0};
    std::atomic<int> seen_at_fire{-1};
    for (int i = 0; i < 8; ++i) {
      sched.spawn(group, [&] { done++; });
    }
    // Registration races against the group's completion — both the
    // "already drained" and the "drains later" paths are exercised
    // across rounds.
    sched.on_complete(group, cont, [&] {
      seen_at_fire = done.load();
      fired++;
    });
    sched.wait(cont);
    EXPECT_EQ(fired.load(), 1);
    EXPECT_EQ(seen_at_fire.load(), 8);
    sched.wait(group);  // group is also drained and reusable
  }
}

TEST(TaskScheduler, ContinuationOnAlreadyDrainedGroup) {
  TaskScheduler sched(2);
  TaskSync group;  // never spawned against: drained from the start
  TaskSync cont;
  std::atomic<bool> fired{false};
  sched.on_complete(group, cont, [&] { fired = true; });
  sched.wait(cont);
  EXPECT_TRUE(fired.load());
}

TEST(TaskScheduler, ExceptionPropagatesOutOfSpawnedTasks) {
  // The throwing task generally runs on a different thread (often a
  // thief) than the waiter; wait() must rethrow the recorded exception
  // on the waiting thread and leave the sync reusable.
  TaskScheduler sched(4);
  TaskSync sync;
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    sched.spawn(sync, [&, i] {
      ran++;
      if (i == 13) throw std::runtime_error("boom from task 13");
    });
  }
  std::string message;
  try {
    sched.wait(sync);
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  EXPECT_EQ(message, "boom from task 13");
  EXPECT_EQ(ran.load(), 64);
  EXPECT_EQ(sync.pending(), 0u);

  // The error was cleared by the rethrow: the same sync works again.
  sched.spawn(sync, [&] { ran++; });
  sched.wait(sync);
  EXPECT_EQ(ran.load(), 65);
}

TEST(TaskScheduler, ParallelForPropagatesWorkerException) {
  TaskScheduler sched(4);
  EXPECT_THROW(sched.parallel_for(0, 256,
                                  [&](std::size_t i) {
                                    if (i == 255) {
                                      throw std::runtime_error("late");
                                    }
                                  }),
               std::runtime_error);
  // The scheduler survives and keeps working after the throw.
  std::atomic<int> ran{0};
  sched.parallel_for(0, 32, [&](std::size_t) { ran++; });
  EXPECT_EQ(ran.load(), 32);
}

TEST(TaskScheduler, TaskSyncIsReusableAcrossWaves) {
  TaskScheduler sched(2);
  TaskSync sync;
  std::atomic<int> total{0};
  for (int wave = 0; wave < 10; ++wave) {
    for (int i = 0; i < 20; ++i) sched.spawn(sync, [&] { total++; });
    sched.wait(sync);
    EXPECT_EQ(sync.pending(), 0u);
  }
  EXPECT_EQ(total.load(), 200);
}

TEST(TaskScheduler, DetachedTasksDrainBeforeDestruction) {
  std::atomic<int> ran{0};
  {
    TaskScheduler sched(2);
    for (int i = 0; i < 50; ++i) {
      sched.spawn_detached([&] { ran++; });
    }
    // Destructor drains the queues before joining.
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(TaskScheduler, ExternalThreadsInjectConcurrently) {
  // Spawns from several non-worker threads go through the injection
  // queue; every task must land exactly once.
  TaskScheduler sched(2);
  TaskSync sync;
  std::atomic<int> ran{0};
  std::vector<std::thread> producers;
  for (int t = 0; t < 4; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < 100; ++i) sched.spawn(sync, [&] { ran++; });
    });
  }
  for (auto& p : producers) p.join();
  sched.wait(sync);
  EXPECT_EQ(ran.load(), 400);
  const TaskScheduler::Stats st = sched.stats();
  EXPECT_EQ(st.spawned, st.executed);
}

TEST(TaskScheduler, GlobalSchedulerIsSharedAndSized) {
  TaskScheduler& a = TaskScheduler::global();
  TaskScheduler& b = TaskScheduler::global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1u);
}

}  // namespace
}  // namespace pf15
