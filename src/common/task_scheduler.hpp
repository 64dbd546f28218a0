// Work-stealing task scheduler: the process-wide compute substrate.
//
// Unlike a flat thread pool (which forbids nested waits, forcing a
// serial switch through every layer under a parallel level), nesting is
// legal on this scheduler *by construction*:
//
//   - Each worker owns a Chase–Lev deque: the owner pushes and pops at
//     the bottom (LIFO, cache-hot child tasks first), thieves steal from
//     the top (FIFO, the oldest — typically largest — task). The deque
//     is lock-free; only the pop/steal race on the last element takes a
//     compare-exchange. The implementation uses plain atomic operations
//     (seq_cst where the Dekker-style pop/steal handshake needs it) and
//     no std::atomic_thread_fence, which TSan cannot model.
//   - Completion is tracked by TaskSync: an atomic pending counter plus
//     an optional continuation task that is handed off exactly once when
//     the counter drains — task-graph continuations instead of blocking
//     joins.
//   - wait(sync) is *help-first*: while the counter is nonzero the
//     waiting thread executes pending work (its own deque, the injection
//     queue, then stealing) instead of blocking. A task may therefore
//     spawn-and-wait freely at any depth — the executor fans out over
//     nodes, each node over its batch, each conv backend over its
//     transform-domain GEMMs, all on the same scheduler.
//
// External (non-worker) threads spawn through a mutex-guarded injection
// queue and help the same way while waiting, so e.g. a serving replica
// thread blocked on a compiled plan contributes compute instead of
// sleeping. Sleeping workers are woken through an epoch counter + a
// condition variable with a 1ms timeout backstop (a lost wakeup costs a
// millisecond, never a hang).
//
// Schedulers compose: a task on one scheduler may parallel_for on
// another (a node of a plan compiled onto a private scheduler waits on
// the global one inside the conv backends).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

namespace pf15 {

class TaskScheduler;
namespace detail {
struct TaskNode;
class WorkDeque;
}  // namespace detail

/// Completion tracker for a group of spawned tasks. Stack-allocate one,
/// spawn against it, then wait() — it must outlive every task spawned
/// against it (wait() guarantees this). A TaskSync is reusable after
/// wait() returns. Not copyable, not movable (tasks hold its address).
class TaskSync {
 public:
  TaskSync() = default;
  TaskSync(const TaskSync&) = delete;
  TaskSync& operator=(const TaskSync&) = delete;
  ~TaskSync();

  /// Tasks spawned but not yet completed (racy snapshot; exact only when
  /// quiescent).
  std::size_t pending() const {
    return pending_.load(std::memory_order_acquire);
  }

 private:
  friend class TaskScheduler;

  /// First exception thrown by a task of this group (first writer wins);
  /// rethrown — and cleared — by wait().
  void record_error(std::exception_ptr e);

  std::atomic<std::size_t> pending_{0};
  /// Completers currently inside TaskScheduler::complete() for this sync.
  /// Raised *before* the pending_ decrement, dropped after the last
  /// access to this object — wait() returns (and the sync may be
  /// destroyed, e.g. parallel_for's stack TaskSync) only once this is
  /// zero, so a completer between "decrement to zero" and "claim the
  /// continuation cell" never touches a dead sync.
  std::atomic<std::size_t> completers_{0};
  /// Continuation handoff cell (a detail::TaskNode*). Written once by
  /// on_complete(), claimed (exchanged to null) exactly once by whichever
  /// side observes the drained counter last.
  std::atomic<void*> continuation_{nullptr};
  Mutex error_mutex_;
  std::exception_ptr error_ PF15_GUARDED_BY(error_mutex_);
  std::atomic<bool> has_error_{false};
};

class TaskScheduler {
 public:
  /// Creates `threads` workers. 0 means hardware_concurrency (min 1).
  explicit TaskScheduler(std::size_t threads = 0);
  /// Drains every queued task, then joins the workers. Tasks tracked by a
  /// TaskSync must already be waited for (their sync's wait() returned).
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Number of worker threads. An external caller inside wait() or
  /// parallel_for() helps too, so peak concurrency is size() + 1.
  std::size_t size() const { return workers_.size(); }

  /// Process-wide scheduler sized to the machine. All kernel-internal
  /// parallelism (GEMM, the layers' image loops, the compiled executor)
  /// shares it.
  static TaskScheduler& global();

  /// True when the calling thread is one of this scheduler's workers.
  /// Informational only — unlike the old pool, waiting from a worker is
  /// legal (the wait helps instead of blocking).
  bool current_thread_in_scheduler() const;

  /// Schedules fn on the scheduler, tracked by `sync`. Never blocks.
  /// From a worker thread the task goes to the worker's own deque (LIFO
  /// — children run before the parent's siblings are stolen); from any
  /// other thread it goes through the injection queue.
  void spawn(TaskSync& sync, std::function<void()> fn);

  /// Schedules fn untracked; any exception it throws is logged and
  /// dropped (there is no one to rethrow to). Prefer spawn() + wait().
  void spawn_detached(std::function<void()> fn);

  /// Continuation: when `when` drains to zero pending tasks, fn is
  /// scheduled as a task tracked by `track` (whose pending count is
  /// raised immediately, so a wait(track) already covers the
  /// continuation before it is runnable). One continuation per TaskSync
  /// at a time; `when` and `track` must differ. If `when` is already
  /// drained, fn is scheduled immediately.
  void on_complete(TaskSync& when, TaskSync& track,
                   std::function<void()> fn);

  /// Blocks until every task tracked by `sync` has completed — by
  /// *executing* pending work (own deque, injection queue, steals), so
  /// calling this from inside a task is legal and productive. Rethrows
  /// the first exception recorded by a task of the group (and clears it,
  /// leaving the sync reusable).
  void wait(TaskSync& sync);

  /// Runs fn(i) for i in [begin, end), fanned across the scheduler with
  /// the caller participating; returns when all iterations are done.
  /// Iterations are chunked to bound scheduling overhead. Nestable to
  /// any depth, from worker and external threads alike.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Monotonic lifetime totals, for tests and diagnostics. spawned ==
  /// executed once the scheduler is quiescent; stolen counts the tasks
  /// that ran on a different worker than they were pushed on.
  struct Stats {
    std::uint64_t spawned = 0;
    std::uint64_t executed = 0;
    std::uint64_t stolen = 0;
  };
  Stats stats() const;

 private:
  struct Worker;
  static constexpr std::size_t kNotWorker = static_cast<std::size_t>(-1);

  void worker_loop(std::size_t index);
  /// One round of work discovery for the thread with worker index `self`
  /// (kNotWorker for external threads): local pop, injection queue,
  /// then a steal sweep. Null when nothing was found.
  detail::TaskNode* find_task(std::size_t self);
  detail::TaskNode* pop_injected();
  /// Runs the task, records errors into its sync, completes the sync
  /// (scheduling its continuation when the count drains), deletes it.
  void execute(detail::TaskNode* task);
  void complete(TaskSync& sync);
  void enqueue(detail::TaskNode* task);
  /// Parks the calling worker until the work epoch moves, with a 1ms
  /// timeout backstop against lost wakeups.
  void idle_wait(std::uint64_t seen_epoch);

  std::vector<std::unique_ptr<Worker>> workers_;

  /// Spawns from threads that are not workers of this scheduler.
  Mutex inject_mutex_;
  std::deque<detail::TaskNode*> injected_ PF15_GUARDED_BY(inject_mutex_);

  /// Sleep protocol: every enqueue bumps the epoch then wakes a sleeper
  /// if there is one. Sleepers re-check the epoch under the mutex before
  /// parking, so a wakeup between "found nothing" and "park" is never
  /// lost.
  Mutex sleep_mutex_;
  CondVar sleep_cv_;
  /// Workers currently parked (or committing to park). Incremented and
  /// decremented under sleep_mutex_; read lock-free by the wake fast
  /// path, hence atomic rather than PF15_GUARDED_BY.
  std::atomic<std::size_t> sleepers_{0};
  std::atomic<std::uint64_t> work_epoch_{0};
  std::atomic<bool> stop_{false};

  std::atomic<std::uint64_t> spawned_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> stolen_{0};
};

}  // namespace pf15
