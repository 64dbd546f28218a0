// Clang -Wthread-safety annotations + annotated locking primitives.
//
// The concurrency tier (TaskScheduler, DynamicBatcher, ServingEngine,
// ConvPlanCache, MetricsRegistry, the comm mailboxes) protects shared
// state with mutexes whose discipline lived only in comments. These
// macros make the discipline machine-checked: members annotated
// PF15_GUARDED_BY(mutex_) may only be touched with the mutex held,
// functions annotated PF15_REQUIRES(mutex_) may only be called with it
// held, and a clang build with -Wthread-safety -Werror (scripts/
// verify.sh --wthread-safety lane) turns every violation into a compile
// error. On compilers without the attribute (gcc) everything expands to
// nothing — zero cost, zero behaviour change.
//
// Clang's analysis does not see through libstdc++'s std::mutex /
// std::lock_guard (they carry no capability attributes), so the
// annotated code uses the wrappers below instead:
//
//   Mutex       — std::mutex as an annotated capability
//   MutexLock   — std::lock_guard, acquisition visible to the analysis
//   UniqueLock  — std::unique_lock, for condition-variable waits
//   CondVar     — std::condition_variable over UniqueLock
//
// Two idioms keep the analysis sound where it cannot follow the code:
// condition-variable waits are written as explicit while loops (a
// predicate lambda would be a separate function that the analysis sees
// reading guarded state lock-free), and destructors that intentionally
// read without locking (quiescence-by-contract, e.g. ~DynamicBatcher)
// say so with PF15_NO_THREAD_SAFETY_ANALYSIS plus a comment.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__)
#define PF15_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PF15_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

#define PF15_CAPABILITY(x) PF15_THREAD_ANNOTATION(capability(x))
#define PF15_SCOPED_CAPABILITY PF15_THREAD_ANNOTATION(scoped_lockable)
#define PF15_GUARDED_BY(x) PF15_THREAD_ANNOTATION(guarded_by(x))
#define PF15_PT_GUARDED_BY(x) PF15_THREAD_ANNOTATION(pt_guarded_by(x))
#define PF15_REQUIRES(...) \
  PF15_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define PF15_ACQUIRE(...) \
  PF15_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define PF15_RELEASE(...) \
  PF15_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define PF15_TRY_ACQUIRE(...) \
  PF15_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define PF15_EXCLUDES(...) PF15_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define PF15_RETURN_CAPABILITY(x) PF15_THREAD_ANNOTATION(lock_returned(x))
#define PF15_NO_THREAD_SAFETY_ANALYSIS \
  PF15_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace pf15 {

/// std::mutex as a clang capability. Same cost, same semantics; the
/// annotation is the only addition.
class PF15_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PF15_ACQUIRE() { m_.lock(); }
  void unlock() PF15_RELEASE() { m_.unlock(); }
  bool try_lock() PF15_TRY_ACQUIRE(true) { return m_.try_lock(); }

  /// The wrapped mutex, for UniqueLock/CondVar plumbing only. Callers
  /// locking through this bypass the analysis — don't.
  std::mutex& native() { return m_; }

 private:
  std::mutex m_;
};

/// std::lock_guard with the acquisition visible to the analysis.
class PF15_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m) PF15_ACQUIRE(m) : mu_(m) { mu_.lock(); }
  ~MutexLock() PF15_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// std::unique_lock for condition-variable waits. Locks on construction;
/// the destructor releases if still held (manual unlock() is allowed, as
/// std::unique_lock permits — the analysis tracks it).
class PF15_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& m) PF15_ACQUIRE(m) : lock_(m.native()) {}
  ~UniqueLock() PF15_RELEASE() = default;

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() PF15_ACQUIRE() { lock_.lock(); }
  void unlock() PF15_RELEASE() { lock_.unlock(); }
  bool owns_lock() const { return lock_.owns_lock(); }

  /// For CondVar only: the wait releases and reacquires internally, which
  /// the analysis (correctly) treats as "held before, held after".
  std::unique_lock<std::mutex>& native() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

/// std::condition_variable over UniqueLock. Waits take no predicate on
/// purpose: annotated call sites loop explicitly —
///
///   while (!ready_) cv_.wait(lock);   // ready_ read with the lock held
///
/// — because a predicate lambda is a separate function in which the
/// analysis cannot see the capability.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(UniqueLock& lock) { cv_.wait(lock.native()); }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      UniqueLock& lock,
      const std::chrono::time_point<Clock, Duration>& deadline) {
    return cv_.wait_until(lock.native(), deadline);
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(UniqueLock& lock,
                          const std::chrono::duration<Rep, Period>& d) {
    return cv_.wait_for(lock.native(), d);
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace pf15
