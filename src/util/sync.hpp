// Annotated concurrency primitives for compile-time lock-discipline checks.
//
// The threaded runtime's implementation safety rests on lock discipline
// across four transports and the cluster harness — exactly the layer where
// chaos testing keeps finding shutdown/send races. TSan only catches races
// an interleaving happens to hit; Clang's Thread Safety Analysis proves the
// discipline at compile time. This header wraps std::mutex and
// std::condition_variable in capability-annotated types so every guarded
// field can declare its lock (`HLOCK_GUARDED_BY`) and every lock-requiring
// method its contract (`HLOCK_REQUIRES`), with `-Wthread-safety
// -Wthread-safety-beta` enforcing them on Clang builds (promoted to errors
// under HLOCK_WERROR). On GCC every annotation degrades to a no-op, so the
// primary toolchain builds identically. See docs/static-analysis.md for
// conventions and the escape-hatch policy.
// Runtime observability: every operation additionally reports to the
// process-global sched::SyncObserver when one is installed (lockdep
// lock-order recording, deterministic schedule exploration — src/sched/,
// docs/sched.md). Uninstalled cost is a single relaxed atomic load per
// operation, so the hot path (docs/performance.md) is unchanged.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <source_location>

#include "util/sync_observer.hpp"

// ---------------------------------------------------------------------------
// Attribute macros (Clang Thread Safety Analysis; no-ops elsewhere).
// ---------------------------------------------------------------------------

#if defined(__clang__) && !defined(SWIG)
#define HLOCK_TS_ATTRIBUTE(x) __attribute__((x))
#else
#define HLOCK_TS_ATTRIBUTE(x)  // no-op on GCC and other compilers
#endif

/// Marks a type as a capability (lockable). Argument names the capability
/// kind in diagnostics ("mutex").
#define HLOCK_CAPABILITY(x) HLOCK_TS_ATTRIBUTE(capability(x))

/// Marks an RAII type that acquires a capability in its constructor and
/// releases it in its destructor.
#define HLOCK_SCOPED_CAPABILITY HLOCK_TS_ATTRIBUTE(scoped_lockable)

/// Declares that a field may only be read or written while holding `x`.
#define HLOCK_GUARDED_BY(x) HLOCK_TS_ATTRIBUTE(guarded_by(x))

/// Declares that the data a pointer/smart-pointer field points to may only
/// be touched while holding `x` (the pointer itself needs HLOCK_GUARDED_BY).
#define HLOCK_PT_GUARDED_BY(x) HLOCK_TS_ATTRIBUTE(pt_guarded_by(x))

/// Declares that the caller must hold the listed capabilities (and keeps
/// holding them; the function neither acquires nor releases).
#define HLOCK_REQUIRES(...) \
  HLOCK_TS_ATTRIBUTE(requires_capability(__VA_ARGS__))

/// Declares that a function acquires the listed capabilities.
#define HLOCK_ACQUIRE(...) \
  HLOCK_TS_ATTRIBUTE(acquire_capability(__VA_ARGS__))

/// Declares that a function releases the listed capabilities.
#define HLOCK_RELEASE(...) \
  HLOCK_TS_ATTRIBUTE(release_capability(__VA_ARGS__))

/// Declares a try-acquire: returns `val` on success.
#define HLOCK_TRY_ACQUIRE(...) \
  HLOCK_TS_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

/// Declares that the caller must NOT hold the listed capabilities
/// (non-reentrancy / deadlock documentation).
#define HLOCK_EXCLUDES(...) HLOCK_TS_ATTRIBUTE(locks_excluded(__VA_ARGS__))

/// Tells the analysis a capability is held (runtime-checked elsewhere).
#define HLOCK_ASSERT_CAPABILITY(x) \
  HLOCK_TS_ATTRIBUTE(assert_capability(x))

/// Declares that a function returns a reference to the capability guarding
/// its result.
#define HLOCK_RETURN_CAPABILITY(x) HLOCK_TS_ATTRIBUTE(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Policy
/// (docs/static-analysis.md): every use carries a comment saying WHY the
/// analysis cannot see the invariant that makes the code safe; it is never
/// an alternative to fixing a genuine discipline violation.
#define HLOCK_NO_THREAD_SAFETY_ANALYSIS \
  HLOCK_TS_ATTRIBUTE(no_thread_safety_analysis)

namespace hlock {

/// A std::mutex the analysis can reason about. Prefer the RAII guards
/// below; bare lock()/unlock() are for the rare staircase pattern only.
class HLOCK_CAPABILITY("mutex") Mutex {
 public:
  /// `name` (optional) names the lock in lockdep / explorer reports;
  /// without one the construction site identifies it. The site of a
  /// default-initialized member resolves to its enclosing class, which is
  /// exactly the lockdep notion of a lock *class*: all instances of
  /// Shard::mutex share one identity, so an ordering learned on one shard
  /// covers them all.
  explicit Mutex(
      const char* name = nullptr,
      std::source_location site = std::source_location::current())
      : id_{this, site.file_name(), site.line(), name} {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() HLOCK_ACQUIRE() {
    sched::SyncObserver* obs = sched::sync_observer();
    if (obs == nullptr) [[likely]] {
      mu_.lock();
      return;
    }
    obs->acquiring(id_);
    if (!obs->acquire(id_, mu_)) mu_.lock();
    obs->acquired(id_);
  }

  void unlock() HLOCK_RELEASE() {
    sched::SyncObserver* obs = sched::sync_observer();
    if (obs == nullptr) [[likely]] {
      mu_.unlock();
      return;
    }
    // Copy the identity first: once mu_ is released, the thread it wakes
    // may destroy this mutex before released() reads it.
    const sched::SyncId id = id_;
    mu_.unlock();
    obs->released(id);
  }

  bool try_lock() HLOCK_TRY_ACQUIRE(true) {
    sched::SyncObserver* obs = sched::sync_observer();
    if (obs == nullptr) [[likely]] return mu_.try_lock();
    const bool ok = obs->try_acquire(id_, mu_);
    if (ok) obs->acquired(id_);
    return ok;
  }

  /// The wrapped mutex, for CondVar's wait plumbing only.
  std::mutex& native() { return mu_; }

  /// This lock's identity in observer reports.
  const sched::SyncId& id() const { return id_; }

 private:
  std::mutex mu_;
  const sched::SyncId id_;
};

/// RAII lock: acquires in the constructor, releases in the destructor.
class HLOCK_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) HLOCK_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() HLOCK_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII lock that can be released before scope exit (and stays released).
/// For the pattern "compute under the lock, then act outside it".
class HLOCK_SCOPED_CAPABILITY ReleasableMutexLock {
 public:
  explicit ReleasableMutexLock(Mutex& mu) HLOCK_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~ReleasableMutexLock() HLOCK_RELEASE() {
    if (held_) mu_.unlock();
  }

  /// Releases the mutex early; the destructor then does nothing.
  void Release() HLOCK_RELEASE() {
    mu_.unlock();
    held_ = false;
  }

  ReleasableMutexLock(const ReleasableMutexLock&) = delete;
  ReleasableMutexLock& operator=(const ReleasableMutexLock&) = delete;

 private:
  Mutex& mu_;
  bool held_ = true;
};

/// A condition variable usable with Mutex. Waits are annotated
/// HLOCK_REQUIRES(mu): the caller holds `mu` across the call (the internal
/// unlock/relock is invisible to — and irrelevant for — the analysis).
/// Write waits as explicit predicate loops so the predicate's guarded reads
/// are checked in the calling function:
///
///   MutexLock lock(mutex_);
///   while (!ready_) cv_.wait(mutex_);
class CondVar {
 public:
  /// Site/name identity, as for Mutex.
  explicit CondVar(
      const char* name = nullptr,
      std::source_location site = std::source_location::current())
      : id_{this, site.file_name(), site.line(), name} {}
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() {
    cv_.notify_one();
    if (sched::SyncObserver* obs = sched::sync_observer();
        obs != nullptr) [[unlikely]] {
      obs->notify(id_, /*all=*/false);
    }
  }
  void notify_all() {
    cv_.notify_all();
    if (sched::SyncObserver* obs = sched::sync_observer();
        obs != nullptr) [[unlikely]] {
      obs->notify(id_, /*all=*/true);
    }
  }

  /// Blocks until notified (spurious wake-ups possible, loop on the
  /// predicate). Caller holds `mu`.
  void wait(Mutex& mu) HLOCK_REQUIRES(mu) {
    if (sched::SyncObserver* obs = sched::sync_observer();
        obs != nullptr) [[unlikely]] {
      if (obs->wait(id_, mu.id(), mu.native())) return;
    }
    std::unique_lock<std::mutex> inner(mu.native(), std::adopt_lock);
    cv_.wait(inner);
    inner.release();
  }

  /// Blocks until notified or `deadline`; std::cv_status::timeout if the
  /// deadline passed. Caller holds `mu`.
  std::cv_status wait_until(Mutex& mu,
                            std::chrono::steady_clock::time_point deadline)
      HLOCK_REQUIRES(mu) {
    if (sched::SyncObserver* obs = sched::sync_observer();
        obs != nullptr) [[unlikely]] {
      std::cv_status status = std::cv_status::no_timeout;
      if (obs->wait_until(id_, mu.id(), mu.native(), deadline, &status)) {
        return status;
      }
    }
    std::unique_lock<std::mutex> inner(mu.native(), std::adopt_lock);
    const std::cv_status status = cv_.wait_until(inner, deadline);
    inner.release();
    return status;
  }

  /// Blocks until notified or `timeout` elapsed. Caller holds `mu`.
  std::cv_status wait_for(Mutex& mu, std::chrono::nanoseconds timeout)
      HLOCK_REQUIRES(mu) {
    return wait_until(mu, std::chrono::steady_clock::now() + timeout);
  }

 private:
  std::condition_variable cv_;
  const sched::SyncId id_;
};

}  // namespace hlock
