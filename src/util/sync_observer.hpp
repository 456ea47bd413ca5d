// Runtime hook layer under the annotated sync primitives (util/sync.hpp).
//
// The compile-time capability annotations prove lock *discipline*; this
// header makes lock *behavior* observable and controllable at runtime. A
// single process-global SyncObserver can be installed; when one is, every
// hlock::Mutex / hlock::CondVar operation reports to it (and may delegate
// the blocking part of the operation to it). Two observers live in
// src/sched/ on top of this hook:
//
//   * sched::Lockdep — a lock-order recorder that flags *potential*
//     deadlocks (lock inversions) even when no deadlock manifests, and
//   * sched::Explorer — a PCT-style deterministic schedule explorer that
//     serializes threads at sync points under a seeded random-priority
//     scheduler, so rare interleavings become reproducible test inputs.
//
// Cost when no observer is installed: one relaxed atomic load per
// operation, nothing else — the hot path is untouched (the lock benchmark,
// perfbench/, runs with the slot empty). See docs/sched.md.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <source_location>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace hlock::sched {

/// Identity of one sync object: the instance plus its construction site.
/// The site (file:line, or the explicit name when given) is the lockdep
/// *class* — every Shard::mutex collapses into one class, so an ordering
/// learned on one shard instance applies to all of them.
struct SyncId {
  const void* object = nullptr;  ///< the Mutex / CondVar instance
  const char* file = "";         ///< construction-site file
  unsigned line = 0;             ///< construction-site line
  const char* name = nullptr;    ///< optional explicit name (overrides site)
};

/// An observer may throw this out of a sync operation to tear a schedule
/// down; sched::Thread bodies swallow it. (The stock Explorer does not
/// throw: a proven deadlock cannot be unwound, so it reports and exits
/// the process — see sched/explorer.hpp.)
class ScheduleAborted : public std::runtime_error {
 public:
  explicit ScheduleAborted(const std::string& what)
      : std::runtime_error(what) {}
};

/// Process-global hook called by hlock::Mutex / hlock::CondVar (and the
/// sched::Thread / BlockingRegion helpers below). All default
/// implementations observe nothing and delegate nothing, so an observer
/// only overrides what it needs. Hooks may be called concurrently from any
/// thread; implementations synchronize internally and must never touch
/// hlock primitives themselves (plain std::mutex only — the hooks would
/// recurse).
class SyncObserver {
 public:
  virtual ~SyncObserver() = default;

  // -- Mutex hooks ---------------------------------------------------------

  /// About to acquire `id` (called before any blocking). Lockdep records
  /// its acquisition-order edges here, so an inversion is reported even if
  /// the acquire then blocks forever.
  virtual void acquiring(const SyncId& id) { (void)id; }

  /// May perform the entire (blocking) acquisition of `mu` itself and
  /// return true; returning false tells the caller to run mu.lock(). The
  /// explorer acquires via try_lock under its scheduler so a blocked
  /// thread is visible (and preemptible) instead of opaque.
  virtual bool acquire(const SyncId& id, std::mutex& mu) {
    (void)id;
    (void)mu;
    return false;
  }

  /// Non-blocking acquisition attempt; returns the try_lock result. The
  /// default just forwards. On success the caller reports acquired().
  virtual bool try_acquire(const SyncId& id, std::mutex& mu) {
    (void)id;
    return mu.try_lock();
  }

  /// The lock on `id` is now held by the calling thread (any path).
  virtual void acquired(const SyncId& id) { (void)id; }

  /// The calling thread released the lock on `id` (called after the real
  /// unlock, so a woken waiter's retry can succeed immediately).
  virtual void released(const SyncId& id) { (void)id; }

  // -- CondVar hooks -------------------------------------------------------

  /// May perform an entire wait (unlock `mu`, block until notified, relock
  /// `mu`) and return true; false = caller runs the real wait. `cv`
  /// identifies the condition variable, `mu_id` the mutex held across the
  /// call. Spurious wake-ups are allowed — every call site loops on its
  /// predicate (see util/sync.hpp).
  virtual bool wait(const SyncId& cv, const SyncId& mu_id, std::mutex& mu) {
    (void)cv;
    (void)mu_id;
    (void)mu;
    return false;
  }

  /// Timed-wait form of wait(); on handling it stores the outcome in
  /// `*status`. Under the explorer a timed waiter self-wakes on its real
  /// deadline, so timeout paths are explored and a pending deadline is
  /// never mistaken for a deadlock.
  virtual bool wait_until(const SyncId& cv, const SyncId& mu_id,
                          std::mutex& mu,
                          std::chrono::steady_clock::time_point deadline,
                          std::cv_status* status) {
    (void)cv;
    (void)mu_id;
    (void)mu;
    (void)deadline;
    (void)status;
    return false;
  }

  /// notify_one (all=false) / notify_all (all=true) on `cv`. The real
  /// notification has already been issued when this runs.
  virtual void notify(const SyncId& cv, bool all) {
    (void)cv;
    (void)all;
  }

  // -- Explicit schedule points -------------------------------------------

  /// An explicit sched::yield_point(`site`) — a preemption opportunity
  /// between lock operations.
  virtual void yield(const char* site) { (void)site; }

  // -- Thread lifecycle (sched::Thread) ------------------------------------

  /// Called on the *parent* thread before a sched::Thread starts; the
  /// returned handle is passed to the started/finished hooks on the child.
  /// Registering the child here (not at its first sync point) makes the
  /// participant set — and therefore the schedule — deterministic.
  virtual void* thread_spawning(const char* name) {
    (void)name;
    return nullptr;
  }

  /// Called first thing on the child thread (blocks until scheduled under
  /// the explorer).
  virtual void thread_started(void* handle) { (void)handle; }

  /// Called when the child body returns (or aborts).
  virtual void thread_finished(void* handle) { (void)handle; }

  /// A controlled thread is about to join `handle`'s thread. The explorer
  /// parks the caller until the target finishes, so a join between
  /// controlled threads is a *visible* wait that participates in deadlock
  /// detection — bracketing the join in an opaque BlockingRegion instead
  /// would look like a potential unblocker and mask every deadlock among
  /// the remaining threads.
  virtual void thread_joining(void* handle) { (void)handle; }

  // -- Blocking regions ----------------------------------------------------

  /// The calling thread is about to block outside observable sync (socket
  /// accept/read/write, thread join, real sleeps). The explorer releases
  /// the thread from its scheduler for the duration so the region cannot
  /// stall the schedule. Returns an opaque token for the matching exit.
  virtual void* blocking_region_enter() { return nullptr; }
  virtual void blocking_region_exit(void* token) { (void)token; }
};

/// The installed observer; nullptr almost always. Relaxed is enough: an
/// installation only promises to observe operations that start after it.
inline std::atomic<SyncObserver*> g_sync_observer{nullptr};

/// The hook read on every sync operation.
inline SyncObserver* sync_observer() {
  return g_sync_observer.load(std::memory_order_relaxed);
}

/// Installs `observer` (nullptr uninstalls) and returns the previous one.
/// Callers own both lifetimes; an observer must outlive every thread that
/// can still hit a hook.
inline SyncObserver* exchange_sync_observer(SyncObserver* observer) {
  return g_sync_observer.exchange(observer, std::memory_order_acq_rel);
}

/// An explicit schedule point: under the explorer, a place where the
/// scheduler may preempt the thread between lock operations. Free when no
/// observer is installed (one relaxed load).
inline void yield_point(const char* site = "") {
  if (SyncObserver* obs = sync_observer(); obs != nullptr) [[unlikely]] {
    obs->yield(site);
  }
}

/// RAII bracket around operations that block outside the sync layer. See
/// SyncObserver::blocking_region_enter.
class BlockingRegion {
 public:
  BlockingRegion() {
    if (SyncObserver* obs = sync_observer(); obs != nullptr) [[unlikely]] {
      obs_ = obs;
      token_ = obs->blocking_region_enter();
    }
  }
  ~BlockingRegion() {
    if (token_ != nullptr) obs_->blocking_region_exit(token_);
  }
  BlockingRegion(const BlockingRegion&) = delete;
  BlockingRegion& operator=(const BlockingRegion&) = delete;

 private:
  SyncObserver* obs_ = nullptr;
  void* token_ = nullptr;
};

/// A std::thread whose lifecycle the installed observer sees: the child is
/// registered from the parent (deterministic participant order), announces
/// start/finish, swallows ScheduleAborted (an aborted schedule must not
/// std::terminate), and reports joins via thread_joining so a join is a
/// schedulable wait rather than an opaque block. Without an observer this
/// is an ordinary std::thread.
class Thread {
 public:
  Thread() = default;

  template <typename Fn>
  explicit Thread(const char* name, Fn&& fn) {
    SyncObserver* obs = sync_observer();
    void* handle = obs != nullptr ? obs->thread_spawning(name) : nullptr;
    observer_ = obs;
    handle_ = handle;
    thread_ = std::thread(
        [obs, handle, body = std::forward<Fn>(fn)]() mutable {
          if (handle != nullptr) obs->thread_started(handle);
          try {
            body();
          } catch (const ScheduleAborted&) {
            // The explorer tore the schedule down (deadlock found); the
            // verdict lives on the explorer, not in this thread.
          }
          if (handle != nullptr) obs->thread_finished(handle);
        });
  }

  Thread(Thread&&) = default;
  Thread& operator=(Thread&& other) = default;
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  bool joinable() const { return thread_.joinable(); }

  void join() {
    // Announce the join to the spawn-time observer first: the explorer
    // parks this thread until the target finishes. The target is then past
    // its last sync operation (nothing that runs after thread_finished —
    // the closure's and thread-locals' destructors — locks an hlock
    // primitive), so the real join returns on its own and the joiner keeps
    // its turn through it: a blocking region would let the scheduler grant
    // other threads for as long as the OS takes, and a replay diverge.
    if (observer_ != nullptr && handle_ != nullptr) {
      observer_->thread_joining(handle_);
      thread_.join();
      return;
    }
    BlockingRegion region;
    thread_.join();
  }

  ~Thread() {
    // Mirror std::thread: destroying a joinable thread is a bug.
    if (thread_.joinable()) std::terminate();
  }

 private:
  std::thread thread_;
  /// Observer and handle captured at spawn, so join() reports to the same
  /// observer that registered the thread.
  SyncObserver* observer_ = nullptr;
  void* handle_ = nullptr;
};

}  // namespace hlock::sched
