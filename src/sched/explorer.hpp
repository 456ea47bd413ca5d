// PCT-style deterministic schedule explorer over the SyncObserver hook.
//
// TSan and stress loops only catch the interleavings a run happens to hit.
// This explorer makes thread schedules an *input*: while installed, every
// participating thread is serialized at its sync points (mutex acquire /
// release, condvar wait / notify, explicit sched::yield_point()s) under a
// seeded random-priority scheduler in the spirit of PCT (Burckhardt et
// al., "A Randomized Scheduler with Probabilistic Guarantees of Finding
// Bugs"): each thread carries a random priority, the highest-priority
// runnable thread runs until it blocks or a seeded priority-change point
// demotes it. Exploring N seeds walks N qualitatively different
// interleavings; replaying a seed reproduces its interleaving exactly
// (for schedules whose only nondeterminism is the scheduler — real
// sockets and real-time faults stay seeded but best-effort).
//
// Blocking is cooperative: mutexes are acquired with try_lock under the
// scheduler so a blocked thread is visible and preemptible; condvar waits
// park the thread in the scheduler until a notify wakes it (timed waits
// additionally self-wake on their real deadline, so timeout paths are
// explored without the scheduler ever declaring them dead). Operations
// that block outside the sync layer (socket calls, joins) are bracketed
// in sched::BlockingRegion so they cannot stall the schedule.
//
// When every participating thread is blocked on a mutex or an untimed
// condvar wait — no deadline and no external region can unblock one — the
// explorer has *found a deadlock*. A deadlocked process cannot be unwound
// (threads are parked inside locked destructors and waits), so the
// explorer prints a report naming each thread's held locks and wait
// object plus the replay seed, and exits with kSchedDeadlockExit. The
// SchedTest harness and `hlock_sim --sched-seeds` therefore run each seed
// in a forked subprocess and classify the exit status. When nobody is
// runnable, no external region is pending and the earliest timed wait
// ends far in the future, the schedule has *stalled* — a lost wake-up
// behind a periodic timer — and the explorer reports it the same way,
// exiting with kSchedBudgetExit instead of waiting the timer out. The
// embedded Lockdep instance additionally flags lock-order inversions that
// never deadlock.
//
// See docs/sched.md; the SchedTest harness (tests/sched/sched_test.hpp)
// and `hlock_sim --sched-seeds` drive seeds through this class.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sched/lockdep.hpp"
#include "util/rng.hpp"
#include "util/sync_observer.hpp"

namespace hlock::sched {

/// Process exit status when the explorer proves the schedule deadlocked.
inline constexpr int kSchedDeadlockExit = 86;
/// Process exit status when a schedule exceeds its decision budget
/// (livelock, or a genuinely enormous schedule — raise max_steps), or
/// stalls with only far timed waits left to end.
inline constexpr int kSchedBudgetExit = 87;

/// Construction parameters of one exploration run.
struct ExplorerOptions {
  /// Seeds thread priorities, priority-change points, and every other
  /// scheduling choice. Same seed + same program = same schedule.
  std::uint64_t seed = 1;
  /// Mean number of scheduling decisions between priority-change points
  /// (the "d" knob of PCT, expressed as a rate). 0 disables changes.
  std::uint32_t change_interval = 12;
  /// Also run the embedded lock-order recorder (reports inversions that
  /// never manifest as deadlocks).
  bool lockdep = true;
  /// Scheduling-decision budget; exceeding it exits with kSchedBudgetExit
  /// (a wedged-but-spinning schedule must not hang the harness).
  std::uint64_t max_steps = 2'000'000;
};

/// See file comment. One Explorer = one schedule; construct a fresh one
/// per seed. Install via run() (which brackets install/uninstall), not by
/// hand.
class Explorer final : public SyncObserver {
 public:
  explicit Explorer(const ExplorerOptions& options);
  ~Explorer() override;

  /// Installs this explorer as the global observer, registers the calling
  /// thread as a participant, runs `body`, then deregisters and
  /// uninstalls (restoring the previous observer). `body` must join every
  /// sched::Thread it (transitively) spawns before returning. On a
  /// detected deadlock the process exits (see file comment) — run() only
  /// returns for schedules that complete.
  void run(const std::function<void()>& body);

  /// Human-readable deadlock or stall report (empty without one).
  std::string report() const;

  /// The retained tail of the schedule, one line per scheduling decision
  /// ("#step thread op"), for failure dumps. Bounded: very long schedules
  /// keep only the most recent lines (the fingerprint still covers all).
  std::vector<std::string> schedule() const;

  /// Running FNV-1a hash over every scheduling decision — two runs of the
  /// same seed over the same body must produce equal fingerprints.
  std::uint64_t schedule_fingerprint() const;

  /// Scheduling decisions taken so far.
  std::uint64_t steps() const;

  /// The embedded lock-order recorder (violation_count() etc.), or
  /// nullptr when options.lockdep was off.
  Lockdep* lockdep() { return lockdep_.get(); }

  // SyncObserver:
  void acquiring(const SyncId& id) override;
  bool acquire(const SyncId& id, std::mutex& mu) override;
  bool try_acquire(const SyncId& id, std::mutex& mu) override;
  void acquired(const SyncId& id) override;
  void released(const SyncId& id) override;
  bool wait(const SyncId& cv, const SyncId& mu_id, std::mutex& mu) override;
  bool wait_until(const SyncId& cv, const SyncId& mu_id, std::mutex& mu,
                  std::chrono::steady_clock::time_point deadline,
                  std::cv_status* status) override;
  void notify(const SyncId& cv, bool all) override;
  void yield(const char* site) override;
  void* thread_spawning(const char* name) override;
  void thread_started(void* handle) override;
  void thread_finished(void* handle) override;
  void thread_joining(void* handle) override;
  void* blocking_region_enter() override;
  void blocking_region_exit(void* token) override;

  /// One registered participant; defined in the .cpp (public so the
  /// file-local thread_local registration pointer can name it).
  struct ThreadRec;

 private:
  /// The calling thread's record, or nullptr for threads the explorer
  /// does not control (they fall back to real blocking operations).
  ThreadRec* self() const;

  /// Parks the calling thread (already in its wait state) and returns
  /// once it is granted the processor again. Timed condvar waiters
  /// self-wake when their real deadline passes. Requires mu_.
  void park(std::unique_lock<std::mutex>& lk, ThreadRec* rec);
  /// Marks `rec` runnable and parks until granted (one scheduling
  /// decision). Requires mu_.
  void reschedule(std::unique_lock<std::mutex>& lk, ThreadRec* rec,
                  const char* op, const SyncId* obj);
  /// Picks the next thread to run — or, with nobody runnable and no
  /// deadline / external region pending, declares deadlock; with nobody
  /// runnable, no external region and only far deadlines pending, declares
  /// a stall. Requires mu_.
  void grant_next(std::unique_lock<std::mutex>& lk);
  /// Records one scheduling decision (trace tail + fingerprint).
  /// Requires mu_.
  void record(const ThreadRec& rec);
  /// Prints the deadlock report and exits the process. Requires mu_.
  [[noreturn]] void declare_deadlock(std::unique_lock<std::mutex>& lk);
  /// Prints the stall report — nobody ready, `idle` until the earliest
  /// timed wait ends — and exits with kSchedBudgetExit. Requires mu_.
  [[noreturn]] void declare_stall(std::unique_lock<std::mutex>& lk,
                                  std::chrono::steady_clock::duration idle);
  /// Prints `header`, every unfinished thread's state, wait and held
  /// locks, the last scheduling decisions and the replay line, then exits
  /// the process with `status`. Requires mu_.
  [[noreturn]] void report_and_exit(std::unique_lock<std::mutex>& lk,
                                    const std::string& header, int status);
  /// Shared body of wait / wait_until.
  bool wait_common(const SyncId& cv, const SyncId& mu_id, std::mutex& mu,
                   bool timed, std::chrono::steady_clock::time_point deadline,
                   std::cv_status* status);

  mutable std::mutex mu_;  // raw std primitives: hook reentrancy
  std::condition_variable cv_;

  ExplorerOptions options_;
  Rng rng_;
  std::vector<std::unique_ptr<ThreadRec>> threads_;
  /// Real mutex objects currently held (object -> holder; nullptr holder
  /// for uncontrolled threads). Diagnostic only — waiter wake-ups are
  /// driven purely by release hooks.
  std::map<const void*, ThreadRec*> mutex_owner_;
  ThreadRec* current_ = nullptr;
  std::string report_;
  std::vector<std::string> trace_;
  std::uint64_t trace_dropped_ = 0;
  std::uint64_t fingerprint_ = 0xcbf29ce484222325ull;  // FNV-1a basis
  std::uint64_t steps_ = 0;
  std::uint64_t next_change_ = 0;
  /// Monotonically decreasing priority floor handed to demoted threads.
  std::uint64_t demote_floor_ = 1u << 20;
  std::unique_ptr<Lockdep> lockdep_;
};

}  // namespace hlock::sched
