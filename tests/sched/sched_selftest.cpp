// Doctored defects the sched analyses must catch — the suite that keeps
// the analyses honest. A detector nobody has ever seen fire is
// indistinguishable from one that cannot fire: these tests plant a known
// lock-order inversion and a known ABBA deadlock and require lockdep /
// the schedule explorer to flag them (see docs/sched.md).
#include <chrono>
#include <cstdlib>

#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sched/harness.hpp"
#include "sched/lockdep.hpp"
#include "util/sync.hpp"
#include "util/sync_observer.hpp"

namespace hlock {
namespace {

/// Installs a private Lockdep for one test body and restores the previous
/// observer (normally the default-on global lockdep from
/// tests/support/sched_env.cpp) afterwards, so the doctored inversion
/// never reaches — and never fails — the shared instance.
class ScopedLockdep {
 public:
  ScopedLockdep()
      : lockdep_([](const sched::LockdepReport&) {}),
        previous_(sched::exchange_sync_observer(&lockdep_)) {}
  ~ScopedLockdep() { sched::exchange_sync_observer(previous_); }
  sched::Lockdep& operator*() { return lockdep_; }
  sched::Lockdep* operator->() { return &lockdep_; }

 private:
  sched::Lockdep lockdep_;
  sched::SyncObserver* previous_;
};

TEST(LockdepSelfTest, DoctoredInversionIsFlaggedWithBothStacks) {
  ScopedLockdep lockdep;
  Mutex a{"doctored.A"};
  Mutex b{"doctored.B"};
  {
    // Teach the recorder A -> B ...
    MutexLock first(a);
    MutexLock second(b);
  }
  ASSERT_EQ(lockdep->violation_count(), 0u);
  {
    // ... then acquire in the inverse order. No deadlock manifests (the
    // two orders never overlap in time) — lockdep must flag the
    // *potential* anyway.
    MutexLock first(b);
    MutexLock second(a);
  }
  ASSERT_EQ(lockdep->violation_count(), 1u);
  const std::vector<sched::LockdepReport> reports = lockdep->reports();
  ASSERT_EQ(reports.size(), 1u);
  const sched::LockdepReport& report = reports.front();
  // The cycle names both doctored classes ...
  ASSERT_GE(report.cycle.size(), 3u);
  EXPECT_EQ(report.cycle.front(), report.cycle.back());
  bool saw_a = false;
  bool saw_b = false;
  for (const std::string& node : report.cycle) {
    saw_a = saw_a || node == "doctored.A";
    saw_b = saw_b || node == "doctored.B";
  }
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
  // ... and carries the acquisition stacks of BOTH orders.
  EXPECT_FALSE(report.forward_stack.empty());
  EXPECT_FALSE(report.inverse_stack.empty());
  EXPECT_NE(report.render().find("POTENTIAL DEADLOCK"), std::string::npos);
}

TEST(LockdepSelfTest, InversionAcrossThreadsIsFlagged) {
  ScopedLockdep lockdep;
  Mutex a{"doctored.threads.A"};
  Mutex b{"doctored.threads.B"};
  sched::Thread forward("forward", [&a, &b] {
    MutexLock first(a);
    MutexLock second(b);
  });
  forward.join();
  sched::Thread inverse("inverse", [&a, &b] {
    MutexLock first(b);
    MutexLock second(a);
  });
  inverse.join();
  EXPECT_EQ(lockdep->violation_count(), 1u);
}

/// The doctored ABBA body: two threads repeatedly take {A then B} and
/// {B then A}. Most interleavings complete; a schedule that preempts one
/// thread between its two acquisitions while the other grabs its first
/// lock deadlocks — which is exactly what the explorer must prove.
void abba_body() {
  Mutex a{"abba.A"};
  Mutex b{"abba.B"};
  {
    sched::Thread ab("ab", [&a, &b] {
      for (int i = 0; i < 8; ++i) {
        MutexLock first(a);
        sched::yield_point("abba.between");
        MutexLock second(b);
      }
    });
    sched::Thread ba("ba", [&a, &b] {
      for (int i = 0; i < 8; ++i) {
        MutexLock first(b);
        sched::yield_point("abba.between");
        MutexLock second(a);
      }
    });
    ab.join();
    ba.join();
  }
}

TEST(ExplorerSelfTest, DoctoredAbbaDeadlockFoundWithin32Seeds) {
  std::optional<std::uint64_t> deadlock_seed;
  std::string deadlock_output;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    sched::ExplorerOptions options;
    options.seed = seed;
    options.change_interval = 6;  // preemption-heavy: tiny doctored body
    const sched::SeedResult result = sched::run_seed(options, abba_body);
    ASSERT_NE(result.verdict, sched::SeedVerdict::kCrash)
        << "seed " << seed << ":\n"
        << result.output;
    if (result.verdict == sched::SeedVerdict::kDeadlock) {
      deadlock_seed = seed;
      deadlock_output = result.output;
      break;
    }
  }
  ASSERT_TRUE(deadlock_seed.has_value())
      << "no seed in 1..32 deadlocked the doctored ABBA body";
  // The report names the deadlock, the held locks, and the replay seed.
  EXPECT_NE(deadlock_output.find("DEADLOCK"), std::string::npos);
  EXPECT_NE(deadlock_output.find("abba.A"), std::string::npos);
  EXPECT_NE(deadlock_output.find("abba.B"), std::string::npos);
  EXPECT_NE(deadlock_output.find("--sched-seed"), std::string::npos);

  // Replaying the printed seed reproduces the identical interleaving:
  // same verdict, same schedule fingerprint, twice.
  sched::ExplorerOptions options;
  options.seed = *deadlock_seed;
  options.change_interval = 6;
  const sched::SeedResult first = sched::run_seed(options, abba_body);
  const sched::SeedResult second = sched::run_seed(options, abba_body);
  EXPECT_EQ(first.verdict, sched::SeedVerdict::kDeadlock);
  EXPECT_EQ(second.verdict, sched::SeedVerdict::kDeadlock);
  ASSERT_TRUE(first.fingerprint.has_value()) << first.output;
  ASSERT_TRUE(second.fingerprint.has_value()) << second.output;
  EXPECT_EQ(*first.fingerprint, *second.fingerprint);
  const std::optional<std::uint64_t> original =
      sched::parse_fingerprint(deadlock_output);
  ASSERT_TRUE(original.has_value()) << deadlock_output;
  EXPECT_EQ(*first.fingerprint, *original);
}

TEST(ExplorerSelfTest, CleanSeedsCompleteAndReplayDeterministically) {
  // A racy-but-correct body: producer/consumer over a mutex + condvar.
  const auto body = [] {
    Mutex mu{"clean.mu"};
    CondVar cv{"clean.cv"};
    int stage = 0;
    sched::Thread worker("worker", [&mu, &cv, &stage] {
      MutexLock lock(mu);
      while (stage == 0) cv.wait(mu);
      stage = 2;
      cv.notify_all();
    });
    {
      MutexLock lock(mu);
      stage = 1;
      cv.notify_all();
      while (stage != 2) cv.wait(mu);
    }
    worker.join();
  };
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sched::ExplorerOptions options;
    options.seed = seed;
    const sched::SeedResult once = sched::run_seed(options, body);
    const sched::SeedResult again = sched::run_seed(options, body);
    ASSERT_EQ(once.verdict, sched::SeedVerdict::kOk)
        << "seed " << seed << ":\n"
        << once.output;
    ASSERT_EQ(again.verdict, sched::SeedVerdict::kOk);
    ASSERT_TRUE(once.fingerprint.has_value());
    EXPECT_EQ(*once.fingerprint, *again.fingerprint)
        << "seed " << seed << " replay diverged";
  }
}

TEST(ExplorerSelfTest, BudgetOverrunIsClassifiedNotHung) {
  // A livelocked schedule — two threads yield forever — must exit with
  // the budget verdict instead of wedging the harness.
  const auto body = [] {
    Mutex mu{"budget.mu"};
    bool done = false;  // never set: the loop only ends via the budget
    sched::Thread spinner("spinner", [&mu, &done] {
      for (;;) {
        MutexLock lock(mu);
        if (done) return;
      }
    });
    spinner.join();
  };
  sched::ExplorerOptions options;
  options.seed = 1;
  options.max_steps = 5'000;
  const sched::SeedResult result = sched::run_seed(options, body);
  EXPECT_EQ(result.verdict, sched::SeedVerdict::kBudgetExceeded)
      << result.output;
}

TEST(ExplorerSelfTest, LostWakeUpBehindALongTimerIsClassifiedNotHung) {
  // A waiter nobody notifies, beside a ticker whose 60 s timed waits are
  // the schedule's only way forward: each timeout spends a few scheduling
  // decisions, so the decision budget alone would let the seed run for
  // months. The explorer must report the stall instead.
  const auto body = [] {
    Mutex mu{"stall.mu"};
    CondVar never_notified;
    CondVar tick;
    sched::Thread waiter("waiter", [&] {
      MutexLock lock(mu);
      never_notified.wait(mu);
    });
    sched::Thread ticker("ticker", [&] {
      MutexLock lock(mu);
      for (;;) tick.wait_for(mu, std::chrono::seconds(60));
    });
    waiter.join();
    ticker.join();
  };
  sched::ExplorerOptions options;
  options.seed = 1;
  const auto start = std::chrono::steady_clock::now();
  const sched::SeedResult result = sched::run_seed(options, body);
  EXPECT_EQ(result.verdict, sched::SeedVerdict::kBudgetExceeded)
      << result.output;
  EXPECT_NE(result.output.find("STALLED"), std::string::npos)
      << result.output;
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(30));
}

}  // namespace
}  // namespace hlock
