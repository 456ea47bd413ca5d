// Subprocess seed harness for the schedule explorer.
//
// A schedule the Explorer proves deadlocked ends its process (see
// explorer.hpp) — so exploring N seeds means running each seed in a forked
// child and classifying the exit status. This header is that fork/exec-free
// plumbing, shared by the SchedTest gtest harness (tests/sched/) and
// `hlock_sim --sched-seeds`. The child runs Explorer::run(body) with its
// stdout/stderr captured into a pipe; on a clean finish it prints a
// machine-greppable completion line carrying the schedule fingerprint, so
// the parent can verify that replaying a seed reproduces the identical
// interleaving.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "sched/explorer.hpp"

namespace hlock::sched {

/// What happened to one explored seed (classified child exit status).
enum class SeedVerdict {
  kOk,             ///< schedule completed, body reported no failure
  kDeadlock,       ///< explorer proved a deadlock (kSchedDeadlockExit)
  kBudgetExceeded, ///< decision budget hit, or stalled (kSchedBudgetExit)
  kBodyFailure,    ///< body's failed() predicate returned true
  kCrash,          ///< child died on a signal or unknown status
};

const char* seed_verdict_name(SeedVerdict verdict);

struct SeedResult {
  SeedVerdict verdict = SeedVerdict::kCrash;
  /// Raw exit code (or -signal for signal deaths).
  int status = 0;
  /// Combined stdout+stderr of the child, deadlock reports included.
  std::string output;
  /// The schedule fingerprint parsed from the completion / deadlock
  /// output, when present.
  std::optional<std::uint64_t> fingerprint;
};

/// Forks, runs Explorer(options).run(body) in the child with output
/// captured, and classifies the exit. `failed` (optional) is evaluated in
/// the child after the body — return true to mark the seed kBodyFailure
/// (e.g. ::testing::Test::HasFailure). Must be called with no other
/// threads live in the calling process (between tests / before workers).
SeedResult run_seed(const ExplorerOptions& options,
                    const std::function<void()>& body,
                    const std::function<bool()>& failed = {});

/// Extracts the "fingerprint: N" value from captured child output.
std::optional<std::uint64_t> parse_fingerprint(const std::string& output);

}  // namespace hlock::sched
