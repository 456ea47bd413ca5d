// Runtime stall watchdog: flags requests waiting far beyond the observed
// p99 wait time.
//
// The model checker's liveness pass (PR 6) proves starvation-freedom over
// small configurations; this is the live-cluster counterpart of the same
// claim. Every blocking acquire brackets itself with begin()/end(); a
// background thread (or an explicit check_now()) compares each pending
// wait against an adaptive threshold
//
//     max(multiplier × observed-p99-wait, floor)
//
// where the p99 comes from the watchdog's own all-requests wait
// histogram. A wait beyond the threshold is flagged once per request
// (re-armed only if the request is still pending on a later sweep after
// 2× the threshold, so a genuinely wedged request keeps making noise but
// a slow one doesn't spam). Each sweep bumps the
// `hlock_stalled_requests_total` counter by the number it flagged, then
// invokes the on_stall hook once with all of them. hlock_sim wires
// on_stall to one flight record per sweep for post-mortem.
//
// The p99 floor exists because early in a run the histogram is empty or
// tiny; with no signal yet, only waits beyond the configured floor count
// as stalls.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "telemetry/registry.hpp"
#include "util/sync.hpp"

namespace hlock::telemetry {

struct WatchdogOptions {
  /// Stall threshold = max(multiplier × p99 wait, floor).
  double multiplier = 8.0;
  std::chrono::milliseconds floor{100};
  /// Sweep period of the background thread (start()).
  std::chrono::milliseconds check_interval{250};
};

/// One flagged request; the on_stall hook gets a sweep's worth at once.
struct StallReport {
  std::string label;     ///< as given to begin()
  double waited_ms = 0;  ///< wait so far when flagged
  double threshold_ms = 0;
  double p99_ms = 0;     ///< observed p99 the threshold derives from
  std::uint64_t pending = 0;  ///< total requests in flight at flag time
};

/// See file comment.
class StallWatchdog {
 public:
  /// Instruments itself into `registry`: hlock_stalled_requests_total,
  /// hlock_request_wait_ms (histogram) and hlock_pending_requests (gauge).
  StallWatchdog(Registry& registry, WatchdogOptions options);
  ~StallWatchdog();

  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  /// Invoked (outside the watchdog mutex, on the sweeping thread) once per
  /// sweep that flags anything, with every request that sweep flagged, after
  /// the stall counter counts them. Set before start().
  void set_on_stall(
      std::function<void(const std::vector<StallReport>&)> hook);

  /// A request started blocking; returns the key for the matching end().
  /// `label` names the request in reports ("node=2 lock=L mode=W").
  std::uint64_t begin(std::string label) HLOCK_EXCLUDES(mutex_);

  /// The request stopped waiting (granted or failed). Records the wait in
  /// the histogram. Unknown keys are ignored (idempotent).
  void end(std::uint64_t key) HLOCK_EXCLUDES(mutex_);

  /// Sweeps pending requests once; returns how many were newly flagged.
  std::size_t check_now() HLOCK_EXCLUDES(mutex_);

  /// Launches the periodic sweep thread / stops it. start() is a no-op
  /// when running; the destructor stops.
  void start();
  void stop();

  /// Current stall threshold in ms (for tests and dashboards).
  double threshold_ms() const;

  std::uint64_t stalled_total() const { return stalled_.value(); }

 private:
  struct Pending {
    std::string label;
    std::chrono::steady_clock::time_point since;
    /// Next sweep time at which this request may be (re-)flagged.
    std::chrono::steady_clock::time_point arm_at;
  };

  void run();

  const WatchdogOptions options_;
  Counter& stalled_;
  Histogram& wait_ms_;
  Gauge& pending_gauge_;
  std::function<void(const std::vector<StallReport>&)> on_stall_;

  mutable Mutex mutex_;
  CondVar wake_cv_;
  bool stopping_ HLOCK_GUARDED_BY(mutex_) = false;
  bool running_ HLOCK_GUARDED_BY(mutex_) = false;
  std::uint64_t next_key_ HLOCK_GUARDED_BY(mutex_) = 1;
  std::map<std::uint64_t, Pending> pending_ HLOCK_GUARDED_BY(mutex_);

  sched::Thread thread_;
};

}  // namespace hlock::telemetry
