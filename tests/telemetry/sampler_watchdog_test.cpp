// Tests of the periodic Sampler and the runtime stall watchdog. Sleeps are
// generous multiples of the configured thresholds so the assertions hold on
// loaded CI machines.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/exposition.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/text_parse.hpp"
#include "telemetry/watchdog.hpp"

namespace hlock::telemetry {
namespace {

using std::chrono::milliseconds;

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The value of `name` in the exposition file at `path`; nothing when the
/// file or the series is missing.
std::optional<double> exported(const std::string& path,
                               const std::string& name) {
  const ParsedExposition parsed = parse_exposition(slurp(path));
  const ParsedSeries* series = parsed.find(name);
  if (series == nullptr) return std::nullopt;
  return series->value;
}

TEST(Sampler, DirectTickSnapshotsWithoutAThread) {
  Registry registry;
  Gauge& depth = registry.gauge("hlock_depth");
  SamplerOptions options;
  options.out_path = "sampler_direct.prom";
  std::remove(options.out_path.c_str());
  Sampler sampler{registry, options};
  EXPECT_EQ(exported(options.out_path, "hlock_depth"), std::nullopt);
  // Each tick rewrites the file with the registry as it is at that moment.
  for (const double value : {2.0, 9.0}) {
    depth.set(value);
    sampler.tick();
    EXPECT_EQ(exported(options.out_path, "hlock_depth"), value);
  }
}

TEST(Sampler, FileExportWritesParseableExposition) {
  Registry registry;
  registry.counter("hlock_test_total").inc(3);
  SamplerOptions options;
  options.out_path = "sampler_out.prom";
  Sampler sampler{registry, options};
  sampler.tick();

  const ParsedExposition parsed = parse_exposition(slurp(options.out_path));
  EXPECT_TRUE(check_exposition(parsed).empty());
  const ParsedSeries* series = parsed.find("hlock_test_total");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->value, 3.0);
}

TEST(Sampler, StopTakesAFinalTick) {
  Registry registry;
  Counter& counter = registry.counter("hlock_test_total");
  SamplerOptions options;
  options.interval = std::chrono::hours(1);  // never ticks on its own
  options.out_path = "sampler_final.prom";
  std::remove(options.out_path.c_str());
  Sampler sampler{registry, options};
  sampler.start();
  counter.inc(42);
  sampler.stop();
  // The final tick must have captured the post-start increment.
  EXPECT_EQ(exported(options.out_path, "hlock_test_total"), 42.0);
  sampler.stop();  // idempotent
}

TEST(WriteFileAtomic, LeavesNoTornFilesAndReportsFailure) {
  EXPECT_TRUE(write_file_atomic("atomic_out.prom", "hello\n"));
  EXPECT_EQ(slurp("atomic_out.prom"), "hello\n");
  // Overwrite replaces wholesale.
  EXPECT_TRUE(write_file_atomic("atomic_out.prom", "world\n"));
  EXPECT_EQ(slurp("atomic_out.prom"), "world\n");
  EXPECT_FALSE(
      write_file_atomic("no_such_dir_hlock/atomic_out.prom", "x\n"));
}

WatchdogOptions fast_watchdog() {
  WatchdogOptions options;
  options.multiplier = 2.0;
  options.floor = milliseconds(5);
  options.check_interval = milliseconds(10);
  return options;
}

TEST(StallWatchdog, EndRecordsTheWaitAndClearsPending) {
  Registry registry;
  StallWatchdog watchdog{registry, fast_watchdog()};
  const std::uint64_t key = watchdog.begin("node=0 lock=0 mode=W");
  EXPECT_EQ(registry.snapshot().find("hlock_pending_requests")->value, 1.0);
  std::this_thread::sleep_for(milliseconds(2));
  watchdog.end(key);
  watchdog.end(key);     // idempotent
  watchdog.end(999999);  // unknown keys ignored

  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.find("hlock_pending_requests")->value, 0.0);
  const Sample* wait = snap.find("hlock_request_wait_ms");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->histogram.count, 1u);
  EXPECT_GT(wait->histogram.sum, 0.0);
  EXPECT_EQ(watchdog.stalled_total(), 0u);
}

TEST(StallWatchdog, ThresholdFallsBackToTheFloorWhenUnobserved) {
  Registry registry;
  StallWatchdog watchdog{registry, fast_watchdog()};
  // No waits observed yet: p99 is 0, the floor rules.
  EXPECT_DOUBLE_EQ(watchdog.threshold_ms(), 5.0);
}

TEST(StallWatchdog, ThresholdTracksTheObservedP99) {
  Registry registry;
  StallWatchdog watchdog{registry, fast_watchdog()};
  // The watchdog's histogram is a registry instrument; feed it directly.
  Histogram& wait = registry.histogram("hlock_request_wait_ms");
  for (int i = 0; i < 100; ++i) {
    wait.record(40.0);  // lands in the (25.6, 51.2] stock bucket
  }
  const double threshold = watchdog.threshold_ms();
  EXPECT_GE(threshold, 2.0 * 25.6);
  EXPECT_LE(threshold, 2.0 * 51.2);
}

TEST(StallWatchdog, CheckNowFlagsOnceAndReArmsWedgedRequests) {
  Registry registry;
  StallWatchdog watchdog{registry, fast_watchdog()};
  std::vector<StallReport> reports;
  watchdog.set_on_stall([&reports](const std::vector<StallReport>& sweep) {
    reports.insert(reports.end(), sweep.begin(), sweep.end());
  });

  watchdog.begin("node=1 lock=0 mode=W");
  EXPECT_EQ(watchdog.check_now(), 0u);  // not past the 5 ms floor yet
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_EQ(watchdog.check_now(), 1u);
  EXPECT_EQ(watchdog.check_now(), 0u);  // flagged once, now re-armed out
  EXPECT_EQ(watchdog.stalled_total(), 1u);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].label, "node=1 lock=0 mode=W");
  EXPECT_GE(reports[0].waited_ms, reports[0].threshold_ms);
  EXPECT_EQ(reports[0].pending, 1u);

  // Still wedged after 2x the threshold: it reports again.
  std::this_thread::sleep_for(milliseconds(30));
  EXPECT_EQ(watchdog.check_now(), 1u);
  EXPECT_EQ(watchdog.stalled_total(), 2u);

  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.find("hlock_stalled_requests_total")->value, 2.0);
}

TEST(StallWatchdog, OneSweepReachesTheHookInOneCall) {
  Registry registry;
  StallWatchdog watchdog{registry, fast_watchdog()};
  std::vector<std::vector<StallReport>> calls;
  watchdog.set_on_stall(
      [&calls, &watchdog](const std::vector<StallReport>& sweep) {
        // The counter already counts the whole sweep when the hook runs.
        EXPECT_EQ(watchdog.stalled_total(), sweep.size());
        calls.push_back(sweep);
      });

  watchdog.begin("node=1 lock=0 mode=W");
  watchdog.begin("node=2 lock=0 mode=W");
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_EQ(watchdog.check_now(), 2u);
  ASSERT_EQ(calls.size(), 1u);
  ASSERT_EQ(calls[0].size(), 2u);
  EXPECT_EQ(calls[0][0].label, "node=1 lock=0 mode=W");
  EXPECT_EQ(calls[0][1].label, "node=2 lock=0 mode=W");
  EXPECT_EQ(calls[0][0].pending, 2u);
  EXPECT_EQ(watchdog.stalled_total(), 2u);

  EXPECT_EQ(watchdog.check_now(), 0u);  // both re-armed: no empty call
  EXPECT_EQ(calls.size(), 1u);
}

TEST(StallWatchdog, FinishedRequestsAreNeverFlagged) {
  Registry registry;
  StallWatchdog watchdog{registry, fast_watchdog()};
  const std::uint64_t key = watchdog.begin("node=0 lock=0 mode=R");
  watchdog.end(key);
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_EQ(watchdog.check_now(), 0u);
  EXPECT_EQ(watchdog.stalled_total(), 0u);
}

TEST(StallWatchdog, BackgroundSweepFiresWithoutManualChecks) {
  Registry registry;
  StallWatchdog watchdog{registry, fast_watchdog()};
  watchdog.begin("node=2 lock=1 mode=W");
  watchdog.start();
  watchdog.start();  // no-op when running
  // 5 ms floor + 10 ms sweep interval: 200 ms is ample slack.
  for (int i = 0; i < 200 && watchdog.stalled_total() == 0; ++i) {
    std::this_thread::sleep_for(milliseconds(1));
  }
  watchdog.stop();
  EXPECT_GE(watchdog.stalled_total(), 1u);
}

}  // namespace
}  // namespace hlock::telemetry
