#include "telemetry/watchdog.hpp"

#include <utility>
#include <vector>

namespace hlock::telemetry {

namespace {
double ms_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
}  // namespace

StallWatchdog::StallWatchdog(Registry& registry, WatchdogOptions options)
    : options_(options),
      stalled_(registry.counter("hlock_stalled_requests_total")),
      wait_ms_(registry.histogram("hlock_request_wait_ms")),
      pending_gauge_(registry.gauge("hlock_pending_requests")) {}

StallWatchdog::~StallWatchdog() { stop(); }

void StallWatchdog::set_on_stall(
    std::function<void(const std::vector<StallReport>&)> hook) {
  on_stall_ = std::move(hook);
}

std::uint64_t StallWatchdog::begin(std::string label) {
  const auto now = std::chrono::steady_clock::now();
  MutexLock lock(mutex_);
  const std::uint64_t key = next_key_++;
  pending_.emplace(key, Pending{std::move(label), now, now});
  pending_gauge_.set(static_cast<double>(pending_.size()));
  return key;
}

void StallWatchdog::end(std::uint64_t key) {
  const auto now = std::chrono::steady_clock::now();
  MutexLock lock(mutex_);
  const auto it = pending_.find(key);
  if (it == pending_.end()) {
    return;
  }
  wait_ms_.record(ms_between(it->second.since, now));
  pending_.erase(it);
  pending_gauge_.set(static_cast<double>(pending_.size()));
}

double StallWatchdog::threshold_ms() const {
  const double p99 = wait_ms_.quantile(0.99);
  const double floor_ms =
      std::chrono::duration<double, std::milli>(options_.floor).count();
  return std::max(options_.multiplier * p99, floor_ms);
}

std::size_t StallWatchdog::check_now() {
  const auto now = std::chrono::steady_clock::now();
  // The p99 read touches the histogram's atomics only — safe without the
  // watchdog mutex, and taking it outside keeps record paths short.
  const double threshold = threshold_ms();
  const auto threshold_dur =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(threshold));

  std::vector<StallReport> reports;
  {
    MutexLock lock(mutex_);
    for (auto& [key, p] : pending_) {
      if (now < p.arm_at || now - p.since < threshold_dur) {
        continue;
      }
      StallReport report;
      report.label = p.label;
      report.waited_ms = ms_between(p.since, now);
      report.threshold_ms = threshold;
      report.p99_ms = wait_ms_.quantile(0.99);
      report.pending = pending_.size();
      reports.push_back(std::move(report));
      // Re-arm far enough out that a wedged request re-reports, while a
      // merely slow one finishes quietly in between.
      p.arm_at = now + 2 * threshold_dur;
    }
  }
  if (reports.empty()) return 0;
  stalled_.inc(reports.size());
  if (on_stall_) on_stall_(reports);
  return reports.size();
}

void StallWatchdog::start() {
  {
    MutexLock lock(mutex_);
    if (running_) {
      return;
    }
    running_ = true;
    stopping_ = false;
  }
  thread_ = sched::Thread("telemetry-watchdog", [this] { run(); });
}

void StallWatchdog::stop() {
  {
    MutexLock lock(mutex_);
    if (!running_) {
      return;
    }
    stopping_ = true;
    wake_cv_.notify_all();
  }
  thread_.join();
  MutexLock lock(mutex_);
  running_ = false;
}

void StallWatchdog::run() {
  for (;;) {
    {
      MutexLock lock(mutex_);
      const auto deadline =
          std::chrono::steady_clock::now() + options_.check_interval;
      while (!stopping_) {
        if (wake_cv_.wait_until(mutex_, deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      if (stopping_) {
        return;
      }
    }
    check_now();
  }
}

}  // namespace hlock::telemetry
