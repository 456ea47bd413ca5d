#include "common.hpp"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "core/mode_tables.hpp"
#include "workload/mode_mix.hpp"

namespace perfbench {

std::int64_t now_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int thread_count() {
  int count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

int allowed_cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

CpuRotation::CpuRotation() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }
}

void CpuRotation::pin(std::size_t turn) {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[turn % cpus_.size()], &one);
  pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
}

void CpuRotation::unpin() {
  if (!pinned_) return;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  for (const int cpu : cpus_) CPU_SET(cpu, &allowed);
  sched_setaffinity(0, sizeof(allowed), &allowed);
  pinned_ = false;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  std::size_t index = rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  index = std::min(index, values.size() - 1);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

std::size_t lock_count(Pattern pattern, std::size_t nodes) {
  return pattern == Pattern::kAirline ? kAirlineEntries + 1 : nodes;
}

Rng airline_rng(std::uint64_t seed, std::size_t node) {
  return Rng{seed}.split(node + 1);
}

std::vector<LockStep> draw_airline_op(Rng& rng) {
  using namespace hlock::workload;
  const LockMode mode = ModeMix::paper().sample(rng);
  const auto entry = static_cast<std::size_t>(rng.below(kAirlineEntries));
  return plan_op(AppVariant::kHierarchical, op_for_mode(mode), entry,
                 kAirlineEntries);
}

HolderTable::HolderTable(std::size_t locks) {
  for (std::size_t i = 0; i < locks; ++i) {
    slots_.push_back(std::make_unique<Slot>());
  }
}

HolderTable::Slot* HolderTable::slot(LockId lock) {
  if (lock.value() < slots_.size()) return slots_[lock.value()].get();
  violate("grant of unknown " + hlock::proto::to_string(lock));
  return nullptr;
}

void HolderTable::acquire(NodeId node, LockId lock, LockMode mode) {
  Slot* s = slot(lock);
  if (s == nullptr) return;
  std::string conflict;
  {
    std::lock_guard guard(s->mutex);
    for (const auto& [holder, held] : s->holders) {
      if (holder == node || hlock::core::incompatible(held, mode)) {
        conflict = hlock::proto::to_string(node) + " granted " +
                   hlock::proto::to_string(mode) + " on " +
                   hlock::proto::to_string(lock) + " while " +
                   hlock::proto::to_string(holder) + " holds " +
                   hlock::proto::to_string(held);
        break;
      }
    }
    s->holders.emplace_back(node, mode);
  }
  if (!conflict.empty()) violate(conflict);
}

void HolderTable::upgrade(NodeId node, LockId lock) {
  Slot* s = slot(lock);
  if (s == nullptr) return;
  std::string problem;
  {
    std::lock_guard guard(s->mutex);
    auto self = std::find_if(s->holders.begin(), s->holders.end(),
                             [node](const auto& h) { return h.first == node; });
    if (self == s->holders.end() || self->second != LockMode::kU) {
      problem = hlock::proto::to_string(node) + " upgraded " +
                hlock::proto::to_string(lock) + " without holding it in U";
    } else {
      for (const auto& [holder, held] : s->holders) {
        if (holder != node && hlock::core::incompatible(held, LockMode::kW)) {
          problem = hlock::proto::to_string(node) + " upgraded " +
                    hlock::proto::to_string(lock) + " to W while " +
                    hlock::proto::to_string(holder) + " holds " +
                    hlock::proto::to_string(held);
          break;
        }
      }
      self->second = LockMode::kW;
    }
  }
  if (!problem.empty()) violate(problem);
}

void HolderTable::release(NodeId node, LockId lock) {
  Slot* s = slot(lock);
  if (s == nullptr) return;
  bool held = false;
  {
    std::lock_guard guard(s->mutex);
    auto self = std::find_if(s->holders.begin(), s->holders.end(),
                             [node](const auto& h) { return h.first == node; });
    if (self != s->holders.end()) {
      s->holders.erase(self);
      held = true;
    }
  }
  if (!held) {
    violate(hlock::proto::to_string(node) + " released " +
            hlock::proto::to_string(lock) + " without holding it");
  }
}

std::string HolderTable::first_violation() const {
  std::lock_guard guard(first_mutex_);
  return first_;
}

void HolderTable::violate(const std::string& what) {
  violations_.fetch_add(1);
  std::lock_guard guard(first_mutex_);
  if (first_.empty()) first_ = what;
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not a finite number");
    value = 0;
  }
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::fail(const std::string& why) { problems_.push_back(why); }

void Report::print() const {
  for (const Metric& metric : metrics_) {
    std::printf("  %-36s %18.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const std::string& problem : problems_) {
    std::printf("VIOLATION: %s\n", problem.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
