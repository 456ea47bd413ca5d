// Probes for tests of the threaded runtime's blocking calls.
//
// YieldGate watches one of the runtime's explicit schedule points
// (sched::yield_point, docs/sched.md): it records the threads that reach
// the point, and may park one arrival there until the test lets it go. It
// is a Lockdep installed as the process's sync observer for its lifetime,
// so the lock-order checking every test binary runs stays on.
//
// BlockedCall runs one lock() on its own thread and reports when it
// returns. Declare it before the cluster: should a test fail with the call
// still blocked, the cluster's teardown returns it before the join.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/thread_cluster.hpp"
#include "sched/lockdep.hpp"
#include "util/sync_observer.hpp"

namespace hlock::test {

class YieldGate final : public sched::Lockdep {
 public:
  /// Watches `site`; parks its `park_at`-th arrival (counting from 1), or
  /// none when `park_at` is 0.
  explicit YieldGate(std::string site, int park_at = 0)
      : site_(std::move(site)),
        park_at_(park_at),
        previous_(sched::exchange_sync_observer(this)) {}
  YieldGate(const YieldGate&) = delete;
  YieldGate& operator=(const YieldGate&) = delete;
  ~YieldGate() override { sched::exchange_sync_observer(previous_); }

  void yield(const char* site) override {
    if (std::string_view{site} != site_) return;
    std::unique_lock<std::mutex> lock(mutex_);
    arrivals_.push_back(std::this_thread::get_id());
    cv_.notify_all();
    if (static_cast<int>(arrivals_.size()) != park_at_) return;
    parked_ = true;
    cv_.wait(lock, [this] { return released_; });
  }

  /// Waits up to `timeout` for `count` arrivals; true once they came.
  bool await_arrivals(std::size_t count, std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, timeout,
                        [this, count] { return arrivals_.size() >= count; });
  }

  /// Waits up to `timeout` for the parked arrival; true once it is parked.
  bool await_parked(std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, timeout, [this] { return parked_; });
  }

  /// Lets the parked arrival go on.
  void release() {
    const std::lock_guard<std::mutex> guard(mutex_);
    released_ = true;
    cv_.notify_all();
  }

  /// The threads that reached the point, in arrival order.
  std::vector<std::thread::id> arrivals() {
    const std::lock_guard<std::mutex> guard(mutex_);
    return arrivals_;
  }

 private:
  const std::string site_;
  const int park_at_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::thread::id> arrivals_;
  bool parked_ = false;
  bool released_ = false;
  /// Last: the gate is installed once everything else is constructed.
  sched::SyncObserver* const previous_;
};

class BlockedCall {
 public:
  BlockedCall() = default;
  BlockedCall(const BlockedCall&) = delete;
  BlockedCall& operator=(const BlockedCall&) = delete;
  ~BlockedCall() {
    if (thread_.joinable()) thread_.join();
  }

  /// Starts `cluster.lock(node, lock, mode)` on a thread of its own.
  void start(runtime::ThreadCluster& cluster, proto::NodeId node,
             proto::LockId lock, proto::LockMode mode) {
    thread_ = std::thread([this, &cluster, node, lock, mode] {
      cluster.lock(node, lock, mode);
      const std::lock_guard<std::mutex> guard(mutex_);
      returned_ = true;
      cv_.notify_all();
    });
  }

  /// Waits up to `timeout` for the call to return; true once it has.
  bool await_return(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, timeout, [this] { return returned_; });
  }

  bool returned() {
    const std::lock_guard<std::mutex> guard(mutex_);
    return returned_;
  }

  /// The calling thread's id.
  std::thread::id id() const { return thread_.get_id(); }

  void join() { thread_.join(); }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool returned_ = false;
  std::thread thread_;
};

}  // namespace hlock::test
