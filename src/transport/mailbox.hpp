// A thread-safe FIFO mailbox: one in-process node's delivery queue.
//
// Producers push from any thread; the node's receiver drains every queued
// message in one lock acquisition (pop_all_ready), which is what lets the
// threaded runtime deliver a burst as a batch instead of paying one mutex
// round-trip per message. Messages move in and out, so a payload's buffers
// (a token's queue) are never copied on the way through.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "proto/message.hpp"
#include "util/sync.hpp"

namespace hlock::transport {

/// Multi-producer single-consumer FIFO mailbox.
class Mailbox {
 public:
  using Clock = std::chrono::steady_clock;

  /// Appends a message. No-op after close().
  void push(proto::Message message) HLOCK_EXCLUDES(mutex_);

  /// Blocks until a message is queued, `deadline` passes, or the mailbox
  /// is closed; then drains and returns every queued message in push
  /// order. Empty on timeout, or once the mailbox is closed and empty.
  std::vector<proto::Message> pop_all_ready(
      Clock::time_point deadline = Clock::time_point::max())
      HLOCK_EXCLUDES(mutex_);

  /// Closes the mailbox: queued messages remain poppable, new pushes are
  /// dropped, and blocked consumers wake up.
  void close() HLOCK_EXCLUDES(mutex_);

  /// Messages deposited over the mailbox's lifetime.
  std::uint64_t pushed() const HLOCK_EXCLUDES(mutex_);

  /// Messages currently waiting. Telemetry read.
  std::size_t size() const HLOCK_EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  CondVar cv_;
  std::vector<proto::Message> queue_ HLOCK_GUARDED_BY(mutex_);
  std::uint64_t pushed_ HLOCK_GUARDED_BY(mutex_) = 0;
  bool closed_ HLOCK_GUARDED_BY(mutex_) = false;
};

}  // namespace hlock::transport
