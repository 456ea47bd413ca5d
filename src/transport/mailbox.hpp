// A thread-safe FIFO mailbox: one in-process node's delivery queue, with a
// drain claim.
//
// Producers push from any thread. Exactly one thread drains the queue at a
// time, and the claim records which: nobody, the node's receiver, or a
// peer. The receiver drains every queued message in one lock acquisition
// (pop_all_ready), which is what lets the threaded runtime deliver a burst
// as a batch instead of paying one mutex round-trip per message. A peer —
// another node's receiver that has just sent here — may claim an inbox
// nobody drains and apply its messages itself, saving the receiver's
// wake-up (docs/performance.md, "Receiver hand-off"). Whoever holds the
// claim keeps taking until it finds the queue empty, and only then gives
// the claim up, so every message is taken in push order and none is left
// queued with nobody draining it. Messages move in and out, so a payload's
// buffers (a token's queue) are never copied on the way through.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "proto/message.hpp"
#include "util/sync.hpp"

namespace hlock::transport {

/// Multi-producer FIFO mailbox with a single-drainer claim.
class Mailbox {
 public:
  using Clock = std::chrono::steady_clock;

  /// Appends a message and wakes the receiver, unless a drainer holds the
  /// claim (it takes the message before it lets go). No-op after close().
  void push(proto::Message message) HLOCK_EXCLUDES(mutex_);

  /// Appends a message without waking anyone. For a sender that calls
  /// claim() next: whatever that claim misses, the current drainer takes.
  /// No-op after close().
  void push_quiet(proto::Message message) HLOCK_EXCLUDES(mutex_);

  /// The receiver's take. Blocks, at most until `deadline`, while a peer
  /// holds the claim or while the queue is empty and the mailbox open;
  /// then drains and returns every queued message in push order, with the
  /// claim held by the receiver. The receiver keeps the claim until a take
  /// finds the queue empty. Empty on timeout, or once the mailbox is
  /// closed and drained.
  std::vector<proto::Message> pop_all_ready(
      Clock::time_point deadline = Clock::time_point::max())
      HLOCK_EXCLUDES(mutex_);

  /// A peer's take: when nobody drains and the queue is not empty, claims
  /// the mailbox and returns every queued message; otherwise returns
  /// nothing. Never blocks.
  std::vector<proto::Message> claim() HLOCK_EXCLUDES(mutex_);

  /// The claiming peer's next take: every message queued since, or —
  /// in the same lock hold that finds the queue empty — nothing, with the
  /// claim given up.
  std::vector<proto::Message> next_or_release() HLOCK_EXCLUDES(mutex_);

  /// Closes the mailbox: queued messages remain takeable, new pushes are
  /// dropped, and blocked receivers wake up.
  void close() HLOCK_EXCLUDES(mutex_);

  /// Messages deposited over the mailbox's lifetime.
  std::uint64_t pushed() const HLOCK_EXCLUDES(mutex_);

  /// Messages currently waiting. Telemetry read.
  std::size_t size() const HLOCK_EXCLUDES(mutex_);

 private:
  enum class Drainer : std::uint8_t { kNone, kReceiver, kPeer };

  /// Appends under the lock; true when the receiver may need a wake-up.
  bool append(proto::Message&& message) HLOCK_EXCLUDES(mutex_);
  /// Moves the whole queue out: one allocation for the batch; the queue
  /// keeps its capacity, so the steady-state pushes allocate nothing.
  std::vector<proto::Message> take_all() HLOCK_REQUIRES(mutex_);

  mutable Mutex mutex_;
  CondVar cv_;
  std::vector<proto::Message> queue_ HLOCK_GUARDED_BY(mutex_);
  std::uint64_t pushed_ HLOCK_GUARDED_BY(mutex_) = 0;
  Drainer drainer_ HLOCK_GUARDED_BY(mutex_) = Drainer::kNone;
  bool closed_ HLOCK_GUARDED_BY(mutex_) = false;
};

}  // namespace hlock::transport
