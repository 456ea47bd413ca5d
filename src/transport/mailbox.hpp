// A thread-safe mailbox with earliest-deadline delivery.
//
// Building block of the in-process transport: producers deposit messages
// with an absolute delivery time (wall clock); the consumer blocks until
// the earliest message becomes deliverable. Injected delivery times model
// network latency while per-channel FIFO is enforced by the transport.
//
// Hot-path notes: the heap is an explicit std::vector managed with the
// <algorithm> heap primitives rather than a std::priority_queue — the
// adapter only exposes a const top(), which forced every delivered message
// into a deep copy (payload queue buffers included); the vector form lets
// pop extract by move. pop_all_ready() drains every matured message in one
// lock acquisition, which is what lets the threaded runtime deliver a burst
// as a batch instead of paying one mutex round-trip per message.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "proto/message.hpp"
#include "util/sync.hpp"

namespace hlock::transport {

/// Multi-producer single-consumer mailbox ordered by delivery time.
class Mailbox {
 public:
  using Clock = std::chrono::steady_clock;

  /// Deposits a message that becomes deliverable at `deliver_at`.
  /// No-op after close().
  void push(proto::Message message, Clock::time_point deliver_at)
      HLOCK_EXCLUDES(mutex_);

  /// Blocks until a message is deliverable or the mailbox is closed and
  /// empty. Returns std::nullopt only in the latter case.
  std::optional<proto::Message> pop() HLOCK_EXCLUDES(mutex_);

  /// Like pop() but gives up at `deadline`; std::nullopt on timeout or
  /// closed-and-empty.
  std::optional<proto::Message> pop_until(Clock::time_point deadline)
      HLOCK_EXCLUDES(mutex_);

  /// Blocks like pop(), then drains and returns every message already
  /// matured at that point, in delivery order. Returns an empty vector only
  /// once the mailbox is closed and empty.
  std::vector<proto::Message> pop_all_ready() HLOCK_EXCLUDES(mutex_);

  /// Closes the mailbox: pending messages remain poppable, new pushes are
  /// dropped, and blocked consumers wake up.
  void close() HLOCK_EXCLUDES(mutex_);

  /// Messages deposited over the mailbox's lifetime.
  std::uint64_t pushed() const HLOCK_EXCLUDES(mutex_);

  /// Messages currently waiting (matured or not). Telemetry read.
  std::size_t size() const HLOCK_EXCLUDES(mutex_);

 private:
  struct Entry {
    Clock::time_point deliver_at;
    std::uint64_t seq;
    proto::Message message;
    /// Min-ordering by (deliver_at, seq) via inverted comparison.
    bool operator<(const Entry& other) const {
      if (deliver_at != other.deliver_at) {
        return deliver_at > other.deliver_at;
      }
      return seq > other.seq;
    }
  };

  /// Removes and returns the earliest entry's message by move (no payload
  /// buffer is copied). Precondition: the heap is non-empty.
  proto::Message pop_top_locked() HLOCK_REQUIRES(mutex_);

  mutable Mutex mutex_;
  CondVar cv_;
  /// Binary min-heap on Entry::operator< (std::push_heap/std::pop_heap);
  /// heap_.front() is the earliest entry.
  std::vector<Entry> heap_ HLOCK_GUARDED_BY(mutex_);
  std::uint64_t next_seq_ HLOCK_GUARDED_BY(mutex_) = 0;
  std::uint64_t pushed_ HLOCK_GUARDED_BY(mutex_) = 0;
  bool closed_ HLOCK_GUARDED_BY(mutex_) = false;
};

}  // namespace hlock::transport
