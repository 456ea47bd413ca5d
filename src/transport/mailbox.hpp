// A thread-safe FIFO mailbox: one in-process node's delivery queue, with a
// drain claim.
//
// Producers push from any thread. Exactly one thread drains the queue at a
// time, and the claim records which: nobody, the node's receiver, or the
// node's blocked caller. The receiver drains every queued message in one
// lock acquisition (pop_all_ready), which is what lets the threaded runtime
// deliver a burst as a batch instead of paying one mutex round-trip per
// message. One application call blocked on its grant at this node may
// enlist as the inbox's caller: while it is enlisted, a push that finds
// nobody draining wakes the caller instead of the receiver, and the caller
// applies its node's messages on its own thread until a signal says its
// wait is over (docs/performance.md, "Blocked calls drain their own
// inbox"). The receiver keeps the claim until a take finds the queue
// empty; the caller gives it back on an empty take too, or once signalled,
// waking the receiver for what remains — so every message is taken in push
// order and none is left queued with nobody draining it or woken to.
// A caller that finds nothing to take spins for up to kCallerSpin before
// it parks: a push, signal or close bumps an activity counter the spin
// reads without the mutex, so the grant, or the next message to apply,
// usually reaches the caller without a thread wake-up (docs/performance.md,
// "Blocked calls spin before they park").
// Messages move in and out, so a payload's buffers (a token's queue) are
// never copied on the way through.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "proto/message.hpp"
#include "util/sync.hpp"

namespace hlock::transport {

/// Multi-producer FIFO mailbox with a single-drainer claim.
class Mailbox {
 public:
  using Clock = std::chrono::steady_clock;

  /// Appends a message and, when nobody drains, wakes the enlisted caller,
  /// or the receiver if no caller is enlisted. Wakes nobody while a drainer
  /// holds the claim (it takes the message before it lets go). No-op after
  /// close().
  void push(proto::Message message) HLOCK_EXCLUDES(mutex_);

  /// The receiver's take. Blocks, at most until `deadline`, while the
  /// caller holds the claim or while the queue is empty and the mailbox
  /// open; then drains and returns every queued message in push order, with
  /// the claim held by the receiver. The receiver keeps the claim until a
  /// take finds the queue empty. Empty on timeout, or once the mailbox is
  /// closed and drained.
  std::vector<proto::Message> pop_all_ready(
      Clock::time_point deadline = Clock::time_point::max())
      HLOCK_EXCLUDES(mutex_);

  /// Enlists the calling thread as the mailbox's one blocked caller and
  /// returns the signal generation its takes compare against; nothing
  /// while another caller is enlisted.
  std::optional<std::uint64_t> enlist_caller() HLOCK_EXCLUDES(mutex_);

  /// The enlisted caller's take. Blocks while the mailbox is unsignalled
  /// since `generation` and open, and either the queue is empty or the
  /// receiver drains; an empty take gives the caller's claim back. Before
  /// each park it spins once, for up to kCallerSpin with the mutex
  /// dropped, until a push, signal or close. Returns every queued message
  /// in push order, with the claim held by the caller. Once signalled or
  /// closed, returns nothing: in one lock hold it gives the claim back,
  /// withdraws the enlistment and wakes the receiver if messages remain.
  std::vector<proto::Message> take_for_caller(std::uint64_t generation)
      HLOCK_EXCLUDES(mutex_);

  /// Advances the signal generation and wakes the enlisted caller: its
  /// wait is over.
  void signal_caller() HLOCK_EXCLUDES(mutex_);

  /// Closes the mailbox: queued messages remain takeable, new pushes are
  /// dropped, and the blocked receiver and caller wake up.
  void close() HLOCK_EXCLUDES(mutex_);

  /// Messages deposited over the mailbox's lifetime.
  std::uint64_t pushed() const HLOCK_EXCLUDES(mutex_);

  /// Messages currently waiting. Telemetry read.
  std::size_t size() const HLOCK_EXCLUDES(mutex_);

 private:
  enum class Drainer : std::uint8_t { kNone, kReceiver, kCaller };

  /// How long a caller with nothing to take spins before it parks. A spin
  /// that sees its event sees it about 4.5 us after it began. Three rounds
  /// of 6 s inproc-airline runs on a 4-vCPU VM (g++ 12, RelWithDebInfo),
  /// medians, against 247k acquisitions/s without the spin: 5 us 372k
  /// (62-65% of spins saw their event), 10 us 446k (89-92%), 20 us 428k
  /// (98.7-98.9%), 100 us 471k (99.9%). Head to head over six more pairs,
  /// 20 us beat 100 us in five (421k against 406k), and one 100 us run
  /// fell to 194k with a 254 us p99: a longer spin takes CPU from the
  /// threads that carry the hops.
  static constexpr std::chrono::microseconds kCallerSpin{20};

  /// Moves the whole queue out: one allocation for the batch; the queue
  /// keeps its capacity, so the steady-state pushes allocate nothing.
  std::vector<proto::Message> take_all() HLOCK_REQUIRES(mutex_);

  /// Drops the mutex and spins, for up to kCallerSpin, until `activity_`
  /// moves past its value under the mutex; then re-takes the mutex.
  void spin_unlocked() HLOCK_REQUIRES(mutex_);

  mutable Mutex mutex_;
  CondVar cv_;         ///< the receiver waits here
  CondVar caller_cv_;  ///< the enlisted caller waits here
  std::vector<proto::Message> queue_ HLOCK_GUARDED_BY(mutex_);
  std::uint64_t pushed_ HLOCK_GUARDED_BY(mutex_) = 0;
  Drainer drainer_ HLOCK_GUARDED_BY(mutex_) = Drainer::kNone;
  bool caller_enlisted_ HLOCK_GUARDED_BY(mutex_) = false;
  std::uint64_t signals_ HLOCK_GUARDED_BY(mutex_) = 0;
  bool closed_ HLOCK_GUARDED_BY(mutex_) = false;
  /// Bumped under the mutex by every push, signal and close; read without
  /// it only by the spinning caller, which re-checks under the mutex.
  std::atomic<std::uint64_t> activity_{0};
};

}  // namespace hlock::transport
