#include "transport/mailbox.hpp"

#include <iterator>

#include "util/check.hpp"

namespace hlock::transport {
namespace {

/// One spin-wait step: tells the core the thread is spinning.
void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

void Mailbox::push(proto::Message message) {
  // Explicit schedule point: under the explorer a racing take/close may be
  // interleaved before the push takes the lock (docs/sched.md).
  sched::yield_point("mailbox.push");
  CondVar* wake = nullptr;
  {
    MutexLock guard(mutex_);
    if (closed_) return;
    queue_.push_back(std::move(message));
    ++pushed_;
    activity_.fetch_add(1, std::memory_order_relaxed);
    // An enlisted caller looks at the queue before it waits, so the wake
    // may go to it even before it waits; while it spins, nobody waits on
    // its condvar, and the notify costs no system call.
    if (drainer_ == Drainer::kNone) {
      wake = caller_enlisted_ ? &caller_cv_ : &cv_;
    }
  }
  if (wake != nullptr) wake->notify_one();
}

std::vector<proto::Message> Mailbox::take_all() {
  std::vector<proto::Message> batch(std::make_move_iterator(queue_.begin()),
                                    std::make_move_iterator(queue_.end()));
  queue_.clear();
  return batch;
}

std::vector<proto::Message> Mailbox::pop_all_ready(
    Clock::time_point deadline) {
  MutexLock lock(mutex_);
  // The receiver gives its claim up in the lock hold that finds its inbox
  // empty; from then on a push wakes it, or the enlisted caller.
  if (drainer_ == Drainer::kReceiver && queue_.empty()) {
    drainer_ = Drainer::kNone;
  }
  while (drainer_ == Drainer::kCaller || (queue_.empty() && !closed_)) {
    if (deadline == Clock::time_point::max()) {
      cv_.wait(mutex_);
    } else if (cv_.wait_until(mutex_, deadline) == std::cv_status::timeout) {
      break;
    }
  }
  if (drainer_ == Drainer::kCaller || queue_.empty()) return {};
  drainer_ = Drainer::kReceiver;
  return take_all();
}

std::optional<std::uint64_t> Mailbox::enlist_caller() {
  MutexLock guard(mutex_);
  if (caller_enlisted_) return std::nullopt;
  caller_enlisted_ = true;
  return signals_;
}

std::vector<proto::Message> Mailbox::take_for_caller(
    std::uint64_t generation) {
  bool wake_receiver = false;
  {
    MutexLock lock(mutex_);
    HLOCK_REQUIRE(caller_enlisted_,
                  "take_for_caller() without enlist_caller()");
    bool spun = false;
    while (signals_ == generation && !closed_) {
      if (!queue_.empty() && drainer_ != Drainer::kReceiver) {
        drainer_ = Drainer::kCaller;
        return take_all();
      }
      // An empty take gives the claim back; from then on a push wakes the
      // caller again.
      if (drainer_ == Drainer::kCaller) drainer_ = Drainer::kNone;
      // Spin once before each park; the loop re-checks what it saw.
      if (!spun) {
        spin_unlocked();
        spun = true;
      } else {
        caller_cv_.wait(mutex_);
        spun = false;
      }
    }
    // The wait is over: the caller does no more work for others. Messages
    // still queued, or pushed since a wake that went to the caller, are
    // the receiver's; so is seeing a closed mailbox drained.
    if (drainer_ == Drainer::kCaller) drainer_ = Drainer::kNone;
    caller_enlisted_ = false;
    wake_receiver = drainer_ == Drainer::kNone && (!queue_.empty() || closed_);
  }
  if (wake_receiver) cv_.notify_one();
  return {};
}

void Mailbox::spin_unlocked() {
  const std::uint64_t seen = activity_.load(std::memory_order_relaxed);
  mutex_.unlock();
  // Explicit schedule point: under the explorer a push, signal or close
  // may slip in here. The timed part below has no sync points, so the
  // schedule replays from its seed whatever the spin's timing.
  sched::yield_point("mailbox.caller-spin");
  const Clock::time_point until = Clock::now() + kCallerSpin;
  while (activity_.load(std::memory_order_relaxed) == seen &&
         Clock::now() < until) {
    cpu_relax();
  }
  mutex_.lock();
}

void Mailbox::signal_caller() {
  bool wake = false;
  {
    MutexLock guard(mutex_);
    ++signals_;
    activity_.fetch_add(1, std::memory_order_relaxed);
    // A caller holding the claim is applying messages, not waiting; its
    // next take sees the signal.
    wake = caller_enlisted_ && drainer_ != Drainer::kCaller;
  }
  if (wake) caller_cv_.notify_one();
}

void Mailbox::close() {
  sched::yield_point("mailbox.close");
  {
    MutexLock guard(mutex_);
    closed_ = true;
    activity_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_all();
  caller_cv_.notify_all();
}

std::uint64_t Mailbox::pushed() const {
  MutexLock guard(mutex_);
  return pushed_;
}

std::size_t Mailbox::size() const {
  MutexLock guard(mutex_);
  return queue_.size();
}

}  // namespace hlock::transport
