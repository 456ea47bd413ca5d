#include "transport/mailbox.hpp"

#include <algorithm>

namespace hlock::transport {

proto::Message Mailbox::pop_top_locked() {
  // pop_heap moves the earliest entry to the back, where it can be
  // extracted by move — the payload's queue buffer travels, not copies.
  std::pop_heap(heap_.begin(), heap_.end());
  proto::Message message = std::move(heap_.back().message);
  heap_.pop_back();
  return message;
}

void Mailbox::push(proto::Message message, Clock::time_point deliver_at) {
  // Explicit schedule point: under the explorer a racing pop/close may be
  // interleaved before the push takes the lock (docs/sched.md).
  sched::yield_point("mailbox.push");
  {
    MutexLock guard(mutex_);
    if (closed_) return;
    heap_.push_back(Entry{deliver_at, next_seq_++, std::move(message)});
    std::push_heap(heap_.begin(), heap_.end());
    ++pushed_;
  }
  cv_.notify_one();
}

std::optional<proto::Message> Mailbox::pop() {
  return pop_until(Clock::time_point::max());
}

std::optional<proto::Message> Mailbox::pop_until(Clock::time_point deadline) {
  MutexLock lock(mutex_);
  for (;;) {
    if (!heap_.empty()) {
      const Clock::time_point due = heap_.front().deliver_at;
      if (due <= Clock::now()) {
        return pop_top_locked();
      }
      // Wait until the head matures, the deadline passes, or a new
      // (possibly earlier) message arrives.
      const Clock::time_point until = std::min(due, deadline);
      if (cv_.wait_until(mutex_, until) == std::cv_status::timeout &&
          until == deadline && Clock::now() >= deadline) {
        // Deadline reached before the head matured.
        if (!heap_.empty() && heap_.front().deliver_at <= Clock::now()) {
          return pop_top_locked();
        }
        return std::nullopt;
      }
      continue;
    }
    if (closed_) return std::nullopt;
    if (deadline == Clock::time_point::max()) {
      cv_.wait(mutex_);
    } else if (cv_.wait_until(mutex_, deadline) == std::cv_status::timeout) {
      if (!heap_.empty() && heap_.front().deliver_at <= Clock::now()) {
        continue;
      }
      return std::nullopt;
    }
  }
}

std::vector<proto::Message> Mailbox::pop_all_ready() {
  MutexLock lock(mutex_);
  for (;;) {
    if (!heap_.empty()) {
      const Clock::time_point now = Clock::now();
      if (heap_.front().deliver_at <= now) {
        // Drain every message matured by `now` under this one lock hold;
        // later-matured messages wait for the next call.
        std::vector<proto::Message> ready;
        ready.reserve(heap_.size());  // upper bound: one allocation, no regrowth
        while (!heap_.empty() && heap_.front().deliver_at <= now) {
          ready.push_back(pop_top_locked());
        }
        return ready;
      }
      cv_.wait_until(mutex_, heap_.front().deliver_at);
      continue;
    }
    if (closed_) return {};
    cv_.wait(mutex_);
  }
}

void Mailbox::close() {
  sched::yield_point("mailbox.close");
  {
    MutexLock guard(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::uint64_t Mailbox::pushed() const {
  MutexLock guard(mutex_);
  return pushed_;
}

std::size_t Mailbox::size() const {
  MutexLock guard(mutex_);
  return heap_.size();
}

}  // namespace hlock::transport
