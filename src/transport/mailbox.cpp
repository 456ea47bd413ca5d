#include "transport/mailbox.hpp"

#include <iterator>

namespace hlock::transport {

void Mailbox::push(proto::Message message) {
  // Explicit schedule point: under the explorer a racing pop/close may be
  // interleaved before the push takes the lock (docs/sched.md).
  sched::yield_point("mailbox.push");
  {
    MutexLock guard(mutex_);
    if (closed_) return;
    queue_.push_back(std::move(message));
    ++pushed_;
  }
  cv_.notify_one();
}

std::vector<proto::Message> Mailbox::pop_all_ready(
    Clock::time_point deadline) {
  MutexLock lock(mutex_);
  while (queue_.empty() && !closed_) {
    if (deadline == Clock::time_point::max()) {
      cv_.wait(mutex_);
    } else if (cv_.wait_until(mutex_, deadline) == std::cv_status::timeout) {
      break;
    }
  }
  // One allocation for the batch; the queue keeps its capacity, so the
  // steady-state pushes allocate nothing.
  std::vector<proto::Message> ready(std::make_move_iterator(queue_.begin()),
                                    std::make_move_iterator(queue_.end()));
  queue_.clear();
  return ready;
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
  return queue_.size();
}

}  // namespace hlock::transport
