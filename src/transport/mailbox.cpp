#include "transport/mailbox.hpp"

#include <iterator>

#include "util/check.hpp"

namespace hlock::transport {

bool Mailbox::append(proto::Message&& message) {
  // Explicit schedule point: under the explorer a racing take/close may be
  // interleaved before the push takes the lock (docs/sched.md).
  sched::yield_point("mailbox.push");
  MutexLock guard(mutex_);
  if (closed_) return false;
  queue_.push_back(std::move(message));
  ++pushed_;
  return drainer_ == Drainer::kNone;
}

void Mailbox::push(proto::Message message) {
  if (append(std::move(message))) cv_.notify_one();
}

void Mailbox::push_quiet(proto::Message message) {
  append(std::move(message));
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
  // empty; from then on a push wakes it, or a peer may claim.
  if (drainer_ == Drainer::kReceiver && queue_.empty()) {
    drainer_ = Drainer::kNone;
  }
  while (drainer_ == Drainer::kPeer || (queue_.empty() && !closed_)) {
    if (deadline == Clock::time_point::max()) {
      cv_.wait(mutex_);
    } else if (cv_.wait_until(mutex_, deadline) == std::cv_status::timeout) {
      break;
    }
  }
  if (drainer_ == Drainer::kPeer || queue_.empty()) return {};
  drainer_ = Drainer::kReceiver;
  return take_all();
}

std::vector<proto::Message> Mailbox::claim() {
  MutexLock guard(mutex_);
  if (drainer_ != Drainer::kNone || queue_.empty()) return {};
  drainer_ = Drainer::kPeer;
  return take_all();
}

std::vector<proto::Message> Mailbox::next_or_release() {
  bool closed = false;
  {
    MutexLock guard(mutex_);
    HLOCK_REQUIRE(drainer_ == Drainer::kPeer,
                  "next_or_release() without a peer's claim");
    if (!queue_.empty()) return take_all();
    drainer_ = Drainer::kNone;
    closed = closed_;
  }
  // The queue is empty, so an open mailbox's receiver still has nothing to
  // wake for; a closed one's receiver was waiting out this claim to see
  // the mailbox drained.
  if (closed) cv_.notify_all();
  return {};
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
