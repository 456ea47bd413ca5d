#include "transport/inproc_transport.hpp"

#include "proto/codec.hpp"
#include "util/check.hpp"

namespace hlock::transport {

InProcTransport::InProcTransport(const InProcOptions& options)
    : options_(options), latency_rng_(Rng{options.seed}.split(0x7A57u)) {
  HLOCK_REQUIRE(options.node_count >= 1,
                "a transport needs at least one node");
  mailboxes_.reserve(options.node_count);
  for (std::size_t i = 0; i < options.node_count; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
}

Mailbox& InProcTransport::mailbox(proto::NodeId node) {
  HLOCK_REQUIRE(node.value() < mailboxes_.size(), "unknown node id");
  return *mailboxes_[node.value()];
}

Mailbox::Clock::time_point InProcTransport::schedule_delivery(
    proto::NodeId from, proto::NodeId to) {
  MutexLock guard(latency_mutex_);
  const SimTime latency = options_.latency.sample(latency_rng_);
  Mailbox::Clock::time_point deliver_at =
      Mailbox::Clock::now() + std::chrono::nanoseconds(latency.count_ns());
  auto& front = channel_front_[{from, to}];
  if (deliver_at <= front) {
    deliver_at = front + std::chrono::nanoseconds(1);
  }
  front = deliver_at;
  return deliver_at;
}

void InProcTransport::send(const proto::Message& message) {
  // One scratch buffer per sending thread: capacity persists across
  // sends, so the steady state allocates nothing for the wire image.
  thread_local std::vector<std::byte> scratch;
  scratch.clear();
  proto::encode_into(message, scratch);
  std::optional<proto::Message> decoded = proto::decode(scratch);
  HLOCK_INVARIANT(decoded.has_value() && *decoded == message,
                  "codec round-trip corrupted a message");
  bytes_.fetch_add(scratch.size(), std::memory_order_relaxed);

  const Mailbox::Clock::time_point deliver_at =
      schedule_delivery(message.from, message.to);
  mailbox(message.to).push(std::move(*decoded), deliver_at);
  sent_.fetch_add(1, std::memory_order_relaxed);
}

std::optional<proto::Message> InProcTransport::recv(proto::NodeId node) {
  return mailbox(node).pop();
}

std::vector<proto::Message> InProcTransport::recv_ready(proto::NodeId node) {
  return mailbox(node).pop_all_ready();
}

std::optional<proto::Message> InProcTransport::recv_for(
    proto::NodeId node, std::chrono::milliseconds timeout) {
  return mailbox(node).pop_until(Mailbox::Clock::now() + timeout);
}

void InProcTransport::shutdown() {
  for (auto& box : mailboxes_) box->close();
}

}  // namespace hlock::transport
