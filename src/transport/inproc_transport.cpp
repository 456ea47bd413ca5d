#include "transport/inproc_transport.hpp"

#include "proto/codec.hpp"
#include "util/check.hpp"

namespace hlock::transport {

InProcTransport::InProcTransport(const InProcOptions& options) {
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
  mailbox(message.to).push(std::move(*decoded));
  sent_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<proto::Message> InProcTransport::recv_ready(
    proto::NodeId node, Clock::time_point deadline) {
  return mailbox(node).pop_all_ready(deadline);
}

void InProcTransport::shutdown() {
  for (auto& box : mailboxes_) box->close();
}

}  // namespace hlock::transport
