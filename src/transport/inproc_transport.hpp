// In-process message transport over real threads.
//
// The simulated-cluster harness (runtime/sim_cluster.hpp) validates the
// protocol under modelled time; this transport validates it under real
// concurrency: every node has its own receiving thread, messages cross true
// thread boundaries, and every message round-trips through the binary wire
// codec, exactly as a socket deployment would ship it. Delivery is
// immediate — the goal here is races, not timing realism; wrap the
// transport in a FaultyTransport to add delay.
//
// Each node has one FIFO mailbox, and send() pushes before it returns, so
// every ordered (from, to) channel is FIFO, matching TCP/MPI and the
// simulator's network model. Beyond the Transport interface, the threaded
// runtime reaches each node's mailbox for its drain claim: a lock()/
// upgrade() call blocked on its grant enlists as its node's caller, so a
// send that finds that inbox idle goes to the call, which applies its
// node's messages on its own thread until it is signalled. The call spins
// briefly before it parks, so such a send usually finds it spinning and
// costs no thread wake-up (docs/transports.md §2).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "proto/ids.hpp"
#include "proto/message.hpp"
#include "transport/mailbox.hpp"
#include "transport/transport.hpp"

namespace hlock::transport {

/// Construction parameters for an in-process transport.
struct InProcOptions {
  std::size_t node_count = 2;
};

/// See file comment.
class InProcTransport final : public Transport {
 public:
  explicit InProcTransport(const InProcOptions& options);

  /// Round-trips a message through the codec and pushes the decoded copy
  /// into its destination's mailbox. Thread-safe. Throws InvariantError if
  /// the codec round-trip corrupts the message.
  void send(const proto::Message& message) override;

  /// `node`'s mailbox, for the threaded runtime's blocked callers. Throws
  /// UsageError for an unknown node.
  Mailbox& mailbox(proto::NodeId node);

  /// Drains `node`'s mailbox in one lock acquisition.
  std::vector<proto::Message> recv_ready(
      proto::NodeId node,
      Clock::time_point deadline = Clock::time_point::max()) override;

  /// Closes all mailboxes; blocked receivers wake up.
  void shutdown() override;

  std::size_t node_count() const override { return mailboxes_.size(); }

  /// Total messages accepted by send().
  std::uint64_t messages_sent() const override { return sent_.load(); }

  /// Encoded bytes shipped.
  std::uint64_t bytes_sent() const override { return bytes_.load(); }

  /// Messages waiting in `node`'s mailbox.
  std::size_t inbox_depth(proto::NodeId node) const override {
    return node.value() < mailboxes_.size()
               ? mailboxes_[node.value()]->size()
               : 0;
  }

 private:
  /// Fixed at construction (the mailboxes themselves are thread-safe).
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

}  // namespace hlock::transport
