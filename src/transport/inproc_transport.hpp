// In-process message transport over real threads.
//
// The simulated-cluster harness (runtime/sim_cluster.hpp) validates the
// protocol under modelled time; this transport validates it under real
// concurrency: every node runs on its own thread, messages cross true
// thread boundaries, and every message round-trips through the binary wire
// codec, exactly as a socket deployment would ship it. Injected latency is
// optional and small — the goal here is races, not timing realism.
//
// Channels are FIFO per ordered (from, to) pair, matching TCP/MPI and the
// simulator's network model.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "proto/ids.hpp"
#include "proto/message.hpp"
#include "transport/mailbox.hpp"
#include "transport/transport.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace hlock::transport {

/// Construction parameters for an in-process transport.
struct InProcOptions {
  std::size_t node_count = 2;
  /// Injected one-way latency (real time); zero by default.
  DurationDist latency = DurationDist::constant(SimTime::ns(0));
  std::uint64_t seed = 1;
};

/// See file comment.
class InProcTransport final : public Transport {
 public:
  explicit InProcTransport(const InProcOptions& options);

  /// Round-trips a message through the codec and routes the decoded copy
  /// to its destination mailbox. Thread-safe. Throws InvariantError if the
  /// codec round-trip corrupts the message.
  void send(const proto::Message& message) override
      HLOCK_EXCLUDES(latency_mutex_);

  /// Blocks for the next deliverable message for `node` (nullopt once the
  /// transport is shut down and the mailbox drained).
  std::optional<proto::Message> recv(proto::NodeId node) override;

  /// Drains every already-matured message for `node` in one mailbox lock
  /// acquisition (empty once shut down and drained).
  std::vector<proto::Message> recv_ready(proto::NodeId node) override;

  /// Like recv() but bounded by `timeout`.
  std::optional<proto::Message> recv_for(
      proto::NodeId node, std::chrono::milliseconds timeout) override;

  /// Closes all mailboxes; blocked receivers wake up.
  void shutdown() override;

  /// Total messages accepted by send().
  std::uint64_t messages_sent() const override { return sent_.load(); }

  /// Encoded bytes shipped.
  std::uint64_t bytes_sent() const override { return bytes_.load(); }

  std::size_t node_count() const { return mailboxes_.size(); }

  /// Messages waiting in `node`'s mailbox (matured or not).
  std::size_t inbox_depth(proto::NodeId node) const override {
    return node.value() < mailboxes_.size()
               ? mailboxes_[node.value()]->size()
               : 0;
  }

 private:
  Mailbox& mailbox(proto::NodeId node);
  /// Computes the delivery time of the next message on (from, to),
  /// maintaining per-channel FIFO under injected latency.
  Mailbox::Clock::time_point schedule_delivery(proto::NodeId from,
                                               proto::NodeId to)
      HLOCK_EXCLUDES(latency_mutex_);

  /// Immutable after construction (mailboxes themselves are thread-safe).
  InProcOptions options_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> bytes_{0};

  Mutex latency_mutex_;
  Rng latency_rng_ HLOCK_GUARDED_BY(latency_mutex_);
  /// Last delivery deadline per ordered channel (FIFO enforcement).
  std::map<std::pair<proto::NodeId, proto::NodeId>,
           Mailbox::Clock::time_point>
      channel_front_ HLOCK_GUARDED_BY(latency_mutex_);
};

}  // namespace hlock::transport
