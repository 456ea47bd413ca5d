// Abstract message transport.
//
// The threaded runtime runs over any Transport: the in-process mailbox
// transport (fast, immediate delivery) or the TCP loopback transport
// (real sockets, real wire format). Implementations must provide reliable
// per-ordered-channel FIFO delivery, which both TCP and the mailbox
// transport guarantee — the protocol's release/request ordering analysis
// depends on it. Injected delay, loss and the like come from the
// FaultyTransport decorator, which works over either.
//
// Every message travels on its own: send() is the one send path, and
// send_batch() only loops over it for callers that hold one automaton
// step's output. A step almost never emits two messages toward the same
// node, so there is nothing to coalesce (docs/performance.md). The receive
// side does batch: a busy receiver often has several messages waiting,
// and recv_ready() — the one receive call — returns them all at once.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "proto/ids.hpp"
#include "proto/message.hpp"

namespace hlock::transport {

/// See file comment.
class Transport {
 public:
  using Clock = std::chrono::steady_clock;

  virtual ~Transport() = default;

  /// Routes a message to its destination. Thread-safe. Throws UsageError
  /// if the sender or the destination is not one of the transport's nodes.
  virtual void send(const proto::Message& message) = 0;

  /// Routes a burst of messages (typically the output of one automaton
  /// step) one send() at a time, in order. Thread-safe.
  void send_batch(std::vector<proto::Message> messages) {
    for (const proto::Message& message : messages) send(message);
  }

  /// Blocks until a message for `node` is deliverable, `deadline` passes,
  /// or the transport shuts down; then returns every deliverable message
  /// for `node`, in delivery order. Empty on timeout, or once the
  /// transport is shut down and drained. One receiving thread per node.
  virtual std::vector<proto::Message> recv_ready(
      proto::NodeId node,
      Clock::time_point deadline = Clock::time_point::max()) = 0;

  /// Unblocks all receivers; subsequent sends are dropped.
  virtual void shutdown() = 0;

  /// Nodes the transport addresses: ids 0 .. node_count() - 1.
  virtual std::size_t node_count() const = 0;

  /// Messages accepted by send() so far.
  virtual std::uint64_t messages_sent() const = 0;

  /// Encoded payload bytes shipped so far (framing included where the
  /// transport frames). Zero for transports that do not count them.
  virtual std::uint64_t bytes_sent() const { return 0; }

  /// Messages queued toward `node` but not yet received — the telemetry
  /// mailbox-depth gauge. Zero for transports without visible queues.
  virtual std::size_t inbox_depth(proto::NodeId node) const {
    (void)node;
    return 0;
  }
};

}  // namespace hlock::transport
