// Abstract message transport.
//
// The threaded runtime runs over any Transport: the in-process mailbox
// transport (fast, latency-injectable) or the TCP loopback transport
// (real sockets, real wire format). Implementations must provide reliable
// per-ordered-channel FIFO delivery, which both TCP and the mailbox
// transport guarantee — the protocol's release/request ordering analysis
// depends on it.
//
// Every message travels on its own: send() is the one send path, and
// send_batch() only loops over it for callers that hold one automaton
// step's output. A step almost never emits two messages toward the same
// node, so there is nothing to coalesce (docs/performance.md). The receive
// side does batch: a busy receiver often has several matured messages
// waiting, and recv_ready() returns them all in one call.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "proto/ids.hpp"
#include "proto/message.hpp"

namespace hlock::transport {

/// See file comment.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Routes a message to its destination. Thread-safe.
  virtual void send(const proto::Message& message) = 0;

  /// Routes a burst of messages (typically the output of one automaton
  /// step) one send() at a time, in order. Thread-safe.
  void send_batch(std::vector<proto::Message> messages) {
    for (const proto::Message& message : messages) send(message);
  }

  /// Blocks for the next message addressed to `node`; std::nullopt once
  /// the transport is shut down and drained.
  virtual std::optional<proto::Message> recv(proto::NodeId node) = 0;

  /// Blocks like recv(), then returns every message for `node` that is
  /// already deliverable, in delivery order — an empty vector only once the
  /// transport is shut down and drained. The default returns at most one.
  virtual std::vector<proto::Message> recv_ready(proto::NodeId node) {
    std::vector<proto::Message> out;
    if (std::optional<proto::Message> message = recv(node)) {
      out.push_back(std::move(*message));
    }
    return out;
  }

  /// Like recv() but bounded; std::nullopt on timeout too.
  virtual std::optional<proto::Message> recv_for(
      proto::NodeId node, std::chrono::milliseconds timeout) = 0;

  /// Unblocks all receivers; subsequent sends are dropped.
  virtual void shutdown() = 0;

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
