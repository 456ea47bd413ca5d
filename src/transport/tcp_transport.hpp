// TCP loopback transport — the protocol over real sockets.
//
// Each node binds a listening socket on 127.0.0.1 (ephemeral port);
// senders open one persistent connection per ordered (from, to) channel on
// first use, matching the paper's Linux-testbed deployment ("connected by
// a full-duplex FastEther switch utilized through TCP/IP"). Every message
// travels as its own wire frame — a 4-byte little-endian length prefix
// followed by one binary codec encoding — written with one send(). The
// receiver also accepts a batch envelope (proto::kBatchMarker) in a frame
// and unpacks it in order, though this transport never sends one. Each
// node's TcpEndpoint is read by the thread that receives for the node: it
// waits in epoll_wait over the node's listener and connections and decodes
// frames straight into the batch it returns, so no socket thread sits
// between the wire and the receiver. TCP's in-order delivery provides the
// per-channel FIFO the protocol relies on.
//
// All nodes live in one process here (the testing substrate for a real
// distributed deployment); nothing in the wire format or the socket
// handling assumes shared memory.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "stats/metrics.hpp"
#include "transport/tcp_endpoint.hpp"
#include "transport/transport.hpp"
#include "util/sync.hpp"

namespace hlock::transport {

/// Send-path retry policy of the TCP transport. A failed write closes the
/// channel and retries with exponential backoff — reconnecting on the way —
/// instead of terminating the process on the first transient failure.
struct TcpOptions {
  /// Total write attempts per message (first try included).
  int max_send_attempts = 5;
  /// Backoff before the first retry; doubles per retry up to `max_backoff`.
  std::chrono::milliseconds initial_backoff{1};
  std::chrono::milliseconds max_backoff{50};
};

/// See file comment.
class TcpTransport final : public Transport {
 public:
  /// Binds `node_count` listeners on loopback, each with its receive
  /// epoll set. Throws UsageError if sockets cannot be created.
  explicit TcpTransport(std::size_t node_count, TcpOptions options = {});

  /// Shuts down and closes every socket.
  ~TcpTransport() override;

  void send(const proto::Message& message) override;
  std::optional<proto::Message> recv(proto::NodeId node) override;
  /// Reads `node`'s sockets on the calling thread and returns every message
  /// decoded so far (empty once shut down and drained). One receiving
  /// thread per node.
  std::vector<proto::Message> recv_ready(proto::NodeId node) override;
  std::optional<proto::Message> recv_for(
      proto::NodeId node, std::chrono::milliseconds timeout) override;
  void shutdown() override;
  std::uint64_t messages_sent() const override { return sent_.load(); }
  /// Frame bytes written (length prefixes included).
  std::uint64_t bytes_sent() const override { return bytes_.load(); }

  /// The loopback port node `node` listens on (diagnostics).
  std::uint16_t port_of(proto::NodeId node) const;

  std::size_t node_count() const { return nodes_.size(); }

  /// Retry, reconnect, and bad-frame counters, live.
  const stats::TransportCounters& counters() const { return counters_; }

  /// Messages decoded from `node`'s sockets but not yet received. Never
  /// blocks on the receive path.
  std::size_t inbox_depth(proto::NodeId node) const override {
    return node.value() < nodes_.size() ? nodes_[node.value()]->depth() : 0;
  }

  /// Chaos hook: severs the established (from, to) connection at the
  /// socket level without telling the sender, so the next send on the
  /// channel fails and exercises the retry/reconnect path. Returns false
  /// if the channel has no live connection yet.
  bool sever_channel(proto::NodeId from, proto::NodeId to);

 private:
  struct Channel {
    /// Serializes writes on the (from, to) connection and guards its fd.
    Mutex send_mutex;
    int fd HLOCK_GUARDED_BY(send_mutex) = -1;
  };

  Channel& channel_of(proto::NodeId from, proto::NodeId to) {
    return channels_[from.value() * nodes_.size() + to.value()];
  }
  TcpEndpoint& endpoint_of(proto::NodeId node);
  /// Finishes the one-message frame begun in `frame` and writes it on the
  /// channel with the retry / backoff / reconnect policy. False once every
  /// attempt failed (frame dropped + counted).
  bool send_frame(proto::NodeId from, proto::NodeId to,
                  std::vector<std::byte>& frame);

  /// Options, endpoints and the channel table are fixed at construction
  /// (each endpoint and channel synchronizes itself).
  TcpOptions options_;
  /// Declared before the endpoints, which count into it.
  stats::TransportCounters counters_;
  std::vector<std::unique_ptr<TcpEndpoint>> nodes_;
  /// n×n, indexed from * n + to.
  std::vector<Channel> channels_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace hlock::transport
