// TCP loopback transport — the protocol over real sockets.
//
// Each node binds a listening socket on 127.0.0.1 (ephemeral port);
// senders open one persistent connection per ordered (from, to) channel on
// first use, matching the paper's Linux-testbed deployment ("connected by
// a full-duplex FastEther switch utilized through TCP/IP"). Every message
// travels as its own wire frame — a 4-byte little-endian length prefix
// followed by one binary codec encoding — written with one send(). Each
// node's TcpEndpoint is read by the thread that receives for the node: it
// waits in epoll_wait over the node's listener and connections and decodes
// frames straight into the batch it returns, so no socket thread sits
// between the wire and the receiver. TCP's in-order delivery provides the
// per-channel FIFO the protocol relies on.
//
// A transport hosts either every node of the cluster in one process (the
// testing substrate the threaded runtime uses) or exactly one node, given
// every node's port: each OS process of a multi-process deployment then
// builds its own, and the processes share nothing but the sockets
// (tests/transport/multiprocess_test.cpp). Nothing in the wire format or
// the socket handling assumes shared memory.
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

/// See file comment.
class TcpTransport final : public Transport {
 public:
  /// Hosts all `node_count` nodes: binds a listener on loopback for each,
  /// each with its receive epoll set. Throws UsageError if sockets cannot
  /// be created.
  explicit TcpTransport(std::size_t node_count);

  /// Hosts node `self` alone, on `listen_fd` (a bound, listening socket
  /// whose ownership transfers); `ports` lists every node's loopback port,
  /// `self`'s included. Only `self` may send, and only `self` receives.
  /// Throws UsageError if `self` is not in the port table.
  TcpTransport(proto::NodeId self, int listen_fd,
               std::vector<std::uint16_t> ports);

  /// Shuts down and closes every socket.
  ~TcpTransport() override;

  /// Sends from a hosted node; throws UsageError for any other sender.
  void send(const proto::Message& message) override;
  /// Reads `node`'s sockets on the calling thread and returns every message
  /// decoded by then. Throws UsageError if `node` is not hosted here.
  std::vector<proto::Message> recv_ready(
      proto::NodeId node,
      Clock::time_point deadline = Clock::time_point::max()) override;
  void shutdown() override;
  std::size_t node_count() const override { return ports_.size(); }
  std::uint64_t messages_sent() const override { return sent_.load(); }
  /// Frame bytes written (length prefixes included).
  std::uint64_t bytes_sent() const override { return bytes_.load(); }

  /// The loopback port node `node` listens on (diagnostics).
  std::uint16_t port_of(proto::NodeId node) const;

  /// Retry, reconnect, and bad-frame counters, live.
  const stats::TcpCounters& counters() const { return counters_; }

  /// Messages decoded from `node`'s sockets but not yet received. Never
  /// blocks on the receive path.
  std::size_t inbox_depth(proto::NodeId node) const override {
    return hosts(node) ? nodes_[node.value()]->depth() : 0;
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
    return channels_[from.value() * ports_.size() + to.value()];
  }
  bool hosts(proto::NodeId node) const {
    return node.value() < nodes_.size() && nodes_[node.value()] != nullptr;
  }
  /// `node`'s endpoint; throws UsageError unless `node` is hosted here.
  TcpEndpoint& endpoint_of(proto::NodeId node);
  /// Finishes the one-message frame begun in `frame` and writes it on the
  /// channel; a failed write closes the channel and retries with backoff,
  /// reconnecting on the way. False once every attempt failed (frame
  /// dropped + counted).
  bool send_frame(proto::NodeId from, proto::NodeId to,
                  std::vector<std::byte>& frame);

  /// Declared before the endpoints, which count into it.
  stats::TcpCounters counters_;
  /// Ports, endpoints and the channel table are fixed at construction
  /// (each endpoint and channel synchronizes itself).
  /// Every node's listening port, indexed by node id.
  std::vector<std::uint16_t> ports_;
  /// One slot per node; null for a node another process hosts.
  std::vector<std::unique_ptr<TcpEndpoint>> nodes_;
  /// n×n, indexed from * n + to.
  std::vector<Channel> channels_;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace hlock::transport
