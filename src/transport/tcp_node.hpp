// One node's TCP endpoint — the building block of a genuinely
// multi-process (or multi-machine, with address changes) deployment.
//
// Unlike TcpTransport, which hosts all N endpoints in one process for
// convenient testing, a TcpNode owns exactly ONE node's listener and a
// table of peer ports. Each OS process constructs its own TcpNode; the
// processes share nothing but the sockets. The fork-based integration test
// (tests/transport/multiprocess_test.cpp) runs the full protocol this way
// and verifies mutual exclusion through a shared-memory counter.
//
// Framing, FIFO guarantees and the receive path are identical to
// TcpTransport: one persistent connection per ordered channel, TCP
// in-order delivery, and a TcpEndpoint read by the thread that receives.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "transport/tcp_endpoint.hpp"
#include "transport/transport.hpp"
#include "util/sync.hpp"

namespace hlock::transport {

/// Address of one peer (loopback + port; extendable to full addresses).
struct TcpPeer {
  proto::NodeId node;
  std::uint16_t port = 0;
};

/// See file comment.
class TcpNode final : public Transport {
 public:
  /// Binds a fresh loopback listener for `self` (ephemeral port).
  /// `peers` lists every OTHER node's port; peers may also be added later
  /// via add_peer() (ports are often only known after all processes bound
  /// their listeners).
  TcpNode(proto::NodeId self, std::vector<TcpPeer> peers = {});

  /// Adopts an already-bound listening socket (ownership transfers).
  /// Lets a parent process bind all listeners BEFORE forking, so children
  /// know every port with no rendezvous protocol.
  TcpNode(proto::NodeId self, int adopted_listen_fd,
          std::vector<TcpPeer> peers);

  ~TcpNode() override;

  /// Registers/overrides a peer's address. Not thread-safe against
  /// concurrent send() to the same peer; configure before traffic starts.
  void add_peer(const TcpPeer& peer);

  /// The port this node's listener is bound to.
  std::uint16_t port() const { return endpoint_.port(); }
  proto::NodeId self() const { return self_; }

  // Transport interface. send() requires message.from == self() and a
  // registered peer; the receive calls only serve this node, from one
  // thread at a time.
  void send(const proto::Message& message) override;
  std::optional<proto::Message> recv(proto::NodeId node) override;
  std::optional<proto::Message> recv_for(
      proto::NodeId node, std::chrono::milliseconds timeout) override;
  void shutdown() override;
  std::uint64_t messages_sent() const override { return sent_.load(); }

 private:
  TcpEndpoint& own_endpoint(proto::NodeId node);

  const proto::NodeId self_;
  TcpEndpoint endpoint_;

  Mutex peers_mutex_;
  std::map<std::uint32_t, std::uint16_t> peer_ports_
      HLOCK_GUARDED_BY(peers_mutex_);
  struct Channel {
    /// Serializes writes on the peer connection and guards its fd.
    Mutex send_mutex;
    int fd HLOCK_GUARDED_BY(send_mutex) = -1;
  };
  /// Channel records are never erased, so a pointer taken under the lock
  /// stays valid after it.
  std::map<std::uint32_t, std::unique_ptr<Channel>> channels_
      HLOCK_GUARDED_BY(peers_mutex_);
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace hlock::transport
