#include "transport/tcp_node.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include "proto/codec.hpp"
#include "transport/tcp_socket.hpp"
#include "util/check.hpp"

namespace hlock::transport {

namespace {

/// `listen_fd`, once `self` is known to be a real node; closes it
/// otherwise, since the caller handed over ownership.
int adopt_listener(proto::NodeId self, int listen_fd) {
  HLOCK_REQUIRE(listen_fd >= 0, "invalid adopted listener");
  if (self.is_none()) ::close(listen_fd);
  HLOCK_REQUIRE(!self.is_none(), "a TcpNode needs a real node id");
  return listen_fd;
}

}  // namespace

TcpNode::TcpNode(proto::NodeId self, std::vector<TcpPeer> peers)
    : TcpNode(self, listen_loopback(0), std::move(peers)) {}

TcpNode::TcpNode(proto::NodeId self, int adopted_listen_fd,
                 std::vector<TcpPeer> peers)
    : self_(self), endpoint_(self, adopt_listener(self, adopted_listen_fd)) {
  for (const TcpPeer& peer : peers) add_peer(peer);
}

TcpNode::~TcpNode() { shutdown(); }

void TcpNode::add_peer(const TcpPeer& peer) {
  HLOCK_REQUIRE(!peer.node.is_none() && peer.node != self_,
                "peer must be another real node");
  MutexLock guard(peers_mutex_);
  peer_ports_[peer.node.value()] = peer.port;
}

void TcpNode::send(const proto::Message& message) {
  if (stopping_.load()) return;
  HLOCK_REQUIRE(message.from == self_,
                "a TcpNode only sends its own node's messages");

  std::uint16_t port = 0;
  Channel* channel = nullptr;
  {
    MutexLock guard(peers_mutex_);
    auto it = peer_ports_.find(message.to.value());
    HLOCK_REQUIRE(it != peer_ports_.end(),
                  "unknown peer: " + to_string(message.to));
    port = it->second;
    auto& slot = channels_[message.to.value()];
    if (!slot) slot = std::make_unique<Channel>();
    channel = slot.get();
  }

  thread_local std::vector<std::byte> frame;
  begin_frame(frame);
  proto::encode_into(message, frame);
  MutexLock guard(channel->send_mutex);
  if (channel->fd < 0) channel->fd = connect_loopback(port);
  if (!finish_frame(frame) || !endpoint_.send_frame(channel->fd, frame)) {
    ::close(channel->fd);
    channel->fd = -1;
    if (!stopping_.load()) {
      throw UsageError("tcp-node: send to " + to_string(message.to) +
                       " failed");
    }
    return;
  }
  sent_.fetch_add(1, std::memory_order_relaxed);
}

TcpEndpoint& TcpNode::own_endpoint(proto::NodeId node) {
  HLOCK_REQUIRE(node == self_, "a TcpNode only receives for its own node");
  return endpoint_;
}

std::optional<proto::Message> TcpNode::recv(proto::NodeId node) {
  return own_endpoint(node).recv_until(TcpEndpoint::Clock::time_point::max());
}

std::optional<proto::Message> TcpNode::recv_for(
    proto::NodeId node, std::chrono::milliseconds timeout) {
  return own_endpoint(node).recv_until(TcpEndpoint::Clock::now() + timeout);
}

void TcpNode::shutdown() {
  if (stopping_.exchange(true)) return;
  endpoint_.shutdown();
  MutexLock guard(peers_mutex_);
  for (auto& [node, channel] : channels_) {
    MutexLock send_guard(channel->send_mutex);
    if (channel->fd >= 0) {
      ::shutdown(channel->fd, SHUT_RDWR);
      ::close(channel->fd);
      channel->fd = -1;
    }
  }
}

}  // namespace hlock::transport
