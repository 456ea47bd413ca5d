#include "transport/tcp_transport.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <thread>

#include "proto/codec.hpp"
#include "transport/tcp_socket.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/sync_observer.hpp"

namespace hlock::transport {

namespace {

/// Write attempts per frame, the first included.
constexpr int kMaxSendAttempts = 5;
/// Backoff before the first retry; doubles per retry up to kMaxBackoff.
constexpr std::chrono::milliseconds kInitialBackoff{1};
constexpr std::chrono::milliseconds kMaxBackoff{50};

}  // namespace

TcpTransport::TcpTransport(std::size_t node_count)
    : ports_(node_count), nodes_(node_count),
      channels_(node_count * node_count) {
  HLOCK_REQUIRE(node_count >= 1, "a transport needs at least one node");
  for (std::size_t i = 0; i < node_count; ++i) {
    nodes_[i] = std::make_unique<TcpEndpoint>(
        proto::NodeId{static_cast<std::uint32_t>(i)}, listen_loopback(0),
        &counters_);
    ports_[i] = nodes_[i]->port();
  }
}

TcpTransport::TcpTransport(proto::NodeId self, int listen_fd,
                           std::vector<std::uint16_t> ports)
    : ports_(std::move(ports)), nodes_(ports_.size()),
      channels_(ports_.size() * ports_.size()) {
  // The endpoint owns the listener from here on: a throw below closes it.
  auto endpoint = std::make_unique<TcpEndpoint>(self, listen_fd, &counters_);
  HLOCK_REQUIRE(self.value() < ports_.size(),
                "a one-node transport's node must be in the port table");
  nodes_[self.value()] = std::move(endpoint);
}

TcpTransport::~TcpTransport() { shutdown(); }

std::uint16_t TcpTransport::port_of(proto::NodeId node) const {
  HLOCK_REQUIRE(node.value() < ports_.size(), "unknown node id");
  return ports_[node.value()];
}

bool TcpTransport::send_frame(proto::NodeId from, proto::NodeId to,
                              std::vector<std::byte>& frame) {
  if (!finish_frame(frame)) {
    counters_.send_failures.fetch_add(1, std::memory_order_relaxed);
    HLOCK_LOG(kError, "tcp: a " << frame.size() << "-byte frame to node "
                                << to.value()
                                << " exceeds the frame cap; dropped");
    return false;
  }
  Channel& channel = channel_of(from, to);
  // A write that would block drains the sender's own sockets meanwhile.
  TcpEndpoint& own = *nodes_[from.value()];

  // Retry with exponential backoff, reconnecting on the way: a transient
  // write failure (peer reset, severed channel) must never escape as an
  // exception — callers include receiver threads, where an escaped
  // exception would std::terminate the whole process.
  MutexLock guard(channel.send_mutex);
  std::chrono::milliseconds backoff = kInitialBackoff;
  for (int attempt = 0; attempt < kMaxSendAttempts; ++attempt) {
    if (stopping_.load()) return false;
    if (attempt > 0) {
      counters_.send_retries.fetch_add(1, std::memory_order_relaxed);
      {
        // A real-time backoff sleep must not stall an explored schedule.
        sched::BlockingRegion region;
        std::this_thread::sleep_for(backoff);
      }
      backoff = std::min(backoff * 2, kMaxBackoff);
    }
    if (channel.fd < 0) {
      try {
        sched::BlockingRegion region;
        channel.fd = connect_loopback(ports_[to.value()]);
        if (attempt > 0) {
          counters_.reconnects.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const UsageError&) {
        continue;  // destination not accepting right now; back off, retry
      }
    }
    if (own.send_frame(channel.fd, frame)) {
      sent_.fetch_add(1, std::memory_order_relaxed);
      bytes_.fetch_add(frame.size(), std::memory_order_relaxed);
      return true;
    }
    ::close(channel.fd);
    channel.fd = -1;
  }
  counters_.send_failures.fetch_add(1, std::memory_order_relaxed);
  HLOCK_LOG(kError, "tcp: send to node " << to.value() << " failed after "
                                         << kMaxSendAttempts
                                         << " attempts; frame dropped");
  return false;
}

void TcpTransport::send(const proto::Message& message) {
  if (stopping_.load()) return;
  HLOCK_REQUIRE(message.to.value() < ports_.size(), "unknown node id");
  HLOCK_REQUIRE(hosts(message.from),
                "a message from a node this transport does not host");
  // One scratch buffer per sending thread: the wire image of the steady
  // state allocates nothing.
  thread_local std::vector<std::byte> scratch;
  begin_frame(scratch);
  proto::encode_into(message, scratch);
  send_frame(message.from, message.to, scratch);
}

bool TcpTransport::sever_channel(proto::NodeId from, proto::NodeId to) {
  if (from.value() >= nodes_.size() || to.value() >= nodes_.size()) {
    return false;
  }
  Channel& channel = channel_of(from, to);
  MutexLock guard(channel.send_mutex);
  if (channel.fd < 0) return false;
  // Half-kill the socket but leave the stale fd in place: the sender only
  // discovers the failure when its next write returns an error.
  ::shutdown(channel.fd, SHUT_RDWR);
  return true;
}

TcpEndpoint& TcpTransport::endpoint_of(proto::NodeId node) {
  HLOCK_REQUIRE(hosts(node),
                to_string(node) + " is not hosted by this transport");
  return *nodes_[node.value()];
}

std::vector<proto::Message> TcpTransport::recv_ready(
    proto::NodeId node, Clock::time_point deadline) {
  return endpoint_of(node).recv_ready(deadline);
}

void TcpTransport::shutdown() {
  if (stopping_.exchange(true)) return;
  // Wakes every receiver and every write waiting for room.
  for (auto& endpoint : nodes_) {
    if (endpoint != nullptr) endpoint->shutdown();
  }
  for (Channel& channel : channels_) {
    MutexLock guard(channel.send_mutex);
    if (channel.fd >= 0) {
      ::shutdown(channel.fd, SHUT_RDWR);
      ::close(channel.fd);
      channel.fd = -1;
    }
  }
}

}  // namespace hlock::transport
