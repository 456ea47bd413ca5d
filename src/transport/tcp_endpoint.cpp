#include "transport/tcp_endpoint.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <string>

#include "proto/codec.hpp"
#include "transport/tcp_socket.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/sync_observer.hpp"

namespace hlock::transport {

namespace {

/// epoll tags of the two descriptors that are not connections; every
/// other tag is the Connection it was registered with.
char listener_tag;
char wake_tag;

constexpr int kMaxEvents = 64;
/// First read buffer of a connection; it doubles when a read fills it and
/// grows to fit any partial frame it holds.
constexpr std::size_t kInitialBuffer = 4096;
/// How long a blocked write waits for room before draining again.
constexpr int kWritePollMs = 1;

bool watch(int epoll_fd, int fd, void* tag) {
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.ptr = tag;
  return ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &event) == 0;
}

}  // namespace

TcpEndpoint::TcpEndpoint(proto::NodeId self, int listen_fd,
                         stats::TcpCounters* counters)
    : self_(self), listen_fd_(listen_fd), port_(local_port(listen_fd)),
      epoll_fd_(::epoll_create1(EPOLL_CLOEXEC)),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)),
      counters_(counters) {
  const int flags = ::fcntl(listen_fd_, F_GETFL);
  if (epoll_fd_ < 0 || wake_fd_ < 0 || flags < 0 ||
      ::fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK) != 0 ||
      !watch(epoll_fd_, listen_fd_, &listener_tag) ||
      !watch(epoll_fd_, wake_fd_, &wake_tag)) {
    const std::string reason = std::strerror(errno);
    for (const int fd : {listen_fd_, epoll_fd_, wake_fd_}) {
      if (fd >= 0) ::close(fd);
    }
    throw UsageError("tcp: cannot set up the receive epoll set: " + reason);
  }
}

TcpEndpoint::~TcpEndpoint() {
  MutexLock guard(mutex_);
  for (const auto& connection : connections_) ::close(connection->fd);
  ::close(listen_fd_);
  ::close(epoll_fd_);
  ::close(wake_fd_);
}

std::vector<proto::Message> TcpEndpoint::recv_ready(
    Clock::time_point deadline) {
  MutexLock guard(mutex_);
  wait_locked(deadline);
  std::vector<proto::Message> out;
  out.swap(ready_);
  publish_depth_locked();
  return out;
}

void TcpEndpoint::wait_locked(Clock::time_point deadline) {
  for (;;) {
    if (!ready_.empty() || stopping_.load()) return;
    int timeout_ms = -1;
    if (deadline != Clock::time_point::max()) {
      const auto left = std::chrono::ceil<std::chrono::milliseconds>(
          deadline - Clock::now());
      timeout_ms = static_cast<int>(std::clamp<std::int64_t>(
          left.count(), 0, std::numeric_limits<int>::max()));
    }
    poll_locked(timeout_ms);
    if (timeout_ms == 0) return;
  }
}

void TcpEndpoint::poll_locked(int timeout_ms) {
  epoll_event events[kMaxEvents];
  int count = 0;
  {
    // The wait blocks outside the sync layer; bracketed so it cannot stall
    // an explored schedule (docs/sched.md).
    sched::BlockingRegion region;
    count = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
  }
  if (stopping_.load()) return;
  for (int i = 0; i < count; ++i) {
    void* const tag = events[i].data.ptr;
    if (tag == &wake_tag) continue;  // shutdown; the callers see stopping_
    if (tag == &listener_tag) {
      accept_locked();
    } else {
      read_locked(*static_cast<Connection*>(tag));
    }
  }
  publish_depth_locked();
}

void TcpEndpoint::accept_locked() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // nothing left pending
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto connection = std::make_unique<Connection>();
    connection->fd = fd;
    if (!watch(epoll_fd_, fd, connection.get())) {
      ::close(fd);
      continue;
    }
    connections_.push_back(std::move(connection));
  }
}

void TcpEndpoint::read_locked(Connection& connection) {
  for (;;) {
    if (connection.filled == connection.buffer.size()) {
      connection.buffer.resize(
          std::max(kInitialBuffer, 2 * connection.buffer.size()));
    }
    const std::size_t room = connection.buffer.size() - connection.filled;
    ssize_t n = 0;
    {
      sched::BlockingRegion region;
      n = ::recv(connection.fd, connection.buffer.data() + connection.filled,
                 room, MSG_DONTWAIT);
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) {
      // Peer close or reset: a partial frame dies with the connection.
      close_locked(connection);
      return;
    }
    connection.filled += static_cast<std::size_t>(n);
    if (!parse_locked(connection)) {
      // A corrupt stream cannot be resynchronized; only this connection
      // goes, every other one keeps delivering.
      HLOCK_LOG(kWarn, "tcp: bad frame at node " << self_.value()
                                                 << "; connection closed");
      close_locked(connection);
      return;
    }
    // A short read emptied the socket; level-triggered epoll reports any
    // later bytes.
    if (static_cast<std::size_t>(n) < room) return;
  }
}

bool TcpEndpoint::parse_locked(Connection& connection) {
  std::byte* const data = connection.buffer.data();
  std::size_t at = 0;
  while (connection.filled - at >= kFramePrefixBytes) {
    const std::uint32_t size = frame_body_size(data + at);
    if (size == 0 || size > kMaxFrameBytes) return false;
    if (connection.filled - at - kFramePrefixBytes < size) break;
    std::optional<proto::Message> message =
        proto::decode({data + at + kFramePrefixBytes, size});
    if (!message) return false;
    deliver_locked(std::move(*message));
    at += kFramePrefixBytes + size;
  }
  connection.filled -= at;
  std::memmove(data, data + at, connection.filled);
  if (connection.filled >= kFramePrefixBytes) {
    // Room for the whole partial frame, so the next read can complete it.
    const std::size_t frame = kFramePrefixBytes + frame_body_size(data);
    if (connection.buffer.size() < frame) connection.buffer.resize(frame);
  }
  return true;
}

void TcpEndpoint::deliver_locked(proto::Message&& message) {
  if (message.to != self_) {
    // A misaddressed message is the sender's bug, not this connection's:
    // discard the one message and keep the channel alive — dropping the
    // connection would silently sever every later message on it.
    if (counters_ != nullptr) {
      counters_->misaddressed_frames.fetch_add(1, std::memory_order_relaxed);
    }
    HLOCK_LOG(kWarn, "tcp: frame addressed to "
                         << to_string(message.to) << " arrived at node "
                         << self_.value() << "; frame discarded");
    return;
  }
  ready_.push_back(std::move(message));
}

void TcpEndpoint::close_locked(Connection& connection) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, connection.fd, nullptr);
  ::close(connection.fd);
  std::erase_if(connections_, [&connection](const auto& candidate) {
    return candidate.get() == &connection;
  });
}

void TcpEndpoint::publish_depth_locked() {
  depth_.store(ready_.size(), std::memory_order_relaxed);
}

bool TcpEndpoint::send_frame(int fd, std::span<const std::byte> frame) {
  while (!frame.empty()) {
    if (stopping_.load()) return false;
    ssize_t n = 0;
    {
      sched::BlockingRegion region;
      n = ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    }
    if (n > 0) {
      frame = frame.subspan(static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) return false;
    // The buffers toward the peer are full, and the peer may be stuck
    // writing to this node in turn: drain this node's sockets before
    // waiting for room. A failed try-lock means a receiver holds the lock
    // and is draining already.
    if (mutex_.try_lock()) {
      poll_locked(0);
      mutex_.unlock();
    }
    pollfd writable{fd, POLLOUT, 0};
    sched::BlockingRegion region;
    ::poll(&writable, 1, kWritePollMs);
  }
  return true;
}

void TcpEndpoint::shutdown() {
  if (stopping_.exchange(true)) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t woke = ::write(wake_fd_, &one, sizeof one);
  // Refuse new connections and tell the peers; the descriptors themselves
  // close in the destructor.
  ::shutdown(listen_fd_, SHUT_RDWR);
  MutexLock guard(mutex_);
  for (const auto& connection : connections_) {
    ::shutdown(connection->fd, SHUT_RDWR);
  }
}

}  // namespace hlock::transport
