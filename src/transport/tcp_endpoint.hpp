// One node's TCP receive side, read by the thread that asks for messages.
//
// A TcpEndpoint owns an epoll set over its listening socket (accepted
// non-blocking), the connections accepted from it, and a shutdown eventfd.
// No thread reads the sockets on the node's behalf: a receiving thread
// takes the endpoint's receive lock, waits in epoll_wait, reads each ready
// connection without blocking into that connection's buffer, and decodes
// every complete frame — in stream order — into the ready queue it then
// returns from. TCP's in-order streams give per-channel FIFO.
//
// Because the sockets drain only while someone receives, a frame write
// that would block must keep its own node's inbound moving, or two nodes
// sending each other a backlog larger than the socket buffers would wait
// on each other forever. send_frame() therefore try-locks the receive lock
// and drains the sockets into the ready queue whenever the write would
// block; if the lock is taken, its holder is already draining
// (docs/transports.md §3).
//
// TcpTransport keeps one endpoint per node it hosts: every node, or only
// its own in a one-node-per-process deployment.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "proto/message.hpp"
#include "stats/metrics.hpp"
#include "util/sync.hpp"

namespace hlock::transport {

/// See file comment.
class TcpEndpoint {
 public:
  using Clock = std::chrono::steady_clock;

  /// Adopts `listen_fd`, a bound and listening socket. Messages addressed
  /// to any node but `self` are discarded one at a time and counted in
  /// `counters` (when given). Throws UsageError if the epoll set cannot be
  /// created.
  TcpEndpoint(proto::NodeId self, int listen_fd,
              stats::TcpCounters* counters = nullptr);

  /// Closes every descriptor. No call may still be in flight.
  ~TcpEndpoint();

  TcpEndpoint(const TcpEndpoint&) = delete;
  TcpEndpoint& operator=(const TcpEndpoint&) = delete;

  /// The loopback port the listener is bound to.
  std::uint16_t port() const { return port_; }

  /// Blocks until a message is decoded, `deadline` passes, or the
  /// endpoint is shut down, then returns every decoded message in delivery
  /// order — empty on timeout, or once shut down and drained. One
  /// receiving thread at a time.
  std::vector<proto::Message> recv_ready(Clock::time_point deadline)
      HLOCK_EXCLUDES(mutex_);

  /// Writes a whole frame on `fd` (a connection to another endpoint),
  /// draining this endpoint's sockets whenever the write would block.
  /// False on error, peer close, or shutdown.
  bool send_frame(int fd, std::span<const std::byte> frame)
      HLOCK_EXCLUDES(mutex_);

  /// Wakes every waiting receiver and stops reading: decoded messages stay
  /// receivable, new bytes are ignored, pending writes give up. Idempotent.
  void shutdown() HLOCK_EXCLUDES(mutex_);

  /// Messages decoded but not yet returned. Never takes the receive lock,
  /// which a waiting receiver holds.
  std::size_t depth() const { return depth_.load(std::memory_order_relaxed); }

 private:
  struct Connection {
    int fd = -1;
    /// Bytes [0, filled) are received but not yet decoded: at most one
    /// partial frame once a read has been parsed.
    std::vector<std::byte> buffer;
    std::size_t filled = 0;
  };

  /// Reads until a message is ready, `deadline` passes, or shutdown.
  void wait_locked(Clock::time_point deadline) HLOCK_REQUIRES(mutex_);
  /// One epoll_wait (up to `timeout_ms`, -1 = forever): accepts pending
  /// connections and reads every ready one.
  void poll_locked(int timeout_ms) HLOCK_REQUIRES(mutex_);
  void accept_locked() HLOCK_REQUIRES(mutex_);
  /// Reads what `connection` has and decodes its complete frames; closes
  /// it on EOF (dropping a partial frame), error, or a bad frame.
  void read_locked(Connection& connection) HLOCK_REQUIRES(mutex_);
  /// Decodes the complete frames at the front of the buffer; false on a
  /// bad length prefix or an undecodable body.
  bool parse_locked(Connection& connection) HLOCK_REQUIRES(mutex_);
  void deliver_locked(proto::Message&& message) HLOCK_REQUIRES(mutex_);
  void close_locked(Connection& connection) HLOCK_REQUIRES(mutex_);
  void publish_depth_locked() HLOCK_REQUIRES(mutex_);

  /// Immutable after construction. The descriptors close in the
  /// destructor only, so a waiter never sees a number reused.
  const proto::NodeId self_;
  const int listen_fd_;
  const std::uint16_t port_;
  const int epoll_fd_;
  const int wake_fd_;
  stats::TcpCounters* const counters_;

  /// The receive lock: held by the thread reading the sockets, including
  /// while it waits in epoll_wait. Writers only ever try-lock it.
  Mutex mutex_;
  std::vector<std::unique_ptr<Connection>> connections_
      HLOCK_GUARDED_BY(mutex_);
  /// Decoded messages not yet returned.
  std::vector<proto::Message> ready_ HLOCK_GUARDED_BY(mutex_);
  std::atomic<std::size_t> depth_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace hlock::transport
