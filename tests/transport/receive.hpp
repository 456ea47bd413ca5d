// Receive helper for the transport tests: recv_ready() returns whatever
// batch is deliverable, while a test usually wants "the next n messages
// for this node, or fail after a timeout".
#pragma once

#include <chrono>
#include <iterator>
#include <vector>

#include "transport/transport.hpp"

namespace hlock::transport_test {

/// Receives for `node` until `count` messages arrived or `timeout`
/// passed, and returns every message received, in delivery order: fewer
/// than `count` on timeout, more when the last batch held extra ones.
inline std::vector<proto::Message> receive(
    transport::Transport& transport, proto::NodeId node, std::size_t count,
    std::chrono::milliseconds timeout = std::chrono::milliseconds(5000)) {
  const auto deadline = transport::Transport::Clock::now() + timeout;
  std::vector<proto::Message> received;
  while (received.size() < count) {
    std::vector<proto::Message> batch = transport.recv_ready(node, deadline);
    if (batch.empty()) break;
    received.insert(received.end(), std::make_move_iterator(batch.begin()),
                    std::make_move_iterator(batch.end()));
  }
  return received;
}

/// The deadline `wait` from now, for "nothing arrives" checks.
inline transport::Transport::Clock::time_point after(
    std::chrono::milliseconds wait) {
  return transport::Transport::Clock::now() + wait;
}

}  // namespace hlock::transport_test
