// A fixed 16-message burst from node 0 to node 1 whose wire size is pinned
// by the transport tests: four message kinds in rotation over eight locks,
// the token carrying a one-entry queue as in a handover under contention.
#pragma once

#include <cstdint>
#include <vector>

#include "proto/message.hpp"

namespace hlock::transport_test {

inline std::vector<proto::Message> wire_burst() {
  std::vector<proto::Message> burst;
  for (std::uint64_t b = 0; b < 16; ++b) {
    proto::Message m;
    m.from = proto::NodeId{0};
    m.to = proto::NodeId{1};
    m.lock = proto::LockId{static_cast<std::uint32_t>(b % 8)};
    m.request = proto::RequestId{proto::NodeId{0}, b};
    m.lamport = b + 1;
    switch (b % 4) {
      case 0:
        m.payload =
            proto::HierRequest{proto::NodeId{0}, proto::LockMode::kW, b, 0};
        break;
      case 1:
        m.payload =
            proto::HierGrant{proto::LockMode::kR, proto::LockMode::kR, 1};
        break;
      case 2:
        m.payload = proto::HierToken{
            proto::LockMode::kW, proto::LockMode::kNL,
            {proto::QueuedRequest{proto::NodeId{1}, proto::LockMode::kR, b,
                                  0}}};
        break;
      default:
        m.payload = proto::HierRelease{proto::LockMode::kNL, 1};
        break;
    }
    burst.push_back(std::move(m));
  }
  return burst;
}

}  // namespace hlock::transport_test
