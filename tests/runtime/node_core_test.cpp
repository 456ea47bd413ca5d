// Unit tests of the receive-side recovery gate (docs/recovery.md, "Epochs
// and the stale-message gate"), run once against runtime::NodeCore — the
// single copy both runtimes use — with a real engine of each recoverable
// protocol and a port that records everything the core hands out.
//
// The core under test is node 1 of a four-node cluster whose tokens start
// at node 0. Node 3 is the victim: node 0's Suspect gossip halts the core,
// and node 0's single fence for the campaign unhalts it in epoch 4, the
// epoch node 0 mints as coordinator ((0 / 4 + 1) * 4 + 0).
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/lamport.hpp"
#include "proto/message.hpp"
#include "recovery/manager.hpp"
#include "runtime/engine.hpp"
#include "runtime/node_core.hpp"

namespace hlock {
namespace {

using proto::LockId;
using proto::LockMode;
using proto::Message;
using proto::NodeId;
using runtime::Protocol;

constexpr std::size_t kNodes = 4;
constexpr NodeId kRoot{0};
constexpr NodeId kSelf{1};
constexpr NodeId kRequester{2};
constexpr NodeId kVictim{3};
constexpr std::uint32_t kEpoch = 4;

class RecordingPort final : public runtime::NodePort {
 public:
  SimTime now() override { return SimTime{}; }
  void send(std::vector<Message>&& messages) override {
    for (Message& message : messages) sent.push_back(std::move(message));
  }
  void sink(std::vector<trace::TraceEvent>&& batch) override {
    for (trace::TraceEvent& event : batch) events.push_back(std::move(event));
  }
  void granted(LockId lock, bool upgraded) override {
    grants.emplace_back(lock, upgraded);
  }

  std::vector<Message> sent;
  std::vector<trace::TraceEvent> events;
  std::vector<std::pair<LockId, bool>> grants;
};

class NodeCoreGate : public ::testing::TestWithParam<Protocol> {
 protected:
  NodeCoreGate()
      : core_(kSelf, kNodes,
              runtime::make_engine(GetParam(), kSelf, kNodes, kRoot, {}),
              recovery_options(), clock_, port_) {}

  static recovery::Options recovery_options() {
    recovery::Options options;
    options.enabled = true;
    return options;
  }

  static Message to_self(NodeId from, LockId lock, proto::Payload payload,
                         std::uint32_t epoch = 0) {
    Message message{from, kSelf, lock, std::move(payload)};
    message.epoch = epoch;
    return message;
  }

  /// A peer's request for `lock`, which the core forwards toward the root.
  Message peer_request(LockId lock, std::uint32_t epoch) const {
    if (GetParam() == Protocol::kHierarchical) {
      return to_self(kRequester, lock,
                     proto::HierRequest{kRequester, LockMode::kR, 1, 0},
                     epoch);
    }
    return to_self(kRequester, lock, proto::NaimiRequest{kRequester, 1},
                   epoch);
  }

  /// Node 0's gossip that the victim crashed.
  void halt() {
    core_.deliver(to_self(kRoot, LockId{0}, proto::Suspect{kVictim}));
    ASSERT_TRUE(core_.manager()->halted());
  }

  /// The campaign's only fence, for `lock`.
  void fence(LockId lock) {
    proto::EpochFence fence;
    fence.dead = {kVictim};
    fence.epoch = kEpoch;
    fence.new_root = kRoot;
    fence.fence_index = 0;
    fence.fence_count = 1;
    core_.deliver(to_self(kRoot, lock, std::move(fence)));
    ASSERT_FALSE(core_.manager()->halted());
  }

  /// What the core sent that is not recovery traffic.
  std::vector<Message> protocol_sent() const {
    std::vector<Message> out;
    for (const Message& message : port_.sent) {
      if (!proto::is_recovery_kind(proto::kind_of(message.payload))) {
        out.push_back(message);
      }
    }
    return out;
  }

  RecordingPort port_;
  obs::AtomicLamportClock clock_;
  runtime::NodeCore core_;
};

TEST_P(NodeCoreGate, RecoveryKindsReachTheManager) {
  core_.deliver(to_self(kRoot, LockId{0}, proto::Suspect{kVictim}));
  EXPECT_TRUE(core_.manager()->halted());
  EXPECT_TRUE(core_.manager()->is_dead(kVictim));
  // The engine never saw the message: no automaton exists.
  EXPECT_TRUE(core_.engine().recovery_locks().empty());
  // The manager's step went out through the port: its report to the
  // coordinator, and its kNodeDead event.
  EXPECT_TRUE(std::any_of(port_.sent.begin(), port_.sent.end(),
                          [](const Message& message) {
                            return message.to == kRoot &&
                                   std::holds_alternative<proto::ElectToken>(
                                       message.payload);
                          }));
  ASSERT_EQ(port_.events.size(), 1u);
  EXPECT_EQ(port_.events[0].kind, trace::EventKind::kNodeDead);
}

TEST_P(NodeCoreGate, ProtocolMessagesAreHeldWhileHalted) {
  halt();
  const std::size_t sent_before = port_.sent.size();
  core_.deliver(peer_request(LockId{7}, 0));
  EXPECT_EQ(port_.sent.size(), sent_before);
  EXPECT_TRUE(core_.engine().recovery_locks().empty());
  EXPECT_EQ(core_.stale_drops(), 0u);
}

TEST_P(NodeCoreGate, NewerEpochMessagesAreParkedUntilTheirFence) {
  core_.deliver(peer_request(LockId{7}, kEpoch));
  EXPECT_FALSE(core_.manager()->halted());
  EXPECT_TRUE(port_.sent.empty());
  EXPECT_TRUE(core_.engine().recovery_locks().empty());

  fence(LockId{7});
  const std::vector<Message> out = protocol_sent();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].lock, LockId{7});
  EXPECT_EQ(out[0].to, kRoot);
  EXPECT_EQ(out[0].epoch, kEpoch);
  EXPECT_EQ(core_.stale_drops(), 0u);
}

TEST_P(NodeCoreGate, UnhaltReplaysParkedThenHaltedThenOperations) {
  core_.deliver(peer_request(LockId{7}, kEpoch));  // parked
  halt();
  core_.deliver(peer_request(LockId{8}, kEpoch));  // halted backlog
  core_.request(LockId{9}, LockMode::kW, 0);       // buffered operation
  EXPECT_TRUE(protocol_sent().empty());

  fence(LockId{7});
  const std::vector<Message> out = protocol_sent();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].lock, LockId{7});
  EXPECT_EQ(out[1].lock, LockId{8});
  EXPECT_EQ(out[2].lock, LockId{9});
  for (const Message& message : out) {
    EXPECT_EQ(message.to, kRoot);
    EXPECT_EQ(message.epoch, kEpoch);
  }
}

TEST_P(NodeCoreGate, StaleEpochMessagesDropInTheEngineAndCount) {
  halt();
  fence(LockId{7});
  port_.sent.clear();
  core_.deliver(peer_request(LockId{7}, 0));
  EXPECT_EQ(core_.stale_drops(), 1u);
  EXPECT_TRUE(port_.sent.empty());
}

TEST_P(NodeCoreGate, CrashDiscardsAllThreeBuffers) {
  core_.deliver(peer_request(LockId{7}, kEpoch));  // parked
  halt();
  core_.deliver(peer_request(LockId{8}, kEpoch));  // halted backlog
  core_.request(LockId{9}, LockMode::kW, 0);       // buffered operation
  core_.crash();
  // An unhalt now has nothing left to replay.
  fence(LockId{7});
  EXPECT_TRUE(protocol_sent().empty());
}

TEST_P(NodeCoreGate, LockFirstTouchedAfterAFenceIsDeliveredNotParked) {
  // The permanent wedge: an untouched lock reported epoch 0, so the first
  // post-recovery message for it parked forever on a node that was no
  // longer halted.
  halt();
  fence(LockId{7});
  port_.sent.clear();
  core_.deliver(peer_request(LockId{8}, kEpoch));
  const std::vector<Message> out = protocol_sent();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].lock, LockId{8});
  EXPECT_EQ(out[0].epoch, kEpoch);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, NodeCoreGate,
    ::testing::Values(Protocol::kHierarchical, Protocol::kNaimi),
    [](const ::testing::TestParamInfo<Protocol>& protocol) {
      return runtime::to_string(protocol.param);
    });

}  // namespace
}  // namespace hlock
