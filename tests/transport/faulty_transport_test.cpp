// Tests of the fault-injecting transport decorator: the wire may drop,
// delay and partition, but every channel must still reach the inner
// transport exactly once and in order, each fault must cost the time it
// stands for, and every fault must be counted.
#include "transport/faulty_transport.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "tests/transport/receive.hpp"
#include "transport/inproc_transport.hpp"
#include "util/check.hpp"

namespace hlock::transport {
namespace {

using proto::LockId;
using proto::Message;
using proto::NodeId;

Message make_message(std::uint32_t from, std::uint32_t to,
                     std::uint64_t seq) {
  return Message{NodeId{from}, NodeId{to}, LockId{0},
                 proto::NaimiRequest{NodeId{from}, seq}};
}

std::unique_ptr<FaultyTransport> make_faulty(const FaultPlan& plan,
                                             std::size_t nodes = 2) {
  return std::make_unique<FaultyTransport>(
      std::make_unique<InProcTransport>(InProcOptions{nodes}), plan);
}

/// Receives `count` messages for `node`, asserting exactly-once in-order
/// delivery of sequences 0..count-1.
void expect_in_order(FaultyTransport& transport, std::uint32_t node,
                     std::uint64_t count) {
  const std::vector<Message> received =
      transport_test::receive(transport, NodeId{node}, count);
  ASSERT_EQ(received.size(), count) << "channel not exactly-once";
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto* request =
        std::get_if<proto::NaimiRequest>(&received[i].payload);
    ASSERT_NE(request, nullptr);
    ASSERT_EQ(request->seq, i) << "channel not exactly-once in-order";
  }
}

/// True if nothing arrives for `node` within `wait`.
bool quiet_for(FaultyTransport& transport, std::uint32_t node,
               std::chrono::milliseconds wait) {
  return transport.recv_ready(NodeId{node}, transport_test::after(wait))
      .empty();
}

TEST(FaultyTransport, ZeroPlanIsATransparentPassThrough) {
  auto transport = make_faulty(FaultPlan{});
  EXPECT_FALSE(FaultPlan{}.any());
  transport->send(make_message(0, 1, 0));
  expect_in_order(*transport, 1, 1);
  EXPECT_EQ(transport->counters().snapshot().faults_injected(), 0u);
  EXPECT_EQ(transport->messages_sent(), 1u);
}

TEST(FaultyTransport, ExactlyOnceFifoSurvivesEveryFaultClassAtOnce) {
  FaultPlan plan;
  plan.seed = 7;
  plan.drop_probability = 0.15;
  plan.delay_probability = 0.2;
  plan.delay = DurationDist::uniform(SimTime::ms(1), 0.5);
  plan.retransmit_delay = SimTime::ms(1);
  auto transport = make_faulty(plan);
  constexpr std::uint64_t kCount = 300;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    transport->send(make_message(0, 1, i));
  }
  expect_in_order(*transport, 1, kCount);
  // Nothing extra leaks through after the last in-order message.
  EXPECT_TRUE(quiet_for(*transport, 1, std::chrono::milliseconds(50)));
  const auto counters = transport->counters().snapshot();
  EXPECT_GT(counters.drops, 0u);
  EXPECT_GT(counters.delays, 0u);
  EXPECT_EQ(transport->messages_sent(), kCount);
}

TEST(FaultyTransport, ADropCostsOneRetransmitWindow) {
  FaultPlan plan;
  plan.drop_probability = 1.0;
  plan.retransmit_delay = SimTime::ms(50);
  auto transport = make_faulty(plan);
  constexpr std::uint64_t kCount = 5;
  // Spread over less than one window, so each message's own send time,
  // not the first one's, has to bound its arrival.
  std::vector<Transport::Clock::time_point> sent_at;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    sent_at.push_back(Transport::Clock::now());
    transport->send(make_message(0, 1, i));
  }
  const auto deadline = transport_test::after(std::chrono::seconds(5));
  std::uint64_t next = 0;
  while (next < kCount) {
    const std::vector<Message> batch =
        transport->recv_ready(NodeId{1}, deadline);
    ASSERT_FALSE(batch.empty()) << "only " << next << " messages arrived";
    const Transport::Clock::time_point received_at = Transport::Clock::now();
    for (const Message& message : batch) {
      const std::uint64_t seq =
          std::get<proto::NaimiRequest>(message.payload).seq;
      ASSERT_EQ(seq, next) << "channel not in order";
      EXPECT_GE(received_at - sent_at[seq], std::chrono::milliseconds(50))
          << "message " << seq << " arrived inside its retransmit window";
      ++next;
    }
  }
  EXPECT_EQ(transport->counters().snapshot().drops, kCount);
}

TEST(FaultyTransport, FaultDecisionsAreSeedDeterministic) {
  using Channel = std::pair<std::uint32_t, std::uint32_t>;
  // 200 sends, round-robin over `channels` of a `nodes`-node transport.
  const auto run = [](std::size_t nodes,
                      const std::vector<Channel>& channels) {
    FaultPlan plan;
    plan.seed = 42;
    plan.drop_probability = 0.3;
    plan.delay_probability = 0.25;
    plan.retransmit_delay = SimTime::us(200);
    auto transport = make_faulty(plan, nodes);
    for (std::uint64_t i = 0; i < 200; ++i) {
      const auto [from, to] = channels[i % channels.size()];
      transport->send(make_message(from, to, i));
    }
    // The counters are bumped synchronously in send(), so they are final
    // as soon as the last send returns.
    return transport->counters().snapshot();
  };
  const std::vector<Channel> one_channel = {{0, 1}};
  const auto first = run(2, one_channel);
  EXPECT_EQ(first, run(2, one_channel));
  EXPECT_GT(first.faults_injected(), 0u);

  const std::vector<Channel> ring = {{0, 1}, {1, 2}, {2, 0}};
  const auto ring_counters = run(3, ring);
  EXPECT_EQ(ring_counters, run(3, ring));
  // Pinned: a change to the per-channel streams or to the order of their
  // draws moves these counts.
  EXPECT_EQ(ring_counters.drops, 69u);
  EXPECT_EQ(ring_counters.delays, 45u);
}

TEST(FaultyTransport, PartitionBuffersTrafficUntilHeal) {
  FaultPlan plan;
  plan.partitions.push_back({{NodeId{0}}, SimTime::ms(150)});
  auto transport = make_faulty(plan);
  transport->send(make_message(0, 1, 0));
  transport->send(make_message(1, 0, 0));
  // Blocked in both directions while the partition holds...
  EXPECT_TRUE(quiet_for(*transport, 1, std::chrono::milliseconds(30)));
  EXPECT_TRUE(quiet_for(*transport, 0, std::chrono::milliseconds(0)));
  // ...delivered after it heals.
  expect_in_order(*transport, 1, 1);
  expect_in_order(*transport, 0, 1);
  EXPECT_EQ(transport->counters().snapshot().partition_drops, 2u);
}

TEST(FaultyTransport, RejectsInvalidProbabilities) {
  FaultPlan plan;
  plan.drop_probability = 1.5;
  EXPECT_THROW(make_faulty(plan), UsageError);
  plan.drop_probability = 0.0;
  plan.delay_probability = -0.1;
  EXPECT_THROW(make_faulty(plan), UsageError);
}

TEST(FaultyTransport, RejectsUnknownDestination) {
  // Rejected in the caller's thread, as by the bare transports, instead of
  // reaching the pump thread, where the throw would end the process.
  auto transport = make_faulty(FaultPlan{});
  EXPECT_THROW(transport->send(make_message(0, 9, 0)), UsageError);
  EXPECT_THROW(transport->send(make_message(9, 1, 0)), UsageError);
  EXPECT_EQ(transport->messages_sent(), 0u);
  transport->send(make_message(0, 1, 0));
  expect_in_order(*transport, 1, 1);
}

TEST(FaultyTransport, ShutdownUnblocksReceiversAndDropsPendingWire) {
  FaultPlan plan;
  plan.delay_probability = 1.0;
  plan.delay = DurationDist::constant(SimTime::sec(30));
  auto transport = make_faulty(plan);
  transport->send(make_message(0, 1, 0));  // parked far in the future
  std::thread receiver([&transport] {
    EXPECT_TRUE(transport->recv_ready(NodeId{1}).empty());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  transport->shutdown();
  receiver.join();
}

}  // namespace
}  // namespace hlock::transport
