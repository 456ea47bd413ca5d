// Tests of the fault-injecting + self-healing transport decorator: the
// wire may drop, delay, duplicate, and reorder, but the layered transport
// must still hand the inner transport an exactly-once, in-order channel —
// and count every fault it injected and healed.
#include "transport/faulty_transport.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

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
  plan.duplicate_probability = 0.2;
  plan.reorder_probability = 0.2;
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
  EXPECT_GT(counters.duplicates, 0u);
  EXPECT_GT(counters.reorders, 0u);
  EXPECT_EQ(counters.retransmits, counters.drops);
  EXPECT_EQ(transport->messages_sent(), kCount);
}

TEST(FaultyTransport, ReordersAreResequencedAtTheEdge) {
  FaultPlan plan;
  plan.seed = 11;
  plan.reorder_probability = 0.5;
  plan.retransmit_delay = SimTime::ms(2);
  auto transport = make_faulty(plan);
  constexpr std::uint64_t kCount = 200;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    transport->send(make_message(0, 1, i));
  }
  expect_in_order(*transport, 1, kCount);
  const auto counters = transport->counters().snapshot();
  EXPECT_GT(counters.reorders, 0u);
  EXPECT_GT(counters.resequenced, 0u) << "no overtake ever happened";
}

TEST(FaultyTransport, DuplicatesAreDiscardedAtTheEdge) {
  FaultPlan plan;
  plan.seed = 3;
  plan.duplicate_probability = 1.0;
  plan.retransmit_delay = SimTime::ms(1);
  auto transport = make_faulty(plan);
  constexpr std::uint64_t kCount = 20;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    transport->send(make_message(0, 1, i));
  }
  expect_in_order(*transport, 1, kCount);
  EXPECT_TRUE(quiet_for(*transport, 1, std::chrono::milliseconds(100)))
      << "a duplicate leaked through the edge";
  const auto counters = transport->counters().snapshot();
  EXPECT_EQ(counters.duplicates, kCount);
  EXPECT_EQ(counters.duplicates_discarded, kCount);
}

TEST(FaultyTransport, FaultDecisionsAreSeedDeterministic) {
  const auto run = [](std::uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    plan.drop_probability = 0.3;
    plan.delay_probability = 0.25;
    plan.duplicate_probability = 0.2;
    plan.reorder_probability = 0.15;
    plan.retransmit_delay = SimTime::us(200);
    auto transport = make_faulty(plan);
    for (std::uint64_t i = 0; i < 200; ++i) {
      transport->send(make_message(0, 1, i));
    }
    // Injection counters are bumped synchronously in send(), so they are
    // final as soon as the last send returns.
    auto counters = transport->counters().snapshot();
    counters.retransmits = 0;          // healing-side noise out of the
    counters.duplicates_discarded = 0; // comparison: it depends on timing
    counters.resequenced = 0;
    return counters;
  };
  const auto first = run(42);
  const auto second = run(42);
  EXPECT_EQ(first, second);
  EXPECT_GT(first.faults_injected(), 0u);
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
  plan.reorder_probability = -0.1;
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
