// Tests of the in-process transport and its mailbox primitive.
#include "transport/inproc_transport.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "tests/transport/wire_burst.hpp"
#include "transport/mailbox.hpp"
#include "util/check.hpp"

namespace hlock::transport {
namespace {

using proto::LockId;
using proto::LockMode;
using proto::Message;
using proto::NaimiToken;
using proto::NodeId;

Message make_message(std::uint32_t from, std::uint32_t to) {
  return Message{NodeId{from}, NodeId{to}, LockId{0},
                 proto::HierRequest{NodeId{from}, LockMode::kR, 0}};
}

TEST(Mailbox, DeliversInDeliveryTimeOrder) {
  Mailbox box;
  const auto now = Mailbox::Clock::now();
  box.push(make_message(2, 0), now + std::chrono::microseconds(200));
  box.push(make_message(1, 0), now + std::chrono::microseconds(100));
  const auto first = box.pop();
  const auto second = box.pop();
  ASSERT_TRUE(first && second);
  EXPECT_EQ(first->from, NodeId{1});
  EXPECT_EQ(second->from, NodeId{2});
}

TEST(Mailbox, PopBlocksUntilMessageMatures) {
  Mailbox box;
  const auto start = Mailbox::Clock::now();
  box.push(make_message(1, 0), start + std::chrono::milliseconds(20));
  const auto message = box.pop();
  ASSERT_TRUE(message.has_value());
  EXPECT_GE(Mailbox::Clock::now() - start, std::chrono::milliseconds(19));
}

TEST(Mailbox, PopUntilTimesOut) {
  Mailbox box;
  const auto result =
      box.pop_until(Mailbox::Clock::now() + std::chrono::milliseconds(10));
  EXPECT_FALSE(result.has_value());
}

TEST(Mailbox, PopUntilDeliversMessageDueExactlyAtDeadline) {
  // Deadline edge: when the head's delivery time coincides with the
  // caller's deadline, the matured message wins over the timeout.
  Mailbox box;
  const auto deadline =
      Mailbox::Clock::now() + std::chrono::milliseconds(25);
  box.push(make_message(1, 0), deadline);
  const auto message = box.pop_until(deadline);
  ASSERT_TRUE(message.has_value()) << "due == deadline returned timeout";
  EXPECT_EQ(message->from, NodeId{1});
}

TEST(Mailbox, PopUntilTimesOutWhenHeadMaturesAfterDeadline) {
  Mailbox box;
  const auto deadline =
      Mailbox::Clock::now() + std::chrono::milliseconds(15);
  box.push(make_message(1, 0), deadline + std::chrono::milliseconds(30));
  EXPECT_FALSE(box.pop_until(deadline).has_value());
  // The unripe message stays deliverable afterwards.
  EXPECT_TRUE(box.pop().has_value());
}

TEST(Mailbox, CloseWakesBlockedConsumer) {
  Mailbox box;
  std::thread consumer([&box] {
    const auto result = box.pop();
    EXPECT_FALSE(result.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  box.close();
  consumer.join();
}

TEST(Mailbox, CloseDropsNewPushesButDrainsExisting) {
  Mailbox box;
  box.push(make_message(1, 0), Mailbox::Clock::now());
  box.close();
  box.push(make_message(2, 0), Mailbox::Clock::now());
  EXPECT_TRUE(box.pop().has_value());
  EXPECT_FALSE(box.pop().has_value());
  EXPECT_EQ(box.pushed(), 1u);
}

TEST(Mailbox, CrossThreadProducerConsumer) {
  Mailbox box;
  constexpr int kMessages = 500;
  std::thread producer([&box] {
    for (int i = 0; i < kMessages; ++i) {
      box.push(make_message(1, 0), Mailbox::Clock::now());
    }
    box.close();
  });
  int received = 0;
  while (box.pop().has_value()) ++received;
  producer.join();
  EXPECT_EQ(received, kMessages);
}

TEST(InProcTransport, RoutesToDestination) {
  InProcTransport transport{InProcOptions{3}};
  transport.send(make_message(0, 2));
  const auto received =
      transport.recv_for(NodeId{2}, std::chrono::milliseconds(100));
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->from, NodeId{0});
  EXPECT_EQ(transport.messages_sent(), 1u);
  // Nothing for node 1.
  EXPECT_FALSE(
      transport.recv_for(NodeId{1}, std::chrono::milliseconds(1)).has_value());
}

TEST(InProcTransport, CodecRoundTripPreservesAllPayloads) {
  InProcTransport transport{InProcOptions{2}};
  const Message token{NodeId{0}, NodeId{1}, LockId{7},
                      proto::HierToken{LockMode::kW, LockMode::kIR,
                                       {proto::QueuedRequest{
                                           NodeId{0}, LockMode::kR, 3}}}};
  transport.send(token);
  const auto received =
      transport.recv_for(NodeId{1}, std::chrono::milliseconds(100));
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(*received, token);
}

TEST(InProcTransport, ChannelFifoUnderRandomLatency) {
  InProcOptions options;
  options.node_count = 2;
  options.latency = DurationDist::uniform(SimTime::us(300), 0.9);
  InProcTransport transport{options};
  constexpr std::uint64_t kCount = 64;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    transport.send(Message{NodeId{0}, NodeId{1}, LockId{0},
                           proto::NaimiRequest{NodeId{0}, i}});
  }
  for (std::uint64_t i = 0; i < kCount; ++i) {
    const auto received =
        transport.recv_for(NodeId{1}, std::chrono::milliseconds(500));
    ASSERT_TRUE(received.has_value());
    const auto* request =
        std::get_if<proto::NaimiRequest>(&received->payload);
    ASSERT_NE(request, nullptr);
    EXPECT_EQ(request->seq, i) << "FIFO violated on the channel";
  }
}

TEST(InProcTransport, UnknownDestinationRejected) {
  InProcTransport transport{InProcOptions{2}};
  EXPECT_THROW(transport.send(make_message(0, 9)), UsageError);
}

TEST(Mailbox, PopAllReadyDrainsOnlyMaturedMessages) {
  Mailbox box;
  const auto now = Mailbox::Clock::now();
  box.push(make_message(1, 0), now);
  box.push(make_message(2, 0), now);
  // Not yet deliverable: must stay behind after the drain.
  box.push(make_message(3, 0), now + std::chrono::seconds(60));
  const auto drained = box.pop_all_ready();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].from, NodeId{1});
  EXPECT_EQ(drained[1].from, NodeId{2});
  EXPECT_FALSE(
      box.pop_until(Mailbox::Clock::now() + std::chrono::milliseconds(5))
          .has_value());
}

TEST(Mailbox, PopAllReadyReturnsEmptyOnlyWhenClosedAndDrained) {
  Mailbox box;
  box.push(make_message(1, 0), Mailbox::Clock::now());
  box.close();
  EXPECT_EQ(box.pop_all_ready().size(), 1u);
  EXPECT_TRUE(box.pop_all_ready().empty());
}

TEST(Mailbox, PopAllReadyBlocksUntilFirstMessageMatures) {
  Mailbox box;
  const auto start = Mailbox::Clock::now();
  box.push(make_message(1, 0), start + std::chrono::milliseconds(20));
  const auto drained = box.pop_all_ready();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_GE(Mailbox::Clock::now() - start, std::chrono::milliseconds(19));
}

// send_batch hands a burst to send() one message at a time: the receiver
// sees each message intact, in per-channel order, wherever it was headed.
TEST(InProcBatchTest, SendBatchPreservesChannelFifo) {
  InProcOptions options;
  options.node_count = 2;
  InProcTransport transport{options};
  std::vector<Message> burst;
  for (std::uint64_t i = 0; i < 32; ++i) {
    burst.push_back(Message{NodeId{0}, NodeId{1}, LockId{0},
                            proto::NaimiRequest{NodeId{0}, i}});
  }
  transport.send_batch(std::move(burst));
  EXPECT_EQ(transport.messages_sent(), 32u);
  std::uint64_t expected = 0;
  while (expected < 32) {
    const auto ready = transport.recv_ready(NodeId{1});
    ASSERT_FALSE(ready.empty()) << "transport drained early";
    for (const auto& message : ready) {
      const auto* request = std::get_if<proto::NaimiRequest>(&message.payload);
      ASSERT_NE(request, nullptr);
      EXPECT_EQ(request->seq, expected++) << "FIFO violated by send_batch";
    }
  }
}

TEST(InProcBatchTest, SendBatchSplitsMixedDestinations) {
  InProcOptions options;
  options.node_count = 3;
  InProcTransport transport{options};
  // Alternating destinations: each message reaches its own node.
  transport.send_batch({make_message(0, 1), make_message(0, 2),
                        make_message(0, 1), make_message(0, 2),
                        make_message(0, 1)});
  std::size_t to_one = 0;
  std::size_t to_two = 0;
  while (to_one < 3) to_one += transport.recv_ready(NodeId{1}).size();
  while (to_two < 2) to_two += transport.recv_ready(NodeId{2}).size();
  EXPECT_EQ(to_one, 3u);
  EXPECT_EQ(to_two, 2u);
  EXPECT_EQ(transport.messages_sent(), 5u);
}

TEST(InProcBatchTest, SendBatchRoundTripsEveryPayloadIntact) {
  InProcOptions options;
  options.node_count = 2;
  InProcTransport transport{options};
  const Message token{NodeId{0}, NodeId{1}, LockId{7},
                      proto::HierToken{LockMode::kW, LockMode::kIR,
                                       {proto::QueuedRequest{
                                           NodeId{0}, LockMode::kR, 3}}}};
  const Message release{NodeId{0}, NodeId{1}, LockId{7},
                        proto::HierRelease{LockMode::kNL, 2}};
  transport.send_batch({token, release});
  std::vector<Message> received;
  while (received.size() < 2) {
    auto ready = transport.recv_ready(NodeId{1});
    received.insert(received.end(), ready.begin(), ready.end());
  }
  EXPECT_EQ(received[0], token);
  EXPECT_EQ(received[1], release);
}

TEST(InProcTransport, BatchingCountsEncodedBytes) {
  InProcTransport transport{InProcOptions{2}};
  transport.send_batch(transport_test::wire_burst());
  // Each message's own codec encoding, and nothing else.
  EXPECT_EQ(transport.bytes_sent(), 788u);
  EXPECT_EQ(transport.messages_sent(), 16u);
}

TEST(InProcTransport, EmptySendBatchIsANoOp) {
  InProcTransport transport{InProcOptions{2}};
  transport.send_batch({});
  EXPECT_EQ(transport.messages_sent(), 0u);
  EXPECT_EQ(transport.bytes_sent(), 0u);
}

TEST(InProcTransport, RecvReadyReturnsEmptyAfterShutdown) {
  InProcTransport transport{InProcOptions{2}};
  transport.send(make_message(0, 1));
  transport.shutdown();
  // Pending messages drain first; only then does empty mean "shut down".
  std::size_t drained = 0;
  while (true) {
    const auto ready = transport.recv_ready(NodeId{1});
    if (ready.empty()) break;
    drained += ready.size();
  }
  EXPECT_EQ(drained, 1u);
}

TEST(InProcTransport, ShutdownUnblocksReceivers) {
  InProcTransport transport{InProcOptions{2}};
  std::thread receiver([&transport] {
    EXPECT_FALSE(transport.recv(NodeId{1}).has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  transport.shutdown();
  receiver.join();
}

}  // namespace
}  // namespace hlock::transport
