// Tests of the in-process transport and its mailbox primitive.
#include "transport/inproc_transport.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "tests/runtime/probes.hpp"
#include "tests/transport/receive.hpp"
#include "tests/transport/wire_burst.hpp"
#include "transport/mailbox.hpp"
#include "util/check.hpp"

namespace hlock::transport {
namespace {

using proto::LockId;
using proto::LockMode;
using proto::Message;
using proto::NodeId;
using transport_test::after;
using namespace std::chrono_literals;
using Senders = std::vector<std::uint32_t>;

Message make_message(std::uint32_t from, std::uint32_t to) {
  return Message{NodeId{from}, NodeId{to}, LockId{0},
                 proto::HierRequest{NodeId{from}, LockMode::kR, 0}};
}

/// The senders of a batch, in order: the tests number messages by sender.
Senders senders(const std::vector<Message>& batch) {
  Senders from;
  from.reserve(batch.size());
  for (const Message& message : batch) from.push_back(message.from.value());
  return from;
}

TEST(Mailbox, PopUntilTimesOut) {
  Mailbox box;
  EXPECT_TRUE(
      box.pop_all_ready(Mailbox::Clock::now() + std::chrono::milliseconds(10))
          .empty());
}

TEST(Mailbox, CloseWakesBlockedConsumer) {
  Mailbox box;
  std::thread consumer([&box] { EXPECT_TRUE(box.pop_all_ready().empty()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  box.close();
  consumer.join();
}

TEST(Mailbox, CloseDropsNewPushesButDrainsExisting) {
  Mailbox box;
  box.push(make_message(1, 0));
  box.close();
  box.push(make_message(2, 0));
  EXPECT_EQ(box.pop_all_ready().size(), 1u);
  EXPECT_TRUE(box.pop_all_ready().empty());
  EXPECT_EQ(box.pushed(), 1u);
}

TEST(Mailbox, CrossThreadProducerConsumer) {
  Mailbox box;
  constexpr std::size_t kMessages = 500;
  std::thread producer([&box] {
    for (std::size_t i = 0; i < kMessages; ++i) box.push(make_message(1, 0));
    box.close();
  });
  std::size_t received = 0;
  for (;;) {
    const std::vector<Message> batch = box.pop_all_ready();
    if (batch.empty()) break;
    received += batch.size();
  }
  producer.join();
  EXPECT_EQ(received, kMessages);
}

TEST(InProcTransport, RoutesToDestination) {
  InProcTransport transport{InProcOptions{3}};
  transport.send(make_message(0, 2));
  const std::vector<Message> received =
      transport_test::receive(transport, NodeId{2}, 1);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].from, NodeId{0});
  EXPECT_EQ(transport.messages_sent(), 1u);
  // Nothing for node 1.
  EXPECT_TRUE(
      transport.recv_ready(NodeId{1}, transport_test::after(1ms)).empty());
}

TEST(InProcTransport, CodecRoundTripPreservesAllPayloads) {
  InProcTransport transport{InProcOptions{2}};
  const Message token{NodeId{0}, NodeId{1}, LockId{7},
                      proto::HierToken{LockMode::kW, LockMode::kIR,
                                       {proto::QueuedRequest{
                                           NodeId{0}, LockMode::kR, 3}}}};
  transport.send(token);
  EXPECT_EQ(transport_test::receive(transport, NodeId{1}, 1),
            std::vector<Message>{token});
}

TEST(InProcTransport, ChannelFifoUnderConcurrentSenders) {
  // Two sender threads, two channels into node 2: the mailbox interleaves
  // the channels arbitrarily, but each one's sequence arrives in order.
  InProcTransport transport{InProcOptions{3}};
  constexpr std::uint64_t kCount = 500;
  std::vector<std::thread> senders;
  for (std::uint32_t from = 0; from < 2; ++from) {
    senders.emplace_back([&transport, from] {
      for (std::uint64_t i = 0; i < kCount; ++i) {
        transport.send(Message{NodeId{from}, NodeId{2}, LockId{0},
                               proto::NaimiRequest{NodeId{from}, i}});
      }
    });
  }
  const std::vector<Message> received =
      transport_test::receive(transport, NodeId{2}, 2 * kCount);
  for (std::thread& sender : senders) sender.join();
  ASSERT_EQ(received.size(), 2 * kCount);
  std::uint64_t next[2] = {0, 0};
  for (const Message& message : received) {
    const auto* request = std::get_if<proto::NaimiRequest>(&message.payload);
    ASSERT_NE(request, nullptr);
    ASSERT_LT(message.from.value(), 2u);
    EXPECT_EQ(request->seq, next[message.from.value()]++)
        << "FIFO violated on the channel from " << message.from.value();
  }
}

TEST(InProcTransport, UnknownDestinationRejected) {
  InProcTransport transport{InProcOptions{2}};
  EXPECT_THROW(transport.send(make_message(0, 9)), UsageError);
  EXPECT_THROW(transport.mailbox(NodeId{9}), UsageError);
}

TEST(Mailbox, PopAllReadyDrainsInArrivalOrder) {
  Mailbox box;
  box.push(make_message(1, 0));
  box.push(make_message(2, 0));
  box.push(make_message(3, 0));
  const auto drained = box.pop_all_ready();
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0].from, NodeId{1});
  EXPECT_EQ(drained[1].from, NodeId{2});
  EXPECT_EQ(drained[2].from, NodeId{3});
  EXPECT_EQ(box.size(), 0u);
  EXPECT_TRUE(
      box.pop_all_ready(Mailbox::Clock::now() + std::chrono::milliseconds(5))
          .empty());
}

TEST(Mailbox, PopAllReadyReturnsEmptyOnlyWhenClosedAndDrained) {
  Mailbox box;
  box.push(make_message(1, 0));
  box.close();
  EXPECT_EQ(box.pop_all_ready().size(), 1u);
  EXPECT_TRUE(box.pop_all_ready().empty());
}

TEST(Mailbox, PopAllReadyBlocksUntilAnotherThreadPushes) {
  Mailbox box;
  const auto start = Mailbox::Clock::now();
  std::thread producer([&box] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.push(make_message(1, 0));
  });
  const auto drained = box.pop_all_ready();
  producer.join();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_GE(Mailbox::Clock::now() - start, std::chrono::milliseconds(19));
}

// ---- The enlisted caller: a call blocked on its grant drains the inbox.

/// A thread blocked in one take from `box`, whose result the test reads
/// once it has returned.
class Take {
 public:
  template <typename TakeFn>
  Take(Mailbox& box, TakeFn take)
      : box_(box), thread_([this, take] {
          taken_ = take();
          returned_ = true;
        }) {}
  Take(const Take&) = delete;
  Take& operator=(const Take&) = delete;
  ~Take() {
    if (thread_.joinable()) join();
  }

  bool returned() const { return returned_; }

  /// Joins the thread and returns the senders of what it took. A take
  /// still blocked after 10 s fails the test, and the mailbox is closed
  /// and its caller signalled to end it.
  Senders join() {
    const auto deadline = Mailbox::Clock::now() + 10s;
    while (!returned_ && Mailbox::Clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    if (!returned_) {
      ADD_FAILURE() << "the take never returned";
      box_.close();
      box_.signal_caller();
    }
    thread_.join();
    return senders(taken_);
  }

 private:
  Mailbox& box_;
  std::vector<Message> taken_;
  std::atomic<bool> returned_{false};
  std::thread thread_;
};

TEST(MailboxCaller, PushToAnIdleInboxWakesTheCallerNotTheReceiver) {
  Mailbox box;
  Take receiver(box, [&box] { return box.pop_all_ready(); });
  const std::optional<std::uint64_t> generation = box.enlist_caller();
  ASSERT_TRUE(generation.has_value());
  Take caller(box, [&box, &generation] {
    return box.take_for_caller(*generation);
  });
  std::this_thread::sleep_for(20ms);  // both wait on an empty inbox
  box.push(make_message(1, 0));
  EXPECT_EQ(caller.join(), Senders{1});
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(receiver.returned());
  // Signalled, the caller gives its claim back; the inbox is empty, so
  // the receiver still has nothing to wake for.
  box.signal_caller();
  EXPECT_TRUE(box.take_for_caller(*generation).empty());
  std::this_thread::sleep_for(5ms);
  EXPECT_FALSE(receiver.returned());
  box.push(make_message(2, 0));  // no caller enlisted now
  EXPECT_EQ(receiver.join(), Senders{2});
}

TEST(MailboxCaller, WithNoCallerEnlistedAPushWakesTheReceiver) {
  Mailbox box;
  {
    Take receiver(box, [&box] { return box.pop_all_ready(); });
    std::this_thread::sleep_for(20ms);
    box.push(make_message(1, 0));
    EXPECT_EQ(receiver.join(), Senders{1});
  }
  EXPECT_TRUE(box.pop_all_ready(after(5ms)).empty());  // claim given up
  // A caller that enlisted and withdrew leaves the receiver in charge.
  const std::optional<std::uint64_t> generation = box.enlist_caller();
  ASSERT_TRUE(generation.has_value());
  box.signal_caller();
  EXPECT_TRUE(box.take_for_caller(*generation).empty());
  Take receiver(box, [&box] { return box.pop_all_ready(); });
  std::this_thread::sleep_for(20ms);
  box.push(make_message(2, 0));
  EXPECT_EQ(receiver.join(), Senders{2});
}

TEST(MailboxCaller, PushWhileAnotherThreadDrainsWakesNobody) {
  Mailbox box;
  const std::optional<std::uint64_t> generation = box.enlist_caller();
  ASSERT_TRUE(generation.has_value());
  // The receiver takes message 1 and holds the claim: a push leaves the
  // caller waiting, and the receiver's next take has the message.
  box.push(make_message(1, 0));
  ASSERT_EQ(senders(box.pop_all_ready(after(10s))), Senders{1});
  Take caller(box, [&box, &generation] {
    return box.take_for_caller(*generation);
  });
  box.push(make_message(2, 0));
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(caller.returned());
  EXPECT_EQ(senders(box.pop_all_ready(after(10s))), Senders{2});
  EXPECT_TRUE(box.pop_all_ready(after(5ms)).empty());  // gives it up
  std::this_thread::sleep_for(5ms);
  EXPECT_FALSE(caller.returned());
  box.push(make_message(3, 0));  // an idle inbox again: the caller wakes
  EXPECT_EQ(caller.join(), Senders{3});
  box.signal_caller();
  EXPECT_TRUE(box.take_for_caller(*generation).empty());
}

TEST(MailboxCaller, SignalOrCloseReturnsTheCallerWithNothingTaken) {
  Mailbox box;
  std::optional<std::uint64_t> generation = box.enlist_caller();
  ASSERT_TRUE(generation.has_value());
  {
    Take caller(box, [&box, &generation] {
      return box.take_for_caller(*generation);
    });
    std::this_thread::sleep_for(20ms);
    EXPECT_FALSE(caller.returned());
    box.signal_caller();
    EXPECT_TRUE(caller.join().empty());
  }
  // A signal between the enlistment and the take is not lost, and it
  // wins over a queued message. That message's push woke the enlisted
  // caller, not the receiver, so the caller's withdrawal wakes the
  // receiver for it.
  {
    Take receiver(box, [&box] { return box.pop_all_ready(); });
    generation = box.enlist_caller();
    ASSERT_TRUE(generation.has_value());
    std::this_thread::sleep_for(20ms);
    box.push(make_message(1, 0));
    box.signal_caller();
    EXPECT_TRUE(box.take_for_caller(*generation).empty());
    EXPECT_EQ(receiver.join(), Senders{1});
  }
  EXPECT_TRUE(box.pop_all_ready(after(5ms)).empty());
  generation = box.enlist_caller();
  ASSERT_TRUE(generation.has_value());
  Take caller(box, [&box, &generation] {
    return box.take_for_caller(*generation);
  });
  std::this_thread::sleep_for(20ms);
  box.close();
  EXPECT_TRUE(caller.join().empty());
}

TEST(MailboxCaller, WhileTheCallerHoldsItsTakeTheReceiverWaits) {
  Mailbox box;
  const std::optional<std::uint64_t> generation = box.enlist_caller();
  ASSERT_TRUE(generation.has_value());
  box.push(make_message(1, 0));
  ASSERT_EQ(senders(box.take_for_caller(*generation)), Senders{1});
  Take receiver(box, [&box] { return box.pop_all_ready(); });
  box.push(make_message(2, 0));
  box.push(make_message(3, 0));
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(receiver.returned());
  // The caller's next take has both, in push order, and keeps the claim.
  EXPECT_EQ(senders(box.take_for_caller(*generation)), (Senders{2, 3}));
  // Signalled with nothing queued: the give-back wakes nobody.
  box.signal_caller();
  EXPECT_TRUE(box.take_for_caller(*generation).empty());
  std::this_thread::sleep_for(5ms);
  EXPECT_FALSE(receiver.returned());
  box.push(make_message(4, 0));
  EXPECT_EQ(receiver.join(), Senders{4});
}

TEST(MailboxCaller, GiveBackWithMessagesQueuedWakesTheReceiverInPushOrder) {
  Mailbox box;
  const std::optional<std::uint64_t> generation = box.enlist_caller();
  ASSERT_TRUE(generation.has_value());
  box.push(make_message(1, 0));
  ASSERT_EQ(senders(box.take_for_caller(*generation)), Senders{1});
  Take receiver(box, [&box] { return box.pop_all_ready(); });
  box.push(make_message(2, 0));
  box.push(make_message(3, 0));
  box.push(make_message(4, 0));
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(receiver.returned());
  // The caller's grant arrived while it applied message 1: it takes no
  // more, and its give-back hands the rest to the receiver.
  box.signal_caller();
  EXPECT_TRUE(box.take_for_caller(*generation).empty());
  EXPECT_EQ(receiver.join(), (Senders{2, 3, 4}));
}

TEST(MailboxCaller, OneCallerEnlistsAtATime) {
  Mailbox box;
  EXPECT_THROW(box.take_for_caller(0), UsageError);
  const std::optional<std::uint64_t> generation = box.enlist_caller();
  ASSERT_TRUE(generation.has_value());
  EXPECT_FALSE(box.enlist_caller().has_value());
  box.signal_caller();
  EXPECT_TRUE(box.take_for_caller(*generation).empty());
  const std::optional<std::uint64_t> next = box.enlist_caller();
  ASSERT_TRUE(next.has_value());
  EXPECT_NE(*next, *generation);  // the signal advanced the generation
}

// ---- The caller's spin: a caller with nothing to take spins on the
// mailbox's activity before it parks. A YieldGate parks it at the spin's
// schedule point, after it dropped the mutex and before it reads the
// activity, so the test's push, signal or close lands inside the spin.

/// The spin's schedule point. A gate parking its first arrival is
/// declared before the mailbox and its threads, which reach the gate while
/// they run, so it outlives them.
constexpr const char* kSpinSite = "mailbox.caller-spin";

/// Starts the take of the caller enlisted on `box` at `generation`, and
/// parks it at its first spin, at `gate`, until `during_spin` ran.
/// Returns the senders of what the take returned.
template <typename DuringSpin>
Senders take_across_a_spin(test::YieldGate& gate, Mailbox& box,
                           std::uint64_t generation, DuringSpin during_spin) {
  Take caller(box, [&box, generation] {
    return box.take_for_caller(generation);
  });
  EXPECT_TRUE(gate.await_parked(10s)) << "the caller never spun";
  during_spin();
  gate.release();
  return caller.join();
}

TEST(MailboxCaller, APushDuringTheSpinIsTakenByTheCaller) {
  test::YieldGate gate{kSpinSite, /*park_at=*/1};
  Mailbox box;
  // The push finds nobody draining and the caller enlisted, so it goes to
  // the caller, which is spinning: the receiver is not woken and times
  // out empty, the caller holding the claim for what it took.
  Take receiver(box, [&box] { return box.pop_all_ready(after(300ms)); });
  const std::optional<std::uint64_t> generation = box.enlist_caller();
  ASSERT_TRUE(generation.has_value());
  EXPECT_EQ(take_across_a_spin(gate, box, *generation,
                               [&box] { box.push(make_message(1, 0)); }),
            Senders{1});
  EXPECT_TRUE(receiver.join().empty());
  box.signal_caller();
  EXPECT_TRUE(box.take_for_caller(*generation).empty());
}

TEST(MailboxCaller, ASignalOrCloseDuringTheSpinReturnsNothing) {
  {
    // A signal with a message queued: the caller withdraws and wakes the
    // receiver for the message its push sent to the caller.
    test::YieldGate gate{kSpinSite, /*park_at=*/1};
    Mailbox box;
    Take receiver(box, [&box] { return box.pop_all_ready(); });
    const std::uint64_t generation = box.enlist_caller().value();
    EXPECT_TRUE(take_across_a_spin(gate, box, generation, [&box] {
                  box.push(make_message(1, 0));
                  box.signal_caller();
                }).empty());
    EXPECT_EQ(receiver.join(), Senders{1});
  }
  {
    // A signal alone: nothing remains, so nothing wakes the receiver. The
    // claim is back with nobody, so the next push wakes the receiver.
    test::YieldGate gate{kSpinSite, /*park_at=*/1};
    Mailbox box;
    Take waiting(box, [&box] { return box.pop_all_ready(after(50ms)); });
    const std::uint64_t generation = box.enlist_caller().value();
    EXPECT_TRUE(take_across_a_spin(gate, box, generation,
                                   [&box] { box.signal_caller(); })
                    .empty());
    EXPECT_TRUE(waiting.join().empty());
    Take receiver(box, [&box] { return box.pop_all_ready(); });
    std::this_thread::sleep_for(20ms);
    box.push(make_message(2, 0));
    EXPECT_EQ(receiver.join(), Senders{2});
  }
  {
    // The close: the caller returns, and the receiver takes what was
    // queued before it, then sees the mailbox closed and drained.
    test::YieldGate gate{kSpinSite, /*park_at=*/1};
    Mailbox box;
    Take receiver(box, [&box] { return box.pop_all_ready(); });
    const std::uint64_t generation = box.enlist_caller().value();
    EXPECT_TRUE(take_across_a_spin(gate, box, generation, [&box] {
                  box.push(make_message(3, 0));
                  box.close();
                }).empty());
    EXPECT_EQ(receiver.join(), Senders{3});
    EXPECT_TRUE(box.pop_all_ready().empty());
  }
}

/// Message `seq` from producer `from`: the sequence rides in the lock id.
Message numbered(std::uint32_t from, std::uint32_t seq) {
  return Message{NodeId{from}, NodeId{0}, LockId{seq},
                 proto::HierRequest{NodeId{from}, LockMode::kR, 0}};
}

// Four producers push numbered messages, pausing now and then for longer
// than the spin, while a caller enlists, spins, parks and takes in a loop,
// a signaller ends its waits, and the receiver takes what each withdrawal
// leaves. Each taker logs a batch before its next take, while it still
// holds the claim, so the log is in take order. After the producers and
// the signaller stop, every message must be taken without a further
// signal, exactly once and in its producer's order. Run under the thread
// sanitizer in CI: the spin reads the activity counter without the mutex.
TEST(MailboxCallerStress, EveryMessageIsTakenOnceInProducerOrder) {
  constexpr std::uint32_t kProducers = 4;
  constexpr std::uint32_t kPerProducer = 10000;
  constexpr std::size_t kTotal = std::size_t{kProducers} * kPerProducer;
  Mailbox box;
  std::mutex log_mutex;
  std::vector<Message> log;
  const auto record = [&](std::vector<Message>&& batch) {
    const std::lock_guard<std::mutex> guard(log_mutex);
    log.insert(log.end(), std::make_move_iterator(batch.begin()),
               std::make_move_iterator(batch.end()));
  };
  const auto logged = [&] {
    const std::lock_guard<std::mutex> guard(log_mutex);
    return log.size();
  };

  std::atomic<bool> closing{false};
  std::thread receiver([&] {
    for (std::vector<Message> batch = box.pop_all_ready(); !batch.empty();
         batch = box.pop_all_ready()) {
      record(std::move(batch));
    }
  });
  std::thread caller([&] {
    while (!closing.load()) {
      const std::optional<std::uint64_t> generation = box.enlist_caller();
      ASSERT_TRUE(generation.has_value());
      for (std::vector<Message> batch = box.take_for_caller(*generation);
           !batch.empty(); batch = box.take_for_caller(*generation)) {
        record(std::move(batch));
      }
    }
  });
  std::atomic<bool> signalling{true};
  std::thread signaller([&] {
    while (signalling.load()) {
      box.signal_caller();
      std::this_thread::sleep_for(30us);
    }
  });
  std::vector<std::thread> producers;
  for (std::uint32_t from = 0; from < kProducers; ++from) {
    producers.emplace_back([&box, from] {
      for (std::uint32_t seq = 0; seq < kPerProducer; ++seq) {
        box.push(numbered(from, seq));
        if (seq % 97 == from) std::this_thread::sleep_for(50us);
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  signalling = false;
  signaller.join();

  // No signal comes now: a message left queued with nobody woken to take
  // it stays there.
  const auto deadline = Mailbox::Clock::now() + 10s;
  while (logged() < kTotal && Mailbox::Clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(logged(), kTotal) << "messages left queued with nobody taking";
  closing = true;
  box.close();
  caller.join();
  receiver.join();

  std::map<std::uint32_t, std::uint32_t> next;
  for (const Message& message : log) {
    std::uint32_t& expected = next[message.from.value()];
    ASSERT_EQ(message.lock.value(), expected)
        << "producer " << message.from.value()
        << ": message lost, duplicated or out of order";
    ++expected;
  }
  EXPECT_EQ(log.size(), kTotal);
  EXPECT_EQ(box.pushed(), kTotal);
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
    EXPECT_TRUE(transport.recv_ready(NodeId{1}).empty());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  transport.shutdown();
  receiver.join();
}

}  // namespace
}  // namespace hlock::transport
