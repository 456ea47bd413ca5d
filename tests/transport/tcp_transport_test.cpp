// Tests of the TCP loopback transport: framing, routing, FIFO, volume,
// shutdown semantics, back-pressure, the receive-side stream parser, and
// the full protocol stack running over real sockets.
#include "transport/tcp_transport.hpp"

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <span>
#include <thread>
#include <vector>

#include "proto/codec.hpp"
#include "runtime/thread_cluster.hpp"
#include "tests/transport/receive.hpp"
#include "tests/transport/wire_burst.hpp"
#include "transport/tcp_socket.hpp"
#include "util/check.hpp"

namespace hlock::transport {
namespace {

using proto::LockId;
using proto::LockMode;
using proto::Message;
using proto::NodeId;
using transport_test::after;
using transport_test::receive;
using namespace std::chrono_literals;

Message make_message(std::uint32_t from, std::uint32_t to,
                     std::uint64_t seq = 0) {
  return Message{NodeId{from}, NodeId{to}, LockId{0},
                 proto::NaimiRequest{NodeId{from}, seq}};
}

TEST(TcpTransport, BindsDistinctLoopbackPorts) {
  TcpTransport transport{3};
  EXPECT_NE(transport.port_of(NodeId{0}), 0);
  EXPECT_NE(transport.port_of(NodeId{0}), transport.port_of(NodeId{1}));
  EXPECT_NE(transport.port_of(NodeId{1}), transport.port_of(NodeId{2}));
}

TEST(TcpTransport, DeliversAcrossRealSockets) {
  TcpTransport transport{2};
  transport.send(make_message(0, 1, 42));
  EXPECT_EQ(receive(transport, NodeId{1}, 1),
            std::vector<Message>{make_message(0, 1, 42)});
  EXPECT_EQ(transport.messages_sent(), 1u);
}

TEST(TcpTransport, RoundTripsEveryPayloadKind) {
  TcpTransport transport{2};
  const std::vector<Message> messages{
      {NodeId{0}, NodeId{1}, LockId{3},
       proto::HierRequest{NodeId{0}, LockMode::kU, 7}},
      {NodeId{0}, NodeId{1}, LockId{3},
       proto::HierGrant{LockMode::kR, LockMode::kR, 12}},
      {NodeId{0}, NodeId{1}, LockId{3},
       proto::HierToken{LockMode::kW, LockMode::kIR,
                        {proto::QueuedRequest{NodeId{0}, LockMode::kR, 1}}}},
      {NodeId{0}, NodeId{1}, LockId{3}, proto::HierRelease{LockMode::kNL, 4}},
      {NodeId{0}, NodeId{1}, LockId{3},
       proto::HierFreeze{proto::ModeSet::of({LockMode::kIR})}},
      {NodeId{0}, NodeId{1}, LockId{3}, proto::NaimiToken{}},
  };
  for (const Message& message : messages) transport.send(message);
  EXPECT_EQ(receive(transport, NodeId{1}, messages.size()), messages);
}

TEST(TcpTransport, SendBatchShipsEachMessageAsItsOwnFrame) {
  TcpTransport transport{2};
  const std::vector<Message> burst = transport_test::wire_burst();
  transport.send_batch(burst);
  // 788 bytes of codec encodings plus a 4-byte length prefix per frame.
  EXPECT_EQ(transport.bytes_sent(), 852u);
  EXPECT_EQ(transport.messages_sent(), 16u);
  EXPECT_EQ(receive(transport, NodeId{1}, burst.size()), burst);
}

TEST(TcpTransport, ChannelIsFifoUnderVolume) {
  TcpTransport transport{2};
  constexpr std::uint64_t kCount = 2000;
  std::thread sender([&transport] {
    for (std::uint64_t i = 0; i < kCount; ++i) {
      transport.send(make_message(0, 1, i));
    }
  });
  const std::vector<Message> received = receive(transport, NodeId{1}, kCount);
  sender.join();
  ASSERT_EQ(received.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    const auto* request =
        std::get_if<proto::NaimiRequest>(&received[i].payload);
    ASSERT_NE(request, nullptr);
    ASSERT_EQ(request->seq, i) << "TCP channel reordered frames";
  }
}

TEST(TcpTransport, ConcurrentSendersToOneReceiver) {
  TcpTransport transport{4};
  constexpr std::size_t kPerSender = 300;
  std::vector<std::thread> senders;
  for (std::uint32_t s = 1; s < 4; ++s) {
    senders.emplace_back([&transport, s] {
      for (std::uint64_t i = 0; i < kPerSender; ++i) {
        transport.send(make_message(s, 0, i));
      }
    });
  }
  const std::size_t received =
      receive(transport, NodeId{0}, 3 * kPerSender).size();
  for (std::thread& t : senders) t.join();
  EXPECT_EQ(received, 3u * kPerSender);
}

TEST(TcpTransport, ShutdownUnblocksReceivers) {
  TcpTransport transport{2};
  std::thread receiver([&transport] {
    EXPECT_TRUE(transport.recv_ready(NodeId{1}).empty());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  transport.shutdown();
  receiver.join();
}

TEST(TcpTransport, RejectsUnknownDestination) {
  TcpTransport transport{2};
  EXPECT_THROW(transport.send(make_message(0, 7)), UsageError);
}

std::uint64_t seq_of(const Message& message) {
  const auto* request = std::get_if<proto::NaimiRequest>(&message.payload);
  return request == nullptr ? ~std::uint64_t{0} : request->seq;
}

TEST(TcpTransport, SendRecoversAfterChannelSevered) {
  TcpTransport transport{2};
  transport.send(make_message(0, 1, 1));
  ASSERT_EQ(receive(transport, NodeId{1}, 1).size(), 1u);

  // Kill the established connection mid-run, behind the sender's back.
  ASSERT_TRUE(transport.sever_channel(NodeId{0}, NodeId{1}));
  transport.send(make_message(0, 1, 2));

  const std::vector<Message> second = receive(transport, NodeId{1}, 1);
  ASSERT_EQ(second.size(), 1u) << "sender did not recover the channel";
  EXPECT_EQ(seq_of(second[0]), 2u);
  EXPECT_EQ(transport.messages_sent(), 2u);
  const auto counters = transport.counters().snapshot();
  EXPECT_GE(counters.send_retries, 1u);
  EXPECT_GE(counters.reconnects, 1u);
  EXPECT_EQ(counters.send_failures, 0u);
}

TEST(TcpTransport, SeverNeedsAnEstablishedChannel) {
  TcpTransport transport{2};
  EXPECT_FALSE(transport.sever_channel(NodeId{0}, NodeId{1}));
}

TEST(TcpTransport, ExhaustedRetriesDropTheFrameWithoutThrowing) {
  TcpOptions options;
  options.max_send_attempts = 2;
  options.initial_backoff = std::chrono::milliseconds(1);
  TcpTransport transport{2, options};
  // Repeatedly sever so every attempt (including post-reconnect writes)
  // fails; send must give up silently, never throw.
  for (int round = 0; round < 3; ++round) {
    transport.send(make_message(0, 1, static_cast<std::uint64_t>(round)));
    transport.sever_channel(NodeId{0}, NodeId{1});
  }
  // Drain whatever made it through; the transport itself must stay usable.
  while (!transport.recv_ready(NodeId{1}, after(200ms)).empty()) {
  }
  transport.send(make_message(0, 1, 99));
  const std::vector<Message> last = receive(transport, NodeId{1}, 1);
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(seq_of(last[0]), 99u);
}

TEST(TcpTransport, MisaddressedFrameIsDiscardedConnectionSurvives) {
  TcpTransport transport{2};
  // Hand-roll a connection to node 0 and misaddress the first frame.
  const int fd = connect_loopback(transport.port_of(NodeId{0}));
  ASSERT_TRUE(write_frame(fd, make_message(1, 1, 7)));  // to node 1!
  ASSERT_TRUE(write_frame(fd, make_message(1, 0, 8)));  // correct
  const std::vector<Message> received = receive(transport, NodeId{0}, 1);
  ASSERT_EQ(received.size(), 1u)
      << "reader dropped the connection on a bad frame";
  EXPECT_EQ(seq_of(received[0]), 8u);
  EXPECT_EQ(transport.counters().snapshot().misaddressed_frames, 1u);
  // The misaddressed frame never surfaced anywhere.
  EXPECT_TRUE(transport.recv_ready(NodeId{1}, after(50ms)).empty());
  ::close(fd);
}

TEST(TcpTransport, CrossedBacklogsAboveTheSocketBuffersBothArrive) {
  // A node's sockets drain only while someone reads them. Two threads, each
  // the only user of one node, send each other far more than the socket
  // buffers hold before receiving anything: a write that would block has
  // to keep its own node's inbound moving, or both writers wait forever.
  TcpTransport transport{2};
  constexpr std::uint32_t kTokens = 64;
  constexpr std::size_t kQueueEntries = 60000;
  std::atomic<int> finished{0};
  auto run_node = [&](std::uint32_t self, std::uint32_t peer,
                      std::uint32_t* received) {
    proto::HierToken token{LockMode::kW, LockMode::kNL, {}};
    token.queue.assign(kQueueEntries,
                       proto::QueuedRequest{NodeId{self}, LockMode::kR, 1});
    for (std::uint32_t i = 0; i < kTokens; ++i) {
      transport.send(Message{NodeId{self}, NodeId{peer}, LockId{i}, token});
    }
    while (*received < kTokens) {
      const std::vector<Message> batch =
          transport.recv_ready(NodeId{self}, after(100ms));
      if (batch.empty() && finished.load() < 0) break;  // the watchdog gave up
      for (const Message& message : batch) {
        EXPECT_EQ(message.lock, LockId{*received}) << "reordered at " << self;
        ++*received;
      }
    }
    finished.fetch_add(1);
  };
  std::uint32_t received_at_0 = 0;
  std::uint32_t received_at_1 = 0;
  std::thread node0(run_node, 0, 1, &received_at_0);
  std::thread node1(run_node, 1, 0, &received_at_1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (finished.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (finished.load() < 2) {
    ADD_FAILURE() << "crossed backlogs did not drain within the deadline";
    finished.store(-100);
    transport.shutdown();  // unblocks the writers so the threads can exit
  }
  node0.join();
  node1.join();
  EXPECT_EQ(received_at_0, kTokens);
  EXPECT_EQ(received_at_1, kTokens);
}

// ---- The receive-side stream parser, driven over hand-rolled peers ----

std::vector<std::byte> frame_of(const Message& message) {
  std::vector<std::byte> frame;
  begin_frame(frame);
  proto::encode_into(message, frame);
  EXPECT_TRUE(finish_frame(frame));
  return frame;
}

std::vector<std::byte> batch_frame_of(std::span<const Message> messages) {
  std::vector<std::byte> frame;
  begin_frame(frame);
  proto::encode_batch_into(messages, frame);
  EXPECT_TRUE(finish_frame(frame));
  return frame;
}

void write_raw(int fd, std::span<const std::byte> bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << "raw write failed";
    bytes = bytes.subspan(static_cast<std::size_t>(n));
  }
}

/// True once the far end has closed `fd` (EOF or reset) within 2 s.
bool closed_by_peer(int fd) {
  pollfd readable{fd, POLLIN, 0};
  if (::poll(&readable, 1, 2000) <= 0) return false;
  std::byte byte{};
  return ::recv(fd, &byte, 1, MSG_DONTWAIT) <= 0;
}

TEST(TcpStream, FrameSplitAtEveryOffsetReassembles) {
  TcpTransport transport{2};
  const int fd = connect_loopback(transport.port_of(NodeId{1}));
  const Message batch_part[] = {make_message(0, 1, 7), make_message(0, 1, 8)};
  std::uint64_t seq = 100;
  for (const bool batch : {false, true}) {
    const Message single = make_message(0, 1, seq);
    const std::vector<std::byte> frame =
        batch ? batch_frame_of(batch_part) : frame_of(single);
    // Offsets 1-3 split the length prefix, the rest split the body.
    for (std::size_t split = 1; split < frame.size(); ++split) {
      const std::span<const std::byte> bytes{frame};
      write_raw(fd, bytes.first(split));
      // The receiver reads the first part and must not deliver anything.
      EXPECT_TRUE(transport.recv_ready(NodeId{1}, after(2ms)).empty())
          << "partial frame delivered at split " << split;
      write_raw(fd, bytes.subspan(split));
      const std::span<const Message> expected =
          batch ? std::span<const Message>{batch_part}
                : std::span<const Message>{&single, 1};
      EXPECT_EQ(receive(transport, NodeId{1}, expected.size()),
                std::vector<Message>(expected.begin(), expected.end()))
          << "at split " << split;
    }
  }
  ::close(fd);
}

TEST(TcpStream, SeveralFramesInOneWriteArriveInOrder) {
  TcpTransport transport{2};
  const int fd = connect_loopback(transport.port_of(NodeId{1}));
  const Message first_batch[] = {make_message(0, 1, 2), make_message(0, 1, 3),
                                 make_message(0, 1, 4)};
  const Message second_batch[] = {make_message(0, 1, 6),
                                  make_message(0, 1, 7)};
  std::vector<std::byte> burst;
  for (const std::vector<std::byte>& frame :
       {frame_of(make_message(0, 1, 1)), batch_frame_of(first_batch),
        frame_of(make_message(0, 1, 5)), batch_frame_of(second_batch),
        frame_of(make_message(0, 1, 8))}) {
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  write_raw(fd, burst);
  const std::vector<Message> received = receive(transport, NodeId{1}, 8);
  ASSERT_EQ(received.size(), 8u);
  for (std::uint64_t seq = 1; seq <= 8; ++seq) {
    EXPECT_EQ(seq_of(received[seq - 1]), seq);
  }
  EXPECT_EQ(transport.inbox_depth(NodeId{1}), 0u);
  ::close(fd);
}

TEST(TcpStream, BadFrameClosesOnlyItsConnection) {
  const std::vector<std::byte> zero_prefix(4, std::byte{0});
  std::vector<std::byte> oversized_prefix(4);
  for (std::size_t i = 0; i < 4; ++i) {
    oversized_prefix[i] =
        static_cast<std::byte>(((kMaxFrameBytes + 1) >> (8 * i)) & 0xFF);
  }
  // A well-formed prefix around a body no decoder accepts.
  const std::vector<std::byte> undecodable{std::byte{3}, std::byte{0},
                                           std::byte{0}, std::byte{0},
                                           std::byte{0xEE}, std::byte{0xEE},
                                           std::byte{0xEE}};
  for (const std::vector<std::byte>& bad :
       {zero_prefix, oversized_prefix, undecodable}) {
    TcpTransport transport{2};
    const int doomed = connect_loopback(transport.port_of(NodeId{0}));
    const int healthy = connect_loopback(transport.port_of(NodeId{0}));
    write_raw(healthy, frame_of(make_message(1, 0, 1)));
    std::vector<Message> received = receive(transport, NodeId{0}, 1);
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(seq_of(received[0]), 1u);

    // A valid frame ahead of the bad bytes still arrives; nothing after.
    std::vector<std::byte> poisoned = frame_of(make_message(1, 0, 2));
    poisoned.insert(poisoned.end(), bad.begin(), bad.end());
    const std::vector<std::byte> trailing = frame_of(make_message(1, 0, 99));
    poisoned.insert(poisoned.end(), trailing.begin(), trailing.end());
    write_raw(doomed, poisoned);
    received = receive(transport, NodeId{0}, 1);
    ASSERT_EQ(received.size(), 1u);
    EXPECT_EQ(seq_of(received[0]), 2u);
    EXPECT_TRUE(transport.recv_ready(NodeId{0}, after(50ms)).empty());
    EXPECT_TRUE(closed_by_peer(doomed)) << "bad connection left open";

    write_raw(healthy, frame_of(make_message(1, 0, 3)));
    received = receive(transport, NodeId{0}, 1);
    ASSERT_EQ(received.size(), 1u) << "the healthy connection went too";
    EXPECT_EQ(seq_of(received[0]), 3u);
    ::close(doomed);
    ::close(healthy);
  }
}

TEST(TcpStream, EofMidFrameDropsOnlyThePartialFrame) {
  TcpTransport transport{2};
  const int fd = connect_loopback(transport.port_of(NodeId{1}));
  std::vector<std::byte> bytes = frame_of(make_message(0, 1, 1));
  const std::vector<std::byte> cut = frame_of(make_message(0, 1, 2));
  bytes.insert(bytes.end(), cut.begin(), cut.begin() + 6);
  write_raw(fd, bytes);
  ::close(fd);
  std::vector<Message> received = receive(transport, NodeId{1}, 1);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(seq_of(received[0]), 1u);
  EXPECT_TRUE(transport.recv_ready(NodeId{1}, after(50ms)).empty())
      << "the partial frame surfaced";

  // The node keeps serving its other connections.
  transport.send(make_message(0, 1, 3));
  received = receive(transport, NodeId{1}, 1);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(seq_of(received[0]), 3u);
}

TEST(TcpCluster, HierarchicalProtocolOverRealSockets) {
  runtime::ThreadClusterOptions options;
  options.node_count = 4;
  options.transport = runtime::TransportKind::kTcp;
  runtime::ThreadCluster cluster{options};

  long counter = 0;
  std::vector<std::thread> workers;
  for (std::uint32_t i = 0; i < 4; ++i) {
    workers.emplace_back([&cluster, &counter, i] {
      for (int k = 0; k < 20; ++k) {
        cluster.lock(NodeId{i}, LockId{0}, LockMode::kW);
        const long snapshot = counter;
        std::this_thread::yield();
        counter = snapshot + 1;
        cluster.unlock(NodeId{i}, LockId{0});
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(counter, 80);
  EXPECT_GT(cluster.messages_sent(), 0u);
}

TEST(TcpCluster, SharedModesAndUpgradeOverRealSockets) {
  runtime::ThreadClusterOptions options;
  options.node_count = 3;
  options.transport = runtime::TransportKind::kTcp;
  runtime::ThreadCluster cluster{options};

  // Concurrent readers over sockets.
  std::thread r1([&] {
    cluster.lock(NodeId{1}, LockId{0}, LockMode::kIR);
    cluster.unlock(NodeId{1}, LockId{0});
  });
  std::thread r2([&] {
    cluster.lock(NodeId{2}, LockId{0}, LockMode::kIR);
    cluster.unlock(NodeId{2}, LockId{0});
  });
  r1.join();
  r2.join();

  // Rule 7 upgrade across the wire.
  cluster.lock(NodeId{1}, LockId{0}, LockMode::kU);
  cluster.upgrade(NodeId{1}, LockId{0});
  cluster.unlock(NodeId{1}, LockId{0});
}

}  // namespace
}  // namespace hlock::transport
