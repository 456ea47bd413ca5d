// The existing concurrency stress scenarios, re-run as *explored
// schedules*: each test body executes under the deterministic schedule
// explorer across a batch of seeds (tests/sched/sched_test.hpp), so the
// shutdown / close / reconnect races the stress suites only sometimes hit
// are walked systematically — and any interleaving that deadlocks or
// fails prints its replay seed. See docs/sched.md.
#include <chrono>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/thread_cluster.hpp"
#include "tests/sched/sched_test.hpp"
#include "tests/transport/receive.hpp"
#include "trace/recorder.hpp"
#include "transport/faulty_transport.hpp"
#include "transport/inproc_transport.hpp"
#include "transport/mailbox.hpp"
#include "transport/tcp_transport.hpp"
#include "util/sync_observer.hpp"

namespace hlock {
namespace {

using proto::LockId;
using proto::LockMode;
using proto::Message;
using proto::NodeId;

Message make_message(std::uint32_t from, std::uint32_t to,
                     std::uint64_t seq) {
  return Message{NodeId{from}, NodeId{to}, LockId{0},
                 proto::NaimiRequest{NodeId{from}, seq}};
}

TEST(SchedExploration, ThreadClusterLockUnlockAndShutdown) {
  sched_test::ExploreOptions options;
  options.seeds = 8;  // a live cluster is the heaviest body in this suite
  sched_test::explore(
      [] {
        runtime::ThreadClusterOptions cluster_options;
        cluster_options.node_count = 2;
        runtime::ThreadCluster cluster{cluster_options};
        sched::Thread client("client", [&cluster] {
          for (int i = 0; i < 2; ++i) {
            cluster.lock(NodeId{1}, LockId{7}, LockMode::kW);
            cluster.unlock(NodeId{1}, LockId{7});
          }
        });
        cluster.lock(NodeId{0}, LockId{7}, LockMode::kW);
        cluster.unlock(NodeId{0}, LockId{7});
        client.join();
        // Destruction races the receivers draining their mailboxes — the
        // shutdown handshake the stress suite hammers nondeterministically.
      },
      options);
}

TEST(SchedExploration, MailboxPopUntilRacesPushAndClose) {
  sched_test::explore([] {
    transport::Mailbox mailbox;
    std::vector<Message> popped;
    sched::Thread consumer("consumer", [&mailbox, &popped] {
      popped = mailbox.pop_all_ready(transport::Mailbox::Clock::now() +
                                     std::chrono::milliseconds(250));
    });
    mailbox.push(make_message(0, 1, 1));
    sched::yield_point("test.before-close");
    mailbox.close();
    consumer.join();
    // Whatever the interleaving, the consumer must come back; it may see
    // the message or the close, but a pushed-before-close message that it
    // kept waiting past is a lost wakeup.
    if (!popped.empty()) {
      ASSERT_EQ(popped.size(), 1u);
      EXPECT_EQ(std::get<proto::NaimiRequest>(popped[0].payload).seq, 1u);
    }
  });
}

TEST(SchedExploration, MailboxCloseWakesBlockedPop) {
  sched_test::explore([] {
    transport::Mailbox mailbox;
    sched::Thread consumer("consumer", [&mailbox] {
      // Untimed pop: only the close can unblock it. A schedule where the
      // close's notify is lost deadlocks here — and the explorer proves it.
      EXPECT_TRUE(mailbox.pop_all_ready().empty());
    });
    mailbox.close();
    consumer.join();
  });
}

TEST(SchedExploration, TraceRecorderConcurrentRecordAndSnapshot) {
  sched_test::explore([] {
    trace::TraceRecorder recorder{64};
    sched::Thread writer("writer", [&recorder] {
      for (int i = 0; i < 4; ++i) {
        recorder.record_enter_cs(SimTime::ms(i), NodeId{1});
        recorder.record_exit_cs(SimTime::ms(i), NodeId{1});
      }
    });
    for (int i = 0; i < 4; ++i) {
      recorder.note(SimTime::ms(i), NodeId{0}, "snapshot-race");
      (void)recorder.events();
    }
    writer.join();
    EXPECT_EQ(recorder.events().size(), 12u);
  });
}

TEST(SchedExploration, FaultyTransportPumpRacesSendAndShutdown) {
  sched_test::ExploreOptions options;
  options.seeds = 8;
  sched_test::explore(
      [] {
        transport::FaultPlan plan;
        plan.seed = 7;
        plan.delay_probability = 0.5;  // force traffic through the pump wire
        plan.delay = DurationDist::constant(SimTime::us(50));
        transport::FaultyTransport transport{
            std::make_unique<transport::InProcTransport>(
                transport::InProcOptions{2}),
            plan};
        sched::Thread sender("sender", [&transport] {
          for (std::uint64_t seq = 0; seq < 3; ++seq) {
            transport.send(make_message(0, 1, seq));
          }
        });
        const std::vector<Message> received =
            transport_test::receive(transport, NodeId{1}, 3);
        sender.join();
        ASSERT_EQ(received.size(), 3u);
        for (std::uint64_t seq = 0; seq < 3; ++seq) {
          EXPECT_EQ(std::get<proto::NaimiRequest>(received[seq].payload).seq,
                    seq);
        }
        // Destructor shutdown races the pump thread's forwarding loop.
      },
      options);
}

TEST(SchedExploration, TcpReconnectAfterSeveredChannel) {
  // Real sockets keep their own kernel-side timing, so TCP schedules are
  // explored best-effort: the scheduler still controls every thread at its
  // sync points, but replay identity is not guaranteed (docs/sched.md).
  sched_test::ExploreOptions options;
  options.seeds = 4;
  sched_test::explore(
      [] {
        transport::TcpTransport transport{2};
        transport.send(make_message(0, 1, 1));
        ASSERT_EQ(transport_test::receive(transport, NodeId{1}, 1).size(), 1u);
        ASSERT_TRUE(transport.sever_channel(NodeId{0}, NodeId{1}));
        sched::Thread sender("sender", [&transport] {
          transport.send(make_message(0, 1, 2));
        });
        const std::vector<Message> second =
            transport_test::receive(transport, NodeId{1}, 1);
        sender.join();
        ASSERT_EQ(second.size(), 1u) << "send did not recover";
        EXPECT_EQ(std::get<proto::NaimiRequest>(second[0].payload).seq, 2u);
      },
      options);
}

}  // namespace
}  // namespace hlock
