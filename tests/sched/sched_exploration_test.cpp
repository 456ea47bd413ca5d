// The existing concurrency stress scenarios, re-run as *explored
// schedules*: each test body executes under the deterministic schedule
// explorer across a batch of seeds (tests/sched/sched_test.hpp), so the
// shutdown / close / reconnect races the stress suites only sometimes hit
// are walked systematically — and any interleaving that deadlocks or
// fails prints its replay seed. See docs/sched.md.
#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/thread_cluster.hpp"
#include "tests/sched/sched_test.hpp"
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
    std::optional<Message> popped;
    sched::Thread consumer("consumer", [&mailbox, &popped] {
      popped = mailbox.pop_until(transport::Mailbox::Clock::now() +
                                 std::chrono::milliseconds(250));
    });
    mailbox.push(make_message(0, 1, 1), transport::Mailbox::Clock::now());
    sched::yield_point("test.before-close");
    mailbox.close();
    consumer.join();
    // Whatever the interleaving, the consumer must come back; it may see
    // the message or the close, but a pushed-before-close message that it
    // kept waiting past is a lost wakeup.
    if (popped.has_value()) {
      EXPECT_EQ(std::get<proto::NaimiRequest>(popped->payload).seq, 1u);
    }
  });
}

TEST(SchedExploration, MailboxCloseWakesBlockedPop) {
  sched_test::explore([] {
    transport::Mailbox mailbox;
    sched::Thread consumer("consumer", [&mailbox] {
      // Untimed pop: only the close can unblock it. A schedule where the
      // close's notify is lost deadlocks here — and the explorer proves it.
      EXPECT_FALSE(mailbox.pop().has_value());
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
        for (std::uint64_t seq = 0; seq < 3; ++seq) {
          const auto received =
              transport.recv_for(NodeId{1}, std::chrono::milliseconds(5000));
          ASSERT_TRUE(received.has_value()) << "message " << seq;
          EXPECT_EQ(std::get<proto::NaimiRequest>(received->payload).seq,
                    seq);
        }
        sender.join();
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
        const auto first =
            transport.recv_for(NodeId{1}, std::chrono::milliseconds(5000));
        ASSERT_TRUE(first.has_value());
        ASSERT_TRUE(transport.sever_channel(NodeId{0}, NodeId{1}));
        sched::Thread sender("sender", [&transport] {
          transport.send(make_message(0, 1, 2));
        });
        const auto second =
            transport.recv_for(NodeId{1}, std::chrono::milliseconds(5000));
        ASSERT_TRUE(second.has_value()) << "send did not recover";
        EXPECT_EQ(std::get<proto::NaimiRequest>(second->payload).seq, 2u);
        sender.join();
      },
      options);
}

}  // namespace
}  // namespace hlock
