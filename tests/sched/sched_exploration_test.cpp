// The existing concurrency stress scenarios, re-run as *explored
// schedules*: each test body executes under the deterministic schedule
// explorer across a batch of seeds (tests/sched/sched_test.hpp), so the
// shutdown / close / reconnect races the stress suites only sometimes hit
// are walked systematically — and any interleaving that deadlocks or
// fails prints its replay seed. See docs/sched.md.
#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <utility>
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
#include "util/check.hpp"
#include "util/sync.hpp"
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

/// One mailbox drained by its receiver and by the node's blocked caller,
/// while two producers push. Whoever takes a batch applies it to one log;
/// two takers applying at once would mean a broken claim.
class DrainRace {
 public:
  static constexpr std::uint64_t kPerSender = 3;

  /// The receiver: takes until the mailbox is closed and drained.
  void receive() {
    for (;;) {
      const std::vector<Message> batch = mailbox.pop_all_ready();
      if (batch.empty()) return;
      apply(batch);
    }
  }

  /// A producer: pushes kPerSender messages from `from`, numbered in order.
  void push_from(std::uint32_t from) {
    for (std::uint64_t seq = 1; seq <= kPerSender; ++seq) {
      mailbox.push(make_message(from, 1, seq));
    }
  }

  /// The node's blocked call, as ThreadCluster::await() runs it: unless
  /// granted already, it enlists under the shard lock, then applies what
  /// it takes until a take comes back empty, which only its grant's signal
  /// or the close may cause.
  void drain_as_caller() {
    std::optional<std::uint64_t> generation;
    {
      MutexLock guard(shard_);
      if (granted_) return;
      generation = mailbox.enlist_caller();
    }
    ASSERT_TRUE(generation.has_value());
    for (std::vector<Message> batch = mailbox.take_for_caller(*generation);
         !batch.empty(); batch = mailbox.take_for_caller(*generation)) {
      apply(batch);
    }
    MutexLock guard(shard_);
    EXPECT_TRUE(granted_ || closed_)
        << "the caller returned with no signal and no close";
  }

  /// The caller's grant as a message: a plain push, applied by whichever
  /// thread drains.
  void push_grant() { mailbox.push(make_message(kGranter, 1, 1)); }

  /// Applies the caller's grant, as Shard::granted() does: under the shard
  /// lock, it records the grant and signals the caller.
  void grant() {
    MutexLock guard(shard_);
    granted_ = true;
    mailbox.signal_caller();
  }

  void close() {
    closed_ = true;
    mailbox.close();
  }

  /// Blocks until `count` messages were applied. A message left queued
  /// with nobody draining it strands this wait, and the explorer proves
  /// the deadlock.
  void await_applied(std::size_t count) {
    MutexLock guard(mutex_);
    while (applied_.size() < count) cv_.wait(mutex_);
  }

  /// Every message the mailbox accepted was applied once, each sender's in
  /// its order, and none is left queued.
  void check() {
    MutexLock guard(mutex_);
    EXPECT_EQ(applied_.size(), mailbox.pushed());
    EXPECT_EQ(mailbox.size(), 0u);
    std::map<std::uint32_t, std::uint64_t> last_seq;
    for (const Message& message : applied_) {
      const std::uint64_t seq =
          std::get<proto::NaimiRequest>(message.payload).seq;
      std::uint64_t& last = last_seq[message.from.value()];
      EXPECT_GT(seq, last) << "sender " << message.from.value()
                           << ": message duplicated or out of order";
      last = seq;
    }
  }

  transport::Mailbox mailbox;

 private:
  static constexpr std::uint32_t kGranter = 3;

  void apply(const std::vector<Message>& batch) {
    EXPECT_EQ(appliers_.fetch_add(1), 0) << "two threads drain one mailbox";
    sched::yield_point("test.apply");
    {
      MutexLock guard(mutex_);
      applied_.insert(applied_.end(), batch.begin(), batch.end());
      cv_.notify_all();
    }
    for (const Message& message : batch) {
      if (message.from.value() == kGranter) grant();
    }
    appliers_.fetch_sub(1);
  }

  std::atomic<int> appliers_{0};
  std::atomic<bool> closed_{false};
  /// Stands in for the caller's shard lock, and its grant for the grant
  /// set the call's predicate reads.
  Mutex shard_;
  bool granted_ HLOCK_GUARDED_BY(shard_) = false;
  Mutex mutex_;
  CondVar cv_;
  std::vector<Message> applied_ HLOCK_GUARDED_BY(mutex_);
};

// A blocked caller enlisted on the mailbox: pushes that find nobody
// draining wake it instead of the receiver, it gives the claim back once
// its grant — applied by whichever thread drains — signals it, and the
// receiver takes what is left.
TEST(SchedExploration, CallerDrainLosesNothing) {
  sched_test::explore([] {
    DrainRace race;
    sched::Thread receiver("receiver", [&race] { race.receive(); });
    sched::Thread caller("caller", [&race] { race.drain_as_caller(); });
    sched::Thread producer0("producer-0", [&race] { race.push_from(0); });
    sched::Thread producer2("producer-2", [&race] { race.push_from(2); });
    sched::Thread granter("granter", [&race] { race.push_grant(); });
    producer0.join();
    producer2.join();
    granter.join();
    caller.join();
    race.await_applied(2 * DrainRace::kPerSender + 1);
    race.close();
    receiver.join();
    race.check();
  });
}

// A grant applied on another thread, with its signal, and the close race
// the caller's enlistment, takes and give-back: the caller returns on
// whichever comes first, and the receiver sees the mailbox drained.
TEST(SchedExploration, CallerRacesASignalAndTheClose) {
  sched_test::explore([] {
    DrainRace race;
    sched::Thread receiver("receiver", [&race] { race.receive(); });
    sched::Thread caller("caller", [&race] { race.drain_as_caller(); });
    sched::Thread producer0("producer-0", [&race] { race.push_from(0); });
    sched::Thread producer2("producer-2", [&race] { race.push_from(2); });
    sched::Thread signaller("signaller", [&race] { race.grant(); });
    sched::yield_point("test.before-close");
    race.close();
    producer0.join();
    producer2.join();
    signaller.join();
    caller.join();
    receiver.join();
    race.check();
  });
}

// The caller finds its inbox empty and spins before it parks. A push, its
// grant's signal or the close may slip in at the spin's schedule point,
// before the caller re-takes the mutex or after it parked; whichever it
// sees, it takes the push or returns, and the receiver drains the rest.
// The spin's timed part has no sync points, so a seed replays to the same
// fingerprint: two in-process replays of a seed whose schedule passes the
// spin must agree.
TEST(SchedExploration, CallerSpinRacesPushSignalAndClose) {
  const auto body = [] {
    DrainRace race;
    sched::Thread receiver("receiver", [&race] { race.receive(); });
    sched::Thread caller("caller", [&race] { race.drain_as_caller(); });
    sched::Thread producer("producer", [&race] { race.push_from(0); });
    sched::Thread signaller("signaller", [&race] { race.grant(); });
    sched::yield_point("test.before-close");
    race.close();
    producer.join();
    signaller.join();
    caller.join();
    receiver.join();
    race.check();
  };
  sched_test::ExploreOptions explore_options;
  explore_options.seeds = 32;
  sched_test::explore(body, explore_options);
  // The replays run in this process, where a deadlock would end it.
  if (::testing::Test::HasFailure()) return;

  const auto replay = [&body](std::uint64_t seed) {
    sched::ExplorerOptions options;
    options.seed = seed;
    sched::Explorer explorer{options};
    explorer.run(body);
    bool spun = false;
    for (const std::string& line : explorer.schedule()) {
      spun = spun || line.ends_with("yield mailbox.caller-spin");
    }
    return std::pair{explorer.schedule_fingerprint(), spun};
  };
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const auto [fingerprint, spun] = replay(seed);
    if (!spun) continue;
    EXPECT_EQ(replay(seed).first, fingerprint)
        << "seed " << seed << " replayed to another schedule";
    return;
  }
  ADD_FAILURE() << "no schedule in seeds 1..32 passed the caller's spin";
}

// Node 1's call waits on its inbox while node 0's unlock grants it and a
// crash-stop of node 1 races the grant; either ends the wait, and the
// teardown follows. Heartbeats are a minute apart, so only the grant, the
// crash-stop's signal or the teardown can return the call.
TEST(SchedExploration, InboxWaiterRacesItsGrantACrashStopAndShutdown) {
  sched_test::ExploreOptions options;
  options.seeds = 8;
  sched_test::explore(
      [] {
        runtime::ThreadClusterOptions cluster_options;
        cluster_options.node_count = 2;
        cluster_options.recovery.enabled = true;
        cluster_options.recovery.heartbeat_interval = SimTime::ms(60'000);
        cluster_options.recovery.suspect_after = SimTime::ms(120'000);
        runtime::ThreadCluster cluster{cluster_options};
        cluster.lock(NodeId{0}, LockId{7}, LockMode::kW);
        sched::Thread client("client", [&cluster] {
          try {
            cluster.lock(NodeId{1}, LockId{7}, LockMode::kW);
          } catch (const UsageError&) {
            // The crash-stop came before the call.
          }
        });
        sched::yield_point("test.before-unlock");
        cluster.unlock(NodeId{0}, LockId{7});
        sched::yield_point("test.before-crash");
        cluster.crash_stop(NodeId{1});
        client.join();
      },
      options);
}

// Two calls block on one node, on different shards: one waits on the
// inbox, the other on its shard's condvar. Each must return on its own
// grant, whichever thread applies it, before the teardown.
TEST(SchedExploration, TwoBlockedCallsOnANodeAndShutdown) {
  sched_test::ExploreOptions options;
  options.seeds = 8;
  sched_test::explore(
      [] {
        runtime::ThreadClusterOptions cluster_options;
        cluster_options.node_count = 2;
        runtime::ThreadCluster cluster{cluster_options};
        cluster.lock(NodeId{0}, LockId{0}, LockMode::kW);
        cluster.lock(NodeId{0}, LockId{1}, LockMode::kW);
        const auto call = [&cluster](LockId lock) {
          cluster.lock(NodeId{1}, lock, LockMode::kW);
          cluster.unlock(NodeId{1}, lock);
        };
        sched::Thread first("first", [&call] { call(LockId{0}); });
        sched::Thread second("second", [&call] { call(LockId{1}); });
        cluster.unlock(NodeId{0}, LockId{1});
        sched::yield_point("test.between-unlocks");
        cluster.unlock(NodeId{0}, LockId{0});
        first.join();
        second.join();
      },
      options);
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
