// Integration tests of the threaded runtime: real threads, real message
// races, blocking client API. Mutual exclusion is validated the classic
// way — a shared plain counter that only stays consistent if the protocol
// serializes writers.
#include "runtime/thread_cluster.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <thread>
#include <vector>

#include "tests/runtime/probes.hpp"
#include "util/check.hpp"

namespace hlock::runtime {
namespace {

using proto::LockId;
using proto::LockMode;
using proto::NodeId;
using namespace std::chrono_literals;

ThreadClusterOptions options_for(Protocol protocol, std::size_t n) {
  ThreadClusterOptions options;
  options.node_count = n;
  options.protocol = protocol;
  options.seed = 42;
  return options;
}

TEST(ThreadCluster, DestructorWakesAndDrainsBlockedClients) {
  // Regression: teardown used to flip the stop flag without the node
  // mutexes and notify only after joining, so a client between its
  // predicate check and its wait could sleep forever — and a woken client
  // could race the destructor freeing node state.
  for (int round = 0; round < 10; ++round) {
    auto cluster = std::make_unique<ThreadCluster>(
        options_for(Protocol::kHierarchical, 2));
    cluster->lock(NodeId{0}, LockId{0}, LockMode::kW);
    std::atomic<bool> entered{false};
    // Raw pointer: the client must not touch the unique_ptr itself, which
    // the main thread concurrently reset()s.
    ThreadCluster* raw = cluster.get();
    std::thread blocked([&entered, raw] {
      entered = true;
      // Blocks forever: node 0 never releases. Only teardown can wake it.
      raw->lock(NodeId{1}, LockId{0}, LockMode::kW);
    });
    while (!entered) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    cluster.reset();  // must wake the blocked client, then drain it
    blocked.join();
  }
}

TEST(ThreadCluster, SingleNodeLockUnlock) {
  ThreadCluster cluster{options_for(Protocol::kHierarchical, 1)};
  cluster.lock(NodeId{0}, LockId{0}, LockMode::kW);
  EXPECT_TRUE(cluster.holds(NodeId{0}, LockId{0}));
  cluster.unlock(NodeId{0}, LockId{0});
  EXPECT_FALSE(cluster.holds(NodeId{0}, LockId{0}));
  EXPECT_EQ(cluster.messages_sent(), 0u);
}

TEST(ThreadCluster, ExclusiveCounterUnderContention) {
  constexpr std::size_t kNodes = 6;
  constexpr int kIncrementsPerNode = 40;
  ThreadCluster cluster{options_for(Protocol::kHierarchical, kNodes)};
  const LockId lock{0};

  // Deliberately NOT atomic: the lock must provide the exclusion.
  long counter = 0;

  std::vector<std::thread> workers;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    workers.emplace_back([&cluster, &counter, i, lock] {
      for (int k = 0; k < kIncrementsPerNode; ++k) {
        cluster.lock(NodeId{i}, lock, LockMode::kW);
        const long snapshot = counter;
        std::this_thread::yield();
        counter = snapshot + 1;
        cluster.unlock(NodeId{i}, lock);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(counter, static_cast<long>(kNodes) * kIncrementsPerNode);
}

TEST(ThreadCluster, EventSinkInstalledAndSwappedDuringTraffic) {
  // Regression: set_event_sink() used to write the sink slot unguarded
  // while receiver threads read it inside apply(), so installing or
  // swapping a sink with operations in flight was a data race (TSan) and a
  // capability-analysis error once the slot was annotated. Now the slot is
  // guarded by the same mutex that serializes sink calls, making mid-run
  // installs legal — which this test does continuously.
  constexpr std::size_t kNodes = 4;
  constexpr int kOpsPerNode = 30;
  ThreadClusterOptions options = options_for(Protocol::kHierarchical, kNodes);
  options.hier_config.trace_events = true;
  ThreadCluster cluster{options};
  const LockId lock{0};

  std::atomic<std::uint64_t> sunk{0};
  std::atomic<bool> done{false};
  std::thread installer([&cluster, &sunk, &done] {
    while (!done.load(std::memory_order_relaxed)) {
      cluster.set_event_sink(
          [&sunk](const trace::TraceEvent&) { sunk.fetch_add(1); });
      std::this_thread::yield();
      cluster.set_event_sink(nullptr);  // and uninstall mid-traffic too
      std::this_thread::yield();
    }
    // Leave a sink installed for the tail of the run.
    cluster.set_event_sink(
        [&sunk](const trace::TraceEvent&) { sunk.fetch_add(1); });
  });

  std::vector<std::thread> workers;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    workers.emplace_back([&cluster, i, lock] {
      for (int k = 0; k < kOpsPerNode; ++k) {
        cluster.lock(NodeId{i}, lock, LockMode::kW);
        cluster.unlock(NodeId{i}, lock);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  done = true;
  installer.join();

  // How many events land is a race by design; that nothing tore or leaked
  // is the assertion (TSan/ASan enforce it), plus basic liveness:
  EXPECT_EQ(cluster.receiver_errors(), 0u);
}

TEST(ThreadCluster, ReadersOverlapWritersExclude) {
  constexpr std::size_t kNodes = 5;
  ThreadCluster cluster{options_for(Protocol::kHierarchical, kNodes)};
  const LockId lock{0};

  std::atomic<int> readers_inside{0};
  std::atomic<int> writers_inside{0};
  std::atomic<int> max_readers{0};
  std::atomic<bool> violation{false};

  // Every worker starts its loop at once: thread start-up can take longer
  // than a whole fast run, and a worker that finishes before the next one
  // starts overlaps nobody.
  std::latch start{kNodes};
  std::vector<std::thread> workers;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    workers.emplace_back([&, i] {
      start.arrive_and_wait();
      for (int k = 0; k < 30; ++k) {
        const bool writer = (k % 10) == static_cast<int>(i % 10);
        const LockMode mode = writer ? LockMode::kW : LockMode::kR;
        cluster.lock(NodeId{i}, lock, mode);
        if (writer) {
          if (readers_inside.load() != 0 ||
              writers_inside.fetch_add(1) != 0) {
            violation = true;
          }
          std::this_thread::yield();
          writers_inside.fetch_sub(1);
        } else {
          if (writers_inside.load() != 0) violation = true;
          const int now = readers_inside.fetch_add(1) + 1;
          int expected = max_readers.load();
          while (now > expected &&
                 !max_readers.compare_exchange_weak(expected, now)) {
          }
          std::this_thread::yield();
          readers_inside.fetch_sub(1);
        }
        cluster.unlock(NodeId{i}, lock);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_FALSE(violation.load()) << "readers and writers overlapped";
  EXPECT_GT(max_readers.load(), 1) << "readers never actually overlapped";
}

TEST(ThreadCluster, UpgradePreservesReadToWriteAtomicity) {
  ThreadCluster cluster{options_for(Protocol::kHierarchical, 3)};
  const LockId lock{0};
  long value = 100;

  // Node 1 performs a read-modify-write under U->W; node 2 tries to write
  // in between — it must not interleave.
  std::thread upgrader([&] {
    cluster.lock(NodeId{1}, lock, LockMode::kU);
    const long read = value;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    cluster.upgrade(NodeId{1}, lock);
    value = read + 1;
    cluster.unlock(NodeId{1}, lock);
  });
  std::thread writer([&] {
    cluster.lock(NodeId{2}, lock, LockMode::kW);
    value += 1000;
    cluster.unlock(NodeId{2}, lock);
  });
  upgrader.join();
  writer.join();
  EXPECT_EQ(value, 1101) << "the upgrade lost an update";
}

TEST(ThreadCluster, NaimiCounterUnderContention) {
  constexpr std::size_t kNodes = 4;
  ThreadCluster cluster{options_for(Protocol::kNaimi, kNodes)};
  const LockId lock{0};
  long counter = 0;
  std::vector<std::thread> workers;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    workers.emplace_back([&cluster, &counter, i, lock] {
      for (int k = 0; k < 50; ++k) {
        cluster.lock(NodeId{i}, lock, LockMode::kW);
        const long snapshot = counter;
        std::this_thread::yield();
        counter = snapshot + 1;
        cluster.unlock(NodeId{i}, lock);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(counter, static_cast<long>(kNodes) * 50);
}

TEST(ThreadCluster, ManyLocksInParallel) {
  constexpr std::size_t kNodes = 4;
  ThreadCluster cluster{options_for(Protocol::kHierarchical, kNodes)};
  std::vector<std::thread> workers;
  std::vector<long> counters(8, 0);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    workers.emplace_back([&cluster, &counters, i] {
      for (int k = 0; k < 40; ++k) {
        const LockId lock{(static_cast<std::uint32_t>(k) + i) % 8};
        cluster.lock(NodeId{i}, lock, LockMode::kW);
        ++counters[lock.value()];
        cluster.unlock(NodeId{i}, lock);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  long total = 0;
  for (long c : counters) total += c;
  EXPECT_EQ(total, static_cast<long>(kNodes) * 40);
}

TEST(ThreadCluster, DefaultsToShardedEnginesAndHonorsOverrides) {
  ThreadCluster cluster{options_for(Protocol::kHierarchical, 2)};
  EXPECT_EQ(cluster.engine_shards(), kDefaultEngineShards);
}

/// Shard-correctness workload: many locks striped across shards, every
/// counter protected only by its lock. Run with recovery off (sharded
/// engines) and on (one shard per node), so both routings prove the same
/// exclusion.
void run_sharded_counters(bool recovery) {
  constexpr std::size_t kNodes = 4;
  constexpr int kOpsPerNode = 25;
  constexpr std::uint32_t kLocks = 16;  // spans shard indices 0..7 twice
  ThreadClusterOptions options = options_for(Protocol::kHierarchical, kNodes);
  options.recovery.enabled = recovery;
  ThreadCluster cluster{options};

  std::vector<long> counters(kLocks, 0);  // each guarded by its lock alone
  std::vector<std::thread> workers;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    workers.emplace_back([&cluster, &counters, i] {
      for (int k = 0; k < kOpsPerNode; ++k) {
        const LockId lock{(static_cast<std::uint32_t>(k) * 5 + i) % kLocks};
        cluster.lock(NodeId{i}, lock, LockMode::kW);
        const long snapshot = counters[lock.value()];
        std::this_thread::yield();
        counters[lock.value()] = snapshot + 1;
        cluster.unlock(NodeId{i}, lock);
      }
    });
  }
  for (std::thread& t : workers) t.join();
  long total = 0;
  for (long c : counters) total += c;
  EXPECT_EQ(total, static_cast<long>(kNodes) * kOpsPerNode)
      << "lost increments with recovery=" << recovery;
  EXPECT_EQ(cluster.receiver_errors(), 0u);
}

TEST(ThreadCluster, ShardedEnginesPreserveExclusionAcrossManyLocks) {
  run_sharded_counters(/*recovery=*/false);
}

TEST(ThreadCluster, SingleShardLegacyModeStillCorrect) {
  run_sharded_counters(/*recovery=*/true);
}

TEST(ThreadCluster, CountsEncodedWireBytes) {
  ThreadCluster cluster{options_for(Protocol::kHierarchical, 2)};
  cluster.lock(NodeId{1}, LockId{0}, LockMode::kW);
  cluster.unlock(NodeId{1}, LockId{0});
  EXPECT_GT(cluster.messages_sent(), 0u);
  // Every message is >= the 34-byte codec minimum once encoded.
  EXPECT_GE(cluster.bytes_sent(), cluster.messages_sent() * 34u);
}

TEST(ThreadCluster, WithInjectedLatency) {
  ThreadClusterOptions options = options_for(Protocol::kHierarchical, 3);
  options.faults.delay_probability = 1.0;
  options.faults.delay = DurationDist::uniform(SimTime::us(200), 0.5);
  ThreadCluster cluster{options};
  long counter = 0;
  std::vector<std::thread> workers;
  for (std::uint32_t i = 0; i < 3; ++i) {
    workers.emplace_back([&cluster, &counter, i] {
      for (int k = 0; k < 10; ++k) {
        cluster.lock(NodeId{i}, LockId{0}, LockMode::kW);
        counter += 1;
        cluster.unlock(NodeId{i}, LockId{0});
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(counter, 30);
}

// ---- A blocked call drains its own node's inbox (docs/performance.md,
//      "Blocked calls drain their own inbox").

/// Which thread sank each enter-cs, which threads sank each node's events,
/// and which requests each node queued. Declared before the cluster whose
/// sink it is, so it outlives it.
class EventLog {
 public:
  ThreadCluster::EventSink sink() {
    return [this](trace::TraceEvent event) {
      const std::lock_guard<std::mutex> guard(mutex_);
      sank_[event.node.value()].insert(std::this_thread::get_id());
      if (event.kind == trace::EventKind::kQueue) {
        queued_.push_back({event.node, event.peer, event.lock});
      } else if (event.kind == trace::EventKind::kEnterCs) {
        entered_[{event.node.value(), event.lock.value()}] =
            std::this_thread::get_id();
      }
      cv_.notify_all();
    };
  }

  /// Waits up to a deadline until `at` queued `requester`'s request for
  /// `lock`; true once it has.
  bool await_queued(NodeId at, NodeId requester, LockId lock) {
    std::unique_lock<std::mutex> guard(mutex_);
    return cv_.wait_for(guard, 10s, [&] {
      for (const Queued& queued : queued_) {
        if (queued.at == at && queued.requester == requester &&
            queued.lock == lock) {
          return true;
        }
      }
      return false;
    });
  }

  /// The thread that sank `node`'s enter-cs on `lock` (a default id when
  /// none was sunk).
  std::thread::id entered_on(NodeId node, LockId lock) {
    const std::lock_guard<std::mutex> guard(mutex_);
    const auto it = entered_.find({node.value(), lock.value()});
    return it == entered_.end() ? std::thread::id{} : it->second;
  }

  /// The threads that sank any of `node`'s events.
  std::set<std::thread::id> sank(NodeId node) {
    const std::lock_guard<std::mutex> guard(mutex_);
    return sank_[node.value()];
  }

 private:
  struct Queued {
    NodeId at;
    NodeId requester;
    LockId lock;
  };

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Queued> queued_;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::thread::id>
      entered_;
  std::map<std::uint32_t, std::set<std::thread::id>> sank_;
};

ThreadClusterOptions traced_options(std::size_t n) {
  ThreadClusterOptions options = options_for(Protocol::kHierarchical, n);
  options.hier_config.trace_events = true;
  return options;
}

// Node 1's call blocks on the lock node 0 holds. Node 0's unlock pushes
// the token into node 1's idle inbox — at once, or from the wire of a
// fault plan — which wakes the blocked call, not node 1's receiver: the
// call applies its own grant on its own thread.
void grant_applied_on_the_blocked_calls_own_thread(
    const transport::FaultPlan& faults) {
  test::YieldGate gate{"thread_cluster.caller-drain"};
  {
    EventLog log;
    test::BlockedCall call;
    ThreadClusterOptions options = traced_options(2);
    options.faults = faults;
    ThreadCluster cluster{options};
    cluster.set_event_sink(log.sink());
    const LockId lock{0};
    cluster.lock(NodeId{0}, lock, LockMode::kW);
    call.start(cluster, NodeId{1}, lock, LockMode::kW);
    // The call waits on its inbox, and node 0 has queued its request.
    EXPECT_TRUE(gate.await_arrivals(1, 10s));
    ASSERT_TRUE(log.await_queued(NodeId{0}, NodeId{1}, lock));
    cluster.unlock(NodeId{0}, lock);
    ASSERT_TRUE(call.await_return(10s));
    EXPECT_EQ(log.entered_on(NodeId{1}, lock), call.id())
        << "node 1's grant was applied on another thread";
    const std::vector<std::thread::id> arrivals = gate.arrivals();
    EXPECT_TRUE(!arrivals.empty() && arrivals.front() == call.id())
        << "the first call to wait on node 1's inbox was not node 1's";
    cluster.unlock(NodeId{1}, lock);
  }
  EXPECT_EQ(gate.violation_count(), 0u);
}

TEST(ThreadClusterInboxWaiter, GrantIsAppliedOnTheBlockedCallsOwnThread) {
  grant_applied_on_the_blocked_calls_own_thread(transport::FaultPlan{});
  transport::FaultPlan delayed;
  delayed.delay_probability = 1.0;
  delayed.delay = DurationDist::constant(SimTime::us(200));
  grant_applied_on_the_blocked_calls_own_thread(delayed);
}

/// Node 1 blocks on `first` and `second` from two threads while node 0
/// holds both; node 0 releases `released_first`, then the other. Each call
/// returns on its own grant — one waits on node 1's inbox, the other on
/// its shard's condvar, whichever enlisted first.
void two_blocked_calls(LockId first, LockId second, LockId released_first) {
  EventLog log;
  test::BlockedCall first_call;
  test::BlockedCall second_call;
  ThreadCluster cluster{traced_options(2)};
  cluster.set_event_sink(log.sink());
  cluster.lock(NodeId{0}, first, LockMode::kW);
  cluster.lock(NodeId{0}, second, LockMode::kW);
  first_call.start(cluster, NodeId{1}, first, LockMode::kW);
  second_call.start(cluster, NodeId{1}, second, LockMode::kW);
  ASSERT_TRUE(log.await_queued(NodeId{0}, NodeId{1}, first));
  ASSERT_TRUE(log.await_queued(NodeId{0}, NodeId{1}, second));
  const bool first_goes_first = released_first == first;
  test::BlockedCall& early = first_goes_first ? first_call : second_call;
  test::BlockedCall& late = first_goes_first ? second_call : first_call;
  const LockId released_last = first_goes_first ? second : first;

  cluster.unlock(NodeId{0}, released_first);
  ASSERT_TRUE(early.await_return(10s));
  EXPECT_FALSE(late.await_return(20ms)) << "returned without its grant";
  EXPECT_TRUE(cluster.holds(NodeId{1}, released_first));
  EXPECT_FALSE(cluster.holds(NodeId{1}, released_last));
  cluster.unlock(NodeId{0}, released_last);
  ASSERT_TRUE(late.await_return(10s));
  EXPECT_TRUE(cluster.holds(NodeId{1}, released_last));
  cluster.unlock(NodeId{1}, first);
  cluster.unlock(NodeId{1}, second);
  EXPECT_EQ(cluster.receiver_errors(), 0u);
}

TEST(ThreadClusterInboxWaiter, TwoCallsOnOneShardEachReturnOnTheirOwnGrant) {
  // With kDefaultEngineShards = 8, locks 0 and 8 share shard 0.
  for (const LockId released_first : {LockId{0}, LockId{8}}) {
    two_blocked_calls(LockId{0}, LockId{8}, released_first);
  }
}

TEST(ThreadClusterInboxWaiter, TwoCallsOnTwoShardsEachReturnOnTheirOwnGrant) {
  for (const LockId released_first : {LockId{0}, LockId{1}}) {
    two_blocked_calls(LockId{0}, LockId{1}, released_first);
  }
}

// A node's steps run only on its own threads: its receiver and the
// application threads calling it. Client thread i calls only node i, over
// four locks in mixed modes with upgrades, so requests are forwarded and
// copysets form; the threads that sank one node's events are then none of
// another's.
TEST(ThreadCluster, EachNodesStepsRunOnlyOnItsOwnThreads) {
  constexpr std::uint32_t kNodes = 3;
  constexpr int kOpsPerClient = 100;
  static constexpr LockMode kModes[] = {LockMode::kIR, LockMode::kR,
                                        LockMode::kU, LockMode::kIW,
                                        LockMode::kW};
  EventLog log;
  {
    ThreadCluster cluster{traced_options(kNodes)};
    cluster.set_event_sink(log.sink());
    std::vector<std::thread> clients;
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      clients.emplace_back([&cluster, i] {
        std::mt19937 rng(i + 1);
        const NodeId node{i};
        for (int op = 0; op < kOpsPerClient; ++op) {
          const LockId lock{static_cast<std::uint32_t>(rng() % 4)};
          const LockMode mode = kModes[rng() % std::size(kModes)];
          cluster.lock(node, lock, mode);
          if (mode == LockMode::kU && rng() % 2 == 0) {
            cluster.upgrade(node, lock);
          }
          cluster.unlock(node, lock);
        }
      });
    }
    for (std::thread& client : clients) client.join();
    EXPECT_EQ(cluster.receiver_errors(), 0u);
  }
  std::vector<std::set<std::thread::id>> sank;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    sank.push_back(log.sank(NodeId{i}));
    EXPECT_FALSE(sank.back().empty()) << "node " << i << " sank no event";
  }
  for (std::uint32_t a = 0; a < kNodes; ++a) {
    for (std::uint32_t b = a + 1; b < kNodes; ++b) {
      for (const std::thread::id thread : sank[a]) {
        EXPECT_EQ(sank[b].count(thread), 0u)
            << "one thread sank events of nodes " << a << " and " << b;
      }
    }
  }
}

// The cluster tears down while node 1's call, granted, still holds the
// drain claim of its inbox: the gate parks it between the dispatch of its
// grant and the take that gives the claim back. The teardown must wait
// for the give-back, and the call must return.
TEST(ThreadClusterInboxWaiter, TeardownWhileTheInboxWaiterDrains) {
  test::YieldGate gate{"thread_cluster.caller-drain", /*park_at=*/2};
  {
    EventLog log;
    test::BlockedCall call;
    std::thread teardown;
    auto cluster = std::make_unique<ThreadCluster>(traced_options(2));
    cluster->set_event_sink(log.sink());
    const LockId lock{0};
    cluster->lock(NodeId{0}, lock, LockMode::kW);
    call.start(*cluster, NodeId{1}, lock, LockMode::kW);
    EXPECT_TRUE(gate.await_arrivals(1, 10s));
    ASSERT_TRUE(log.await_queued(NodeId{0}, NodeId{1}, lock));
    cluster->unlock(NodeId{0}, lock);
    ASSERT_TRUE(gate.await_parked(10s));
    EXPECT_EQ(log.entered_on(NodeId{1}, lock), call.id());
    teardown = std::thread([&cluster] { cluster.reset(); });
    std::this_thread::sleep_for(20ms);  // the teardown waits on the claim
    gate.release();
    teardown.join();
    EXPECT_TRUE(call.await_return(10s));
  }
  EXPECT_EQ(gate.violation_count(), 0u);
}

}  // namespace
}  // namespace hlock::runtime
