// Integration tests of the threaded runtime: real threads, real message
// races, blocking client API. Mutual exclusion is validated the classic
// way — a shared plain counter that only stays consistent if the protocol
// serializes writers.
#include "runtime/thread_cluster.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "util/check.hpp"

namespace hlock::runtime {
namespace {

using proto::LockId;
using proto::LockMode;
using proto::NodeId;

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

}  // namespace
}  // namespace hlock::runtime
