// Crash-stop recovery on the threaded runtime (docs/recovery.md): kill the
// token holder with crash_stop(), verify the survivors' heartbeat detector
// notices, a fenced epoch is minted and a blocked waiter on a survivor is
// granted. Real threads and real time — the detector timings are kept
// generous so loaded CI machines do not false-suspect live nodes.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/thread_cluster.hpp"
#include "telemetry/registry.hpp"
#include "tests/runtime/probes.hpp"
#include "util/check.hpp"

namespace hlock {
namespace {

using proto::LockId;
using proto::LockMode;
using proto::NodeId;
using runtime::Protocol;
using runtime::ThreadCluster;
using runtime::ThreadClusterOptions;

ThreadClusterOptions recovery_options(Protocol protocol) {
  ThreadClusterOptions options;
  options.node_count = 3;
  options.protocol = protocol;
  options.recovery.enabled = true;
  options.recovery.heartbeat_interval = SimTime::ms(50);
  options.recovery.suspect_after = SimTime::ms(1000);
  return options;
}

/// `node`'s protocol messages sent so far, over every kind
/// (hlock_messages_sent_total).
double messages_sent_by(const telemetry::Registry& registry, NodeId node) {
  const std::string label = "node=\"" + std::to_string(node.value()) + "\"";
  double sent = 0;
  for (const telemetry::Sample& sample : registry.snapshot().samples) {
    if (sample.name.starts_with("hlock_messages_sent_total{") &&
        sample.name.find(label) != std::string::npos) {
      sent += sample.value;
    }
  }
  return sent;
}

/// Waits until `done()` holds, or ends the process: a wedged client call
/// can be neither joined nor woken without tearing the cluster down under
/// it.
template <typename Done>
void await_or_exit(std::mutex& mutex, std::condition_variable& cv,
                   std::chrono::seconds timeout, const char* failure,
                   Done done) {
  std::unique_lock<std::mutex> lock(mutex);
  if (!cv.wait_for(lock, timeout, done)) {
    std::fputs(failure, stderr);
    std::_Exit(1);
  }
}

TEST(RecoveryThread, HierCrashedHolderIsFencedOut) {
  telemetry::Registry registry;
  ThreadClusterOptions options = recovery_options(Protocol::kHierarchical);
  options.metrics = &registry;
  ThreadCluster cluster(options);

  const LockId lock{5};
  cluster.lock(NodeId{1}, lock, LockMode::kW);
  EXPECT_TRUE(cluster.holds(NodeId{1}, lock));
  cluster.crash_stop(NodeId{1});
  EXPECT_FALSE(cluster.alive(NodeId{1}));

  // Blocks across the outage: queued toward the dead holder, reconstructed
  // by the fence, granted at the regenerated root.
  cluster.lock(NodeId{2}, lock, LockMode::kW);
  EXPECT_TRUE(cluster.holds(NodeId{2}, lock));
  cluster.unlock(NodeId{2}, lock);

  EXPECT_GT(cluster.recovery_epoch_of(NodeId{0}), 0u);
  EXPECT_EQ(cluster.recovery_epoch_of(NodeId{2}),
            cluster.recovery_epoch_of(NodeId{0}));
  EXPECT_GE(cluster.recovery_counters(NodeId{0}).recoveries, 1u);
  EXPECT_GE(cluster.recovery_counters(NodeId{2}).recoveries, 1u);

  // The telemetry series moved with the recovery.
  EXPECT_GT(registry.gauge("hlock_epoch{node=\"0\"}").value(), 0.0);
}

TEST(RecoveryThread, NaimiCrashedHolderIsFencedOut) {
  ThreadCluster cluster(recovery_options(Protocol::kNaimi));
  const LockId lock{9};
  cluster.lock(NodeId{1}, lock, LockMode::kW);
  cluster.crash_stop(NodeId{1});
  cluster.lock(NodeId{2}, lock, LockMode::kW);
  EXPECT_TRUE(cluster.holds(NodeId{2}, lock));
  cluster.unlock(NodeId{2}, lock);
  EXPECT_GT(cluster.recovery_epoch_of(NodeId{2}), 0u);
}

TEST(RecoveryThread, OperationsOnCrashedNodeThrow) {
  ThreadCluster cluster(recovery_options(Protocol::kHierarchical));
  cluster.crash_stop(NodeId{1});
  EXPECT_THROW(cluster.lock(NodeId{1}, LockId{1}, LockMode::kR), UsageError);
  EXPECT_THROW(cluster.unlock(NodeId{1}, LockId{1}), UsageError);
}

TEST(RecoveryThread, CrashStopRequiresRecovery) {
  ThreadClusterOptions options;
  options.node_count = 2;
  ThreadCluster cluster(options);
  EXPECT_THROW(cluster.crash_stop(NodeId{1}), UsageError);
}

TEST(RecoveryThread, RecoveryForcesSingleShard) {
  ThreadCluster cluster(recovery_options(Protocol::kHierarchical));
  EXPECT_EQ(cluster.engine_shards(), 1u);
}

// A holder of several locks crash-stops. Each survivor then halts and
// reports every lock to the coordinator, and the coordinator fences every
// lock at each survivor: runs of same-destination messages, one per lock.
// Both survivors must regain every lock.
class RecoveryThreadTransport
    : public ::testing::TestWithParam<runtime::TransportKind> {};

INSTANTIATE_TEST_SUITE_P(
    Transports, RecoveryThreadTransport,
    ::testing::Values(runtime::TransportKind::kInProc,
                      runtime::TransportKind::kTcp),
    [](const ::testing::TestParamInfo<runtime::TransportKind>& param_info) {
      return std::string{param_info.param == runtime::TransportKind::kTcp
                             ? "tcp"
                             : "inproc"};
    });

TEST_P(RecoveryThreadTransport, HolderOfManyLocksIsFencedOutOfEach) {
  constexpr std::uint32_t kLocks = 8;
  telemetry::Registry registry;
  ThreadClusterOptions options = recovery_options(Protocol::kHierarchical);
  options.transport = GetParam();
  options.metrics = &registry;
  ThreadCluster cluster(options);

  for (std::uint32_t node = 0; node < 3; ++node) {
    for (std::uint32_t lock = 0; lock < kLocks; ++lock) {
      cluster.lock(NodeId{node}, LockId{lock}, LockMode::kW);
      cluster.unlock(NodeId{node}, LockId{lock});
    }
  }
  for (std::uint32_t lock = 0; lock < kLocks; ++lock) {
    cluster.lock(NodeId{1}, LockId{lock}, LockMode::kW);
  }
  cluster.crash_stop(NodeId{1});
  const double sent_at_crash = messages_sent_by(registry, NodeId{1});

  // Client threads and a timed wait: a wedged recovery fails the test
  // instead of hanging it.
  std::mutex mutex;
  std::condition_variable done_cv;
  int done = 0;
  std::vector<std::thread> clients;
  for (const std::uint32_t node : {0u, 2u}) {
    clients.emplace_back([&, node] {
      for (std::uint32_t lock = 0; lock < kLocks; ++lock) {
        cluster.lock(NodeId{node}, LockId{lock}, LockMode::kW);
        cluster.unlock(NodeId{node}, LockId{lock});
      }
      const std::lock_guard<std::mutex> guard(mutex);
      ++done;
      done_cv.notify_all();
    });
  }
  await_or_exit(mutex, done_cv, std::chrono::seconds(30),
                "survivors did not regain every lock within 30 s\n",
                [&done] { return done == 2; });
  for (std::thread& client : clients) client.join();

  EXPECT_GT(cluster.recovery_epoch_of(NodeId{0}), 0u);
  EXPECT_GT(cluster.recovery_epoch_of(NodeId{2}), 0u);
  EXPECT_EQ(cluster.receiver_errors(), 0u);
  // The crashed node sent nothing more: no thread applied a message
  // there after the crash.
  EXPECT_EQ(messages_sent_by(registry, NodeId{1}), sent_at_crash);
}

// Node 1's call blocks on the lock node 0 holds, waiting on node 1's inbox
// rather than on its shard's condvar. crash_stop(node 1) must end that
// wait too: no heartbeat (60 s) or grant would.
TEST(RecoveryThread, CrashStopReturnsTheCallWaitingOnItsInbox) {
  test::YieldGate gate{"thread_cluster.caller-drain"};
  {
    test::BlockedCall call;
    ThreadClusterOptions options = recovery_options(Protocol::kHierarchical);
    options.recovery.heartbeat_interval = SimTime::ms(60'000);
    options.recovery.suspect_after = SimTime::ms(120'000);
    ThreadCluster cluster(options);
    const LockId lock{4};
    cluster.lock(NodeId{0}, lock, LockMode::kW);
    call.start(cluster, NodeId{1}, lock, LockMode::kW);
    ASSERT_TRUE(gate.await_arrivals(1, std::chrono::seconds(10)));
    cluster.crash_stop(NodeId{1});
    EXPECT_TRUE(call.await_return(std::chrono::seconds(10)))
        << "crash_stop() left node 1's call waiting on its inbox";
    EXPECT_FALSE(cluster.holds(NodeId{1}, lock));
  }
  EXPECT_EQ(gate.violation_count(), 0u);
}

}  // namespace
}  // namespace hlock
