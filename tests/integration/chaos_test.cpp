// Failure-injection (chaos) tests. The protocol assumes reliable FIFO
// transport, so the simulator's unmasked message loss must never corrupt
// safety — it must instead wedge the run in a way the harness DETECTS; the
// Chaos tests verify the detectors, which every other test relies on for
// liveness checking. The ThreadChaos tests run a live cluster over the
// FaultyTransport, whose drops, delays and partitions only cost time on
// FIFO channels: the cluster must keep mutual exclusion and finish.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "lint/checker.hpp"
#include "runtime/invariants.hpp"
#include "runtime/sim_cluster.hpp"
#include "runtime/thread_cluster.hpp"
#include "util/check.hpp"
#include "workload/sim_driver.hpp"

namespace hlock::workload {
namespace {

using proto::LockId;
using runtime::Protocol;
using runtime::SimCluster;
using runtime::SimClusterOptions;

SimClusterOptions lossy_options(double loss, std::uint64_t seed) {
  SimClusterOptions options;
  options.node_count = 8;
  options.protocol = Protocol::kHierarchical;
  options.message_latency = DurationDist::uniform(SimTime::ms(1), 0.5);
  options.seed = seed;
  options.message_loss_probability = loss;
  return options;
}

WorkloadSpec chaos_spec(std::uint64_t seed) {
  WorkloadSpec spec;
  spec.variant = AppVariant::kHierarchical;
  spec.node_count = 8;
  spec.ops_per_node = 40;
  spec.cs_length = DurationDist::uniform(SimTime::ms(1), 0.5);
  spec.idle_time = DurationDist::uniform(SimTime::ms(4), 0.5);
  spec.seed = seed;
  return spec;
}

TEST(Chaos, MessageLossIsDetectedNotSilent) {
  // With 10% loss a run of this size loses some protocol message; the
  // driver must end with a detection (deadlock/lost request), never a
  // silent "pass" with fewer completed operations.
  int detections = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SimCluster cluster{lossy_options(0.10, seed)};
    SimWorkloadDriver driver{cluster, chaos_spec(seed)};
    try {
      driver.run();
      // A run can survive if every dropped message happened to be... none:
      // then all ops completed. Anything else must have thrown.
      EXPECT_EQ(driver.stats().ops, 8u * 40u)
          << "run 'completed' with missing operations";
    } catch (const InvariantError&) {
      ++detections;
    }
  }
  EXPECT_GT(detections, 0) << "10% loss never tripped the detectors";
}

TEST(Chaos, SafetyHoldsEvenUnderLoss) {
  // Loss may wedge progress but must never produce incompatible holders:
  // a lost GRANT/TOKEN means nobody holds, never two holders.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SimCluster cluster{lossy_options(0.15, seed)};
    SimWorkloadDriver driver{cluster, chaos_spec(seed)};
    const auto locks = all_locks(6);
    driver.set_periodic_check(256, [&] {
      const auto report = runtime::check_safety(cluster, locks);
      ASSERT_TRUE(report.ok()) << report.to_string();
    });
    try {
      driver.run();
    } catch (const InvariantError&) {
      // Expected: progress detection fired. Safety was asserted throughout.
    }
  }
}

TEST(Chaos, ZeroLossIsTheDefaultAndLossless) {
  SimClusterOptions options = lossy_options(0.0, 3);
  EXPECT_EQ(SimClusterOptions{}.message_loss_probability, 0.0);
  SimCluster cluster{options};
  SimWorkloadDriver driver{cluster, chaos_spec(3)};
  driver.run();
  EXPECT_EQ(driver.stats().ops, 8u * 40u);
}

TEST(Chaos, InvalidLossProbabilityRejected) {
  EXPECT_THROW(SimCluster{lossy_options(-0.1, 1)}, UsageError);
  EXPECT_THROW(SimCluster{lossy_options(1.5, 1)}, UsageError);
}

// ---------------------------------------------------------------------------
// Real-thread chaos: the FaultyTransport injects wire faults under a live
// ThreadCluster. Unlike the simulated loss above — whose point is that
// UNMASKED loss must be detected — a lost message here is retransmitted,
// and every channel stays FIFO, so the faults only cost time: the protocol
// must still reach mutual exclusion AND make progress while every fault
// class fires.

constexpr std::size_t kChaosNodes = 4;
constexpr int kChaosOps = 15;

runtime::ThreadClusterOptions chaos_options(
    const transport::FaultPlan& faults) {
  runtime::ThreadClusterOptions options;
  options.node_count = kChaosNodes;
  options.protocol = Protocol::kHierarchical;
  options.seed = faults.seed;
  options.faults = faults;
  return options;
}

/// Runs one round of the exclusive-counter workload on `cluster` and
/// asserts mutual exclusion (no lost increments) and full progress (all ops
/// completed).
void run_counter_round(runtime::ThreadCluster& cluster) {
  long counter = 0;  // deliberately unprotected: the lock is the protection
  std::vector<std::thread> workers;
  for (std::uint32_t i = 0; i < kChaosNodes; ++i) {
    workers.emplace_back([&cluster, &counter, i] {
      for (int k = 0; k < kChaosOps; ++k) {
        cluster.lock(NodeId{i}, LockId{0}, proto::LockMode::kW);
        const long snapshot = counter;
        std::this_thread::yield();
        counter = snapshot + 1;
        cluster.unlock(NodeId{i}, LockId{0});
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(counter, static_cast<long>(kChaosNodes) * kChaosOps)
      << "mutual exclusion or progress lost under faults";
  EXPECT_EQ(cluster.receiver_errors(), 0u);
}

/// The fault counters of `cluster`'s faulty transport.
stats::FaultCounterSnapshot fault_counters(
    const runtime::ThreadCluster& cluster) {
  const stats::FaultCounters* counters = cluster.fault_counters();
  EXPECT_NE(counters, nullptr);
  return counters->snapshot();
}

/// Runs one round of the workload on a fresh cluster under `faults`.
/// Returns the fault counters for per-class assertions.
stats::FaultCounterSnapshot run_chaos_cluster(
    const transport::FaultPlan& faults) {
  runtime::ThreadCluster cluster{chaos_options(faults)};
  run_counter_round(cluster);
  return fault_counters(cluster);
}

TEST(ThreadChaos, SurvivesWireDrops) {
  transport::FaultPlan plan;
  plan.seed = 21;
  plan.drop_probability = 0.15;
  plan.retransmit_delay = SimTime::ms(2);
  // A round whose acquisitions stay mostly local sends too few messages
  // to reach the seed's first drop; further rounds on the same cluster
  // keep drawing from the same per-channel streams until one fires.
  runtime::ThreadCluster cluster{chaos_options(plan)};
  stats::FaultCounterSnapshot counters;
  for (int round = 0; round < 20 && counters.drops == 0; ++round) {
    run_counter_round(cluster);
    counters = fault_counters(cluster);
  }
  EXPECT_GT(counters.drops, 0u) << "fault never fired; test proves nothing";
}

TEST(ThreadChaos, SurvivesPartitionThatHeals) {
  transport::FaultPlan plan;
  plan.seed = 24;
  // Cut the root's half away from the rest; heal while the workload runs.
  plan.partitions.push_back(
      {{NodeId{0}, NodeId{1}}, SimTime::ms(100)});
  const auto counters = run_chaos_cluster(plan);
  EXPECT_GT(counters.partition_drops, 0u)
      << "no message ever crossed the partition";
}

TEST(ThreadChaos, SurvivesEveryFaultClassAtOnce) {
  transport::FaultPlan plan;
  plan.seed = 25;
  plan.drop_probability = 0.08;
  plan.delay_probability = 0.1;
  plan.delay = DurationDist::uniform(SimTime::ms(1), 0.5);
  plan.retransmit_delay = SimTime::ms(1);
  plan.partitions.push_back({{NodeId{3}}, SimTime::ms(60)});
  const auto counters = run_chaos_cluster(plan);
  EXPECT_GT(counters.faults_injected(), 0u);
}

TEST(ThreadChaos, MaskedFaultsLintCleanAgainstTheSpec) {
  // The faults only delay messages on FIFO channels, so the recorded
  // protocol events of a chaos run must still conform to Tables 1(a)-(d)
  // exactly.
  runtime::ThreadClusterOptions options;
  options.node_count = kChaosNodes;
  options.protocol = Protocol::kHierarchical;
  options.hier_config.trace_events = true;
  options.seed = 26;
  options.faults.seed = 26;
  options.faults.delay_probability = 0.25;
  options.faults.delay = DurationDist::uniform(SimTime::us(300), 0.5);
  options.faults.drop_probability = 0.15;
  options.faults.retransmit_delay = SimTime::us(300);

  lint::LintOptions lint_options;
  lint_options.initial_token = runtime::ThreadCluster::kInitialRoot;
  lint::Checker checker{lint_options};
  {
    runtime::ThreadCluster cluster{options};
    cluster.set_event_sink(
        [&checker](const trace::TraceEvent& event) { checker.add(event); });
    std::vector<std::thread> workers;
    for (std::uint32_t i = 0; i < kChaosNodes; ++i) {
      workers.emplace_back([&cluster, i] {
        const proto::LockMode mode =
            i % 2 == 0 ? proto::LockMode::kW : proto::LockMode::kR;
        for (int k = 0; k < kChaosOps; ++k) {
          cluster.lock(NodeId{i}, LockId{0}, mode);
          std::this_thread::yield();
          cluster.unlock(NodeId{i}, LockId{0});
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    // Cluster teardown joins the receivers, so after this scope no event
    // can still be in flight toward the checker.
  }
  const lint::LintReport report = checker.finish();
  EXPECT_TRUE(report.ok()) << report.render();
  EXPECT_GT(report.events_checked, 0u);
}

}  // namespace
}  // namespace hlock::workload
