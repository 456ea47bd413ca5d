// End-to-end telemetry over a live ThreadCluster: the registry handed in
// through ThreadClusterOptions must account for every operation the
// cluster performs, expose cleanly, and stop polling component state once
// the cluster is gone.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "runtime/thread_cluster.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/text_parse.hpp"
#include "telemetry/watchdog.hpp"
#include "util/check.hpp"

namespace hlock::runtime {
namespace {

using proto::LockId;
using proto::LockMode;
using proto::NodeId;
using telemetry::Sample;
using telemetry::Snapshot;

constexpr std::size_t kNodes = 3;
constexpr int kOpsPerNode = 10;
constexpr double kTotalOps = static_cast<double>(kNodes) * kOpsPerNode;

ThreadClusterOptions instrumented_options(telemetry::Registry& registry,
                                          Protocol protocol) {
  ThreadClusterOptions options;
  options.node_count = kNodes;
  options.protocol = protocol;
  options.seed = 11;
  options.metrics = &registry;
  return options;
}

void run_contended_workload(ThreadCluster& cluster) {
  std::vector<std::thread> workers;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    workers.emplace_back([&cluster, i] {
      for (int k = 0; k < kOpsPerNode; ++k) {
        cluster.lock(NodeId{i}, LockId{0}, LockMode::kW);
        cluster.unlock(NodeId{i}, LockId{0});
      }
    });
  }
  for (std::thread& w : workers) w.join();
}

std::uint64_t histogram_family_count(const Snapshot& snap,
                                     std::string_view family) {
  std::uint64_t total = 0;
  for (const Sample& sample : snap.samples) {
    if (telemetry::family_of(sample.name) == family) {
      total += sample.histogram.count;
    }
  }
  return total;
}

/// Sum of the series of `family` whose name carries `label` (say,
/// `kind="HEARTBEAT"`).
double labeled_family_sum(const Snapshot& snap, std::string_view family,
                          std::string_view label) {
  double total = 0.0;
  for (const Sample& sample : snap.samples) {
    if (telemetry::family_of(sample.name) == family &&
        sample.name.find(label) != std::string::npos) {
      total += sample.value;
    }
  }
  return total;
}

/// Snapshots `registry` until the cluster is quiescent, or a deadline
/// passes: no mailbox holds a message, no engine queues a request, and the
/// per-kind message series add up to the transport's own count. Receivers
/// may still be applying and sending the last messages for a moment after
/// the client threads join.
Snapshot settled_snapshot(telemetry::Registry& registry) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    Snapshot snap = registry.snapshot();
    const bool settled =
        snap.family_sum("hlock_mailbox_depth") == 0.0 &&
        snap.family_sum("hlock_engine_queue_depth") == 0.0 &&
        snap.family_sum("hlock_messages_sent_total") ==
            snap.family_sum("hlock_transport_messages_sent_total");
    if (settled || std::chrono::steady_clock::now() > deadline) {
      return snap;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ClusterTelemetry, EveryOperationIsAccountedFor) {
  for (const Protocol protocol :
       {Protocol::kHierarchical, Protocol::kNaimi, Protocol::kRaymond}) {
    SCOPED_TRACE(to_string(protocol));
    telemetry::Registry registry;
    telemetry::WatchdogOptions watchdog_options;
    watchdog_options.floor = std::chrono::seconds(60);  // observe, never flag
    telemetry::StallWatchdog watchdog{registry, watchdog_options};

    ThreadClusterOptions options = instrumented_options(registry, protocol);
    options.watchdog = &watchdog;
    ThreadCluster cluster{options};
    run_contended_workload(cluster);

    const Snapshot snap = registry.snapshot();
    EXPECT_EQ(snap.family_sum("hlock_engine_requests_total"), kTotalOps);
    EXPECT_EQ(snap.family_sum("hlock_engine_grants_total"), kTotalOps);
    EXPECT_EQ(snap.family_sum("hlock_engine_releases_total"), kTotalOps);
    // Every grant records a wait, every release a hold; the watchdog
    // brackets each blocking lock() with its own histogram.
    EXPECT_EQ(histogram_family_count(snap, "hlock_wait_ms"), kTotalOps);
    EXPECT_EQ(histogram_family_count(snap, "hlock_hold_ms"), kTotalOps);
    EXPECT_EQ(histogram_family_count(snap, "hlock_request_wait_ms"),
              kTotalOps);
    EXPECT_EQ(watchdog.stalled_total(), 0u);
    EXPECT_EQ(snap.find("hlock_pending_requests")->value, 0.0);

    // Cross-node traffic showed up in the message and transport series.
    EXPECT_GT(snap.family_sum("hlock_messages_sent_total"), 0.0);
    // Once the receivers are done, the transport series reads the
    // transport's count, and the per-kind series count every message the
    // transport carried.
    const Snapshot settled = settled_snapshot(registry);
    EXPECT_EQ(settled.family_sum("hlock_transport_messages_sent_total"),
              static_cast<double>(cluster.messages_sent()));
    EXPECT_EQ(settled.family_sum("hlock_messages_sent_total"),
              settled.family_sum("hlock_transport_messages_sent_total"));

    // The token settled somewhere legal after the last grant.
    const Sample* token = snap.find(
        telemetry::labeled("hlock_token_location", {{"lock", "0"}}));
    ASSERT_NE(token, nullptr);
    EXPECT_GE(token->value, 0.0);
    EXPECT_LT(token->value, static_cast<double>(kNodes));

    // Per-node / per-shard structural series exist.
    EXPECT_NE(snap.find(telemetry::labeled("hlock_mailbox_depth",
                                           {{"node", "0"}})),
              nullptr);
    EXPECT_NE(snap.find(telemetry::labeled(
                  "hlock_engine_queue_depth",
                  {{"node", "0"}, {"shard", "0"}})),
              nullptr);
    // All work done: nothing queued, and the token settled on at least one
    // node (hierarchical handoffs can leave more than one automaton in a
    // token-bearing state, so the exact count is protocol detail).
    EXPECT_EQ(settled.family_sum("hlock_engine_queue_depth"), 0.0);
    EXPECT_GE(settled.family_sum("hlock_tokens_held"), 1.0);
    EXPECT_LE(settled.family_sum("hlock_tokens_held"),
              static_cast<double>(kNodes));

    // The whole catalog renders as clean exposition text.
    const std::string text =
        telemetry::render_prometheus(registry.snapshot());
    const telemetry::ParsedExposition parsed =
        telemetry::parse_exposition(text);
    const std::vector<std::string> violations =
        telemetry::check_exposition(parsed);
    EXPECT_TRUE(violations.empty()) << violations.front();
  }
}

TEST(ClusterTelemetry, ScriptedHierarchicalRunHasExactEngineSeries) {
  // One upgrade, one forwarded request, one freeze, nine messages: the
  // exact values pin where every engine series is counted.
  telemetry::Registry registry;
  ThreadCluster cluster{
      instrumented_options(registry, Protocol::kHierarchical)};
  const LockId lock{0};
  cluster.lock(NodeId{1}, lock, LockMode::kU);  // token 0 -> 1
  cluster.upgrade(NodeId{1}, lock);             // local at the token
  cluster.unlock(NodeId{1}, lock);
  cluster.lock(NodeId{1}, lock, LockMode::kR);
  cluster.lock(NodeId{0}, lock, LockMode::kR);  // granted by node 1
  // Node 2's W goes through node 0, which forwards it to node 1; node 1
  // freezes node 0's R and queues the writer.
  std::thread writer{[&] { cluster.lock(NodeId{2}, lock, LockMode::kW); }};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (registry.snapshot().family_sum("hlock_engine_freezes_total") ==
             0.0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cluster.unlock(NodeId{0}, lock);
  cluster.unlock(NodeId{1}, lock);  // token 1 -> 2
  writer.join();

  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.family_sum("hlock_engine_upgrades_total"), 1.0);
  EXPECT_EQ(snap.family_sum("hlock_engine_forwards_total"), 1.0);
  EXPECT_EQ(snap.family_sum("hlock_engine_freezes_total"), 1.0);
  const Sample* token = snap.find(
      telemetry::labeled("hlock_token_location", {{"lock", "0"}}));
  ASSERT_NE(token, nullptr);
  EXPECT_EQ(token->value, 2.0);

  const struct {
    const char* node;
    const char* kind;
    double count;
  } sent[] = {{"0", "REQUEST", 2}, {"0", "TOKEN", 1}, {"0", "RELEASE", 1},
              {"1", "REQUEST", 1}, {"1", "TOKEN", 1}, {"1", "GRANT", 1},
              {"1", "FREEZE", 1},  {"2", "REQUEST", 1}};
  for (const auto& [node, kind, count] : sent) {
    const Sample* sample = snap.find(telemetry::labeled(
        "hlock_messages_sent_total",
        {{"proto", "hierarchical"}, {"node", node}, {"kind", kind}}));
    ASSERT_NE(sample, nullptr) << "node " << node << " " << kind;
    EXPECT_EQ(sample->value, count) << "node " << node << " " << kind;
  }
  EXPECT_EQ(snap.family_sum("hlock_messages_sent_total"), 9.0);
}

TEST(ClusterTelemetry, RecoveryTrafficIsCounted) {
  // The recovery manager's heartbeats are protocol messages like any
  // other: they cross the same port and count under their own kind.
  telemetry::Registry registry;
  ThreadClusterOptions options =
      instrumented_options(registry, Protocol::kHierarchical);
  options.recovery.enabled = true;
  options.recovery.heartbeat_interval = SimTime::ms(10);
  ThreadCluster cluster{options};
  cluster.lock(NodeId{0}, LockId{0}, LockMode::kW);
  cluster.unlock(NodeId{0}, LockId{0});
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const Snapshot snap = registry.snapshot();
  EXPECT_GT(labeled_family_sum(snap, "hlock_messages_sent_total",
                               "kind=\"HEARTBEAT\""),
            0.0);
}

TEST(ClusterTelemetry, RejectedCallsCloseTheirWatchdogBracket) {
  telemetry::Registry registry;
  telemetry::WatchdogOptions watchdog_options;
  watchdog_options.floor = std::chrono::milliseconds(1);
  telemetry::StallWatchdog watchdog{registry, watchdog_options};
  ThreadClusterOptions options =
      instrumented_options(registry, Protocol::kHierarchical);
  options.watchdog = &watchdog;
  ThreadCluster cluster{options};

  cluster.lock(NodeId{0}, LockId{0}, LockMode::kW);
  // The engine rejects both calls; neither may leave a pending request.
  EXPECT_THROW(cluster.lock(NodeId{0}, LockId{0}, LockMode::kW), UsageError);
  EXPECT_THROW(cluster.upgrade(NodeId{0}, LockId{0}), UsageError);
  cluster.unlock(NodeId{0}, LockId{0});

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(watchdog.check_now(), 0u);
  EXPECT_EQ(registry.snapshot().find("hlock_pending_requests")->value, 0.0);
}

TEST(ClusterTelemetry, TransportCallbacksUnregisterWithTheCluster) {
  telemetry::Registry registry;
  {
    ThreadCluster cluster{
        instrumented_options(registry, Protocol::kHierarchical)};
    run_contended_workload(cluster);
    ASSERT_NE(registry.snapshot().find(telemetry::labeled(
                  "hlock_mailbox_depth", {{"node", "0"}})),
              nullptr);
  }
  // The cluster is gone; polling its transport would be use-after-free.
  const Snapshot snap = registry.snapshot();
  for (const Sample& sample : snap.samples) {
    EXPECT_NE(telemetry::family_of(sample.name), "hlock_mailbox_depth")
        << sample.name;
    EXPECT_NE(telemetry::family_of(sample.name),
              "hlock_transport_messages_sent_total")
        << sample.name;
  }
  // Owned engine counters survive for post-mortem reads.
  EXPECT_EQ(snap.family_sum("hlock_engine_grants_total"), kTotalOps);
  // And the snapshot still renders cleanly.
  EXPECT_TRUE(telemetry::check_exposition(
                  telemetry::parse_exposition(
                      telemetry::render_prometheus(snap)))
                  .empty());
}

// Each transport that counts exports its own fields under
// hlock_transport_: a fault plan's wire its faults, TCP its recovery. So
// faults over TCP export both sets once, and no family reads a field its
// transport never counts.
TEST(ClusterTelemetry, EachTransportExportsTheCountersItKeeps) {
  const std::set<std::string> totals = {
      "hlock_transport_messages_sent_total",
      "hlock_transport_bytes_sent_total"};
  const std::set<std::string> faults = {
      "hlock_transport_drops_total", "hlock_transport_delays_total",
      "hlock_transport_partition_drops_total"};
  const std::set<std::string> tcp = {
      "hlock_transport_send_retries_total",
      "hlock_transport_reconnects_total",
      "hlock_transport_send_failures_total",
      "hlock_transport_misaddressed_frames_total"};
  const auto joined = [](std::set<std::string> a,
                         const std::set<std::string>& b) {
    a.insert(b.begin(), b.end());
    return a;
  };
  struct Case {
    TransportKind transport;
    bool fault_plan;
    std::set<std::string> families;
  };
  const Case cases[] = {
      {TransportKind::kInProc, false, totals},
      {TransportKind::kInProc, true, joined(totals, faults)},
      {TransportKind::kTcp, false, joined(totals, tcp)},
      {TransportKind::kTcp, true, joined(joined(totals, faults), tcp)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.transport == TransportKind::kTcp ? "tcp"
                                                                : "inproc") +
                 (c.fault_plan ? " with a fault plan" : ""));
    telemetry::Registry registry;
    ThreadClusterOptions options =
        instrumented_options(registry, Protocol::kHierarchical);
    options.transport = c.transport;
    if (c.fault_plan) options.faults.delay_probability = 0.1;
    ThreadCluster cluster{options};
    EXPECT_EQ(cluster.fault_counters() != nullptr, c.fault_plan);
    EXPECT_EQ(cluster.tcp_counters() != nullptr,
              c.transport == TransportKind::kTcp);
    std::set<std::string> families;
    for (const Sample& sample : registry.snapshot().samples) {
      const std::string family{telemetry::family_of(sample.name)};
      if (family.find("transport_") != std::string::npos) {
        families.insert(family);
      }
    }
    EXPECT_EQ(families, c.families);
  }
}

TEST(ClusterTelemetry, ModeLabelsFollowTheWorkload) {
  telemetry::Registry registry;
  ThreadCluster cluster{
      instrumented_options(registry, Protocol::kHierarchical)};
  cluster.lock(NodeId{0}, LockId{0}, LockMode::kR);
  cluster.unlock(NodeId{0}, LockId{0});
  cluster.lock(NodeId{1}, LockId{0}, LockMode::kW);
  cluster.unlock(NodeId{1}, LockId{0});

  const Snapshot snap = registry.snapshot();
  const auto requests_in = [&snap](const std::string& node,
                                   const std::string& mode) {
    const Sample* sample = snap.find(
        "hlock_engine_requests_total{proto=\"hierarchical\",node=\"" + node +
        "\",mode=\"" + mode + "\"}");
    return sample == nullptr ? -1.0 : sample->value;
  };
  EXPECT_EQ(requests_in("0", "R"), 1.0);
  EXPECT_EQ(requests_in("1", "W"), 1.0);
  EXPECT_EQ(requests_in("1", "R"), 0.0);
}

TEST(ClusterTelemetry, RaymondRunsItsOwnEngineUnderTheDecorator) {
  // Regression: ThreadCluster used to fall back to Naimi silently for
  // Protocol::kRaymond; with telemetry the proto label proves which engine
  // actually ran.
  telemetry::Registry registry;
  ThreadCluster cluster{instrumented_options(registry, Protocol::kRaymond)};
  run_contended_workload(cluster);

  const Snapshot snap = registry.snapshot();
  double raymond_requests = 0.0;
  double other_requests = 0.0;
  for (const Sample& sample : snap.samples) {
    if (telemetry::family_of(sample.name) != "hlock_engine_requests_total") {
      continue;
    }
    if (sample.name.find("proto=\"raymond\"") != std::string::npos) {
      raymond_requests += sample.value;
    } else {
      other_requests += sample.value;
    }
  }
  EXPECT_EQ(raymond_requests, kTotalOps);
  EXPECT_EQ(other_requests, 0.0);
  EXPECT_GT(cluster.messages_sent(), 0u);
}

TEST(ClusterTelemetry, UninstrumentedClustersTouchNoRegistry) {
  telemetry::Registry registry;
  ThreadClusterOptions options;
  options.node_count = 2;
  {
    ThreadCluster cluster{options};
    cluster.lock(NodeId{0}, LockId{0}, LockMode::kW);
    cluster.unlock(NodeId{0}, LockId{0});
  }
  EXPECT_EQ(registry.series_count(), 0u);
}

}  // namespace
}  // namespace hlock::runtime
