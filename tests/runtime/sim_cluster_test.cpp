// Tests of the simulated-cluster harness: engine wiring, metrics
// collection, grant callbacks, and the cluster-wide invariant helpers.
#include "runtime/sim_cluster.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "runtime/invariants.hpp"
#include "util/check.hpp"

namespace hlock::runtime {
namespace {

using proto::LockId;
using proto::LockMode;
using proto::MessageKind;
using proto::NodeId;

SimClusterOptions small_options(Protocol protocol, std::size_t n = 4) {
  SimClusterOptions options;
  options.node_count = n;
  options.protocol = protocol;
  options.message_latency = DurationDist::constant(SimTime::ms(1));
  options.seed = 1;
  return options;
}

struct GrantLog {
  std::vector<std::pair<NodeId, LockId>> grants;
  std::vector<std::pair<NodeId, LockId>> upgrades;

  void attach(SimCluster& cluster) {
    cluster.set_grant_handler(
        [this](NodeId node, LockId lock, bool upgraded) {
          if (upgraded) {
            upgrades.emplace_back(node, lock);
          } else {
            grants.emplace_back(node, lock);
          }
        });
  }
};

TEST(SimCluster, RejectsInvalidOptions) {
  SimClusterOptions options;
  options.node_count = 0;
  EXPECT_THROW(SimCluster{options}, UsageError);
}

TEST(SimCluster, HierRequestGrantReleaseRoundTrip) {
  SimCluster cluster{small_options(Protocol::kHierarchical)};
  GrantLog log;
  log.attach(cluster);
  const LockId lock{0};

  cluster.request(NodeId{1}, lock, LockMode::kR);
  EXPECT_TRUE(log.grants.empty()) << "grant needs message round trips";
  cluster.simulator().run_to_completion();
  ASSERT_EQ(log.grants.size(), 1u);
  EXPECT_EQ(log.grants[0].first, NodeId{1});

  // The paper's elementary cost: REQUEST + TOKEN here (node0 owns nothing,
  // so the token transfers).
  EXPECT_EQ(cluster.metrics().messages().count(MessageKind::kHierRequest),
            1u);
  EXPECT_EQ(cluster.metrics().messages().count(MessageKind::kHierToken), 1u);

  cluster.release(NodeId{1}, lock);
  cluster.simulator().run_to_completion();
  const auto report = check_quiescent_structure(cluster, {lock});
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(SimCluster, GrantTimesRespectNetworkLatency) {
  SimCluster cluster{small_options(Protocol::kHierarchical)};
  GrantLog log;
  log.attach(cluster);
  cluster.request(NodeId{1}, LockId{0}, LockMode::kR);
  cluster.simulator().run_to_completion();
  // REQUEST (1 ms) + TOKEN (1 ms) with constant latency.
  EXPECT_EQ(cluster.simulator().now(), SimTime::ms(2));
}

TEST(SimCluster, ConcurrentCompatibleGrants) {
  SimCluster cluster{small_options(Protocol::kHierarchical, 6)};
  GrantLog log;
  log.attach(cluster);
  const LockId lock{0};
  for (std::uint32_t i = 1; i < 6; ++i) {
    cluster.request(NodeId{i}, lock, LockMode::kIR);
  }
  cluster.simulator().run_to_completion();
  EXPECT_EQ(log.grants.size(), 5u) << "IR is compatible with IR";
  const auto safety = check_safety(
      cluster, std::vector<proto::LockId>{lock});
  EXPECT_TRUE(safety.ok()) << safety.to_string();
}

TEST(SimCluster, UpgradeCallback) {
  SimCluster cluster{small_options(Protocol::kHierarchical)};
  GrantLog log;
  log.attach(cluster);
  const LockId lock{0};
  cluster.request(NodeId{2}, lock, LockMode::kU);
  cluster.simulator().run_to_completion();
  ASSERT_EQ(log.grants.size(), 1u);
  cluster.upgrade(NodeId{2}, lock);
  cluster.simulator().run_to_completion();
  ASSERT_EQ(log.upgrades.size(), 1u);
  EXPECT_EQ(log.upgrades[0].first, NodeId{2});
}

TEST(SimCluster, NaimiMutualExclusion) {
  SimCluster cluster{small_options(Protocol::kNaimi)};
  GrantLog log;
  log.attach(cluster);
  const LockId lock{3};
  cluster.request(NodeId{1}, lock, LockMode::kW);
  cluster.request(NodeId{2}, lock, LockMode::kW);
  cluster.simulator().run_to_completion();
  // Only one may hold; the second waits for a release.
  EXPECT_EQ(log.grants.size(), 1u);
  const NodeId holder = log.grants[0].first;
  cluster.release(holder, lock);
  cluster.simulator().run_to_completion();
  EXPECT_EQ(log.grants.size(), 2u);
  cluster.release(log.grants[1].first, lock);
  cluster.simulator().run_to_completion();
  const auto report = check_quiescent_structure(
      cluster, std::vector<proto::LockId>{lock});
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(SimCluster, MultipleIndependentLocks) {
  SimCluster cluster{small_options(Protocol::kHierarchical)};
  GrantLog log;
  log.attach(cluster);
  cluster.request(NodeId{1}, LockId{0}, LockMode::kW);
  cluster.request(NodeId{2}, LockId{1}, LockMode::kW);
  cluster.simulator().run_to_completion();
  EXPECT_EQ(log.grants.size(), 2u) << "distinct locks do not contend";
}

TEST(SimCluster, ProtocolMismatchAccessorsRejected) {
  SimCluster hier{small_options(Protocol::kHierarchical)};
  EXPECT_THROW(hier.naimi_automaton(NodeId{0}, LockId{0}), UsageError);
  SimCluster naimi{small_options(Protocol::kNaimi)};
  EXPECT_THROW(naimi.hier_automaton(NodeId{0}, LockId{0}), UsageError);
  EXPECT_THROW(naimi.upgrade(NodeId{0}, LockId{0}), UsageError);
}

TEST(SimCluster, GrantWithoutHandlerIsAnError) {
  SimCluster cluster{small_options(Protocol::kHierarchical)};
  EXPECT_THROW(cluster.request(NodeId{0}, LockId{0}, LockMode::kR),
               InvariantError);
}

TEST(InvariantHelpers, DetectIncompatibleHolds) {
  // check_safety must actually flag violations, not just pass vacuously:
  // fabricate one by driving two automatons of different clusters... not
  // possible through the public API, so instead verify it reports the
  // correct shape on a healthy cluster and a count on a token-less lock id
  // that was never touched (token exists lazily at node 0).
  SimCluster cluster{small_options(Protocol::kHierarchical)};
  GrantLog log;
  log.attach(cluster);
  const auto report = check_safety(cluster, {LockId{0}});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.to_string(), "");
}

TEST(ProtocolName, ToString) {
  EXPECT_EQ(to_string(Protocol::kHierarchical), "hierarchical");
  EXPECT_EQ(to_string(Protocol::kNaimi), "naimi");
}

}  // namespace
}  // namespace hlock::runtime
