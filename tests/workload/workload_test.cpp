// Tests of the workload layer: mode mix sampling, operation planning for
// the three protocol variants, and the closed-loop simulation driver
// (determinism, stats accounting, safety under the paper's parameters).
#include <gtest/gtest.h>

#include <map>

#include "runtime/invariants.hpp"
#include "util/check.hpp"
#include "workload/mode_mix.hpp"
#include "workload/op_plan.hpp"
#include "workload/sim_driver.hpp"

namespace hlock::workload {
namespace {

using proto::LockId;
using proto::LockMode;
using runtime::Protocol;
using runtime::SimCluster;
using runtime::SimClusterOptions;

// ---- ModeMix ---------------------------------------------------------------

TEST(ModeMix, PaperMixIsValid) {
  EXPECT_TRUE(ModeMix::paper().valid());
  EXPECT_TRUE(ModeMix::read_only().valid());
  EXPECT_TRUE(ModeMix::write_heavy().valid());
}

TEST(ModeMix, InvalidMixesRejected) {
  ModeMix bad;
  bad.w = 0.5;  // sums to 1.49
  EXPECT_FALSE(bad.valid());
  Rng rng{1};
  EXPECT_THROW(bad.sample(rng), UsageError);
  ModeMix negative{1.2, -0.2, 0.0, 0.0, 0.0};
  EXPECT_FALSE(negative.valid());
}

TEST(ModeMix, SampleFrequenciesMatchPaper) {
  const ModeMix mix = ModeMix::paper();
  Rng rng{7};
  std::map<LockMode, int> histogram;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++histogram[mix.sample(rng)];
  EXPECT_NEAR(histogram[LockMode::kIR] / double(kDraws), 0.80, 0.01);
  EXPECT_NEAR(histogram[LockMode::kR] / double(kDraws), 0.10, 0.005);
  EXPECT_NEAR(histogram[LockMode::kU] / double(kDraws), 0.04, 0.005);
  EXPECT_NEAR(histogram[LockMode::kIW] / double(kDraws), 0.05, 0.005);
  EXPECT_NEAR(histogram[LockMode::kW] / double(kDraws), 0.01, 0.003);
}

TEST(ModeMix, ReadOnlyNeverDrawsWriteModes) {
  const ModeMix mix = ModeMix::read_only();
  Rng rng{9};
  for (int i = 0; i < 5000; ++i) {
    const LockMode mode = mix.sample(rng);
    EXPECT_TRUE(mode == LockMode::kIR || mode == LockMode::kR);
  }
}

// ---- Operation planning ----------------------------------------------------

TEST(OpPlan, ModeToOpMapping) {
  EXPECT_EQ(op_for_mode(LockMode::kIR), OpKind::kEntryRead);
  EXPECT_EQ(op_for_mode(LockMode::kR), OpKind::kTableRead);
  EXPECT_EQ(op_for_mode(LockMode::kU), OpKind::kEntryUpgrade);
  EXPECT_EQ(op_for_mode(LockMode::kIW), OpKind::kEntryWrite);
  EXPECT_EQ(op_for_mode(LockMode::kW), OpKind::kTableWrite);
  EXPECT_THROW(op_for_mode(LockMode::kNL), UsageError);
}

TEST(OpPlan, LockNamespace) {
  EXPECT_EQ(table_lock(), LockId{0});
  EXPECT_EQ(entry_lock(0), LockId{1});
  EXPECT_EQ(entry_lock(4), LockId{5});
  const auto locks = all_locks(3);
  EXPECT_EQ(locks.size(), 4u);
  EXPECT_EQ(locks.front(), table_lock());
}

TEST(OpPlan, HierarchicalEntryReadTakesIntentThenEntry) {
  const auto steps =
      plan_op(AppVariant::kHierarchical, OpKind::kEntryRead, 2, 4);
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].lock, table_lock());
  EXPECT_EQ(steps[0].mode, LockMode::kIR);
  EXPECT_EQ(steps[1].lock, entry_lock(2));
  EXPECT_EQ(steps[1].mode, LockMode::kR);
  EXPECT_FALSE(steps[0].upgrade_midway);
}

TEST(OpPlan, HierarchicalUpgradePlansUThenMidwayUpgrade) {
  const auto steps =
      plan_op(AppVariant::kHierarchical, OpKind::kEntryUpgrade, 1, 4);
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[0].mode, LockMode::kIW);
  EXPECT_EQ(steps[1].mode, LockMode::kU);
  EXPECT_TRUE(steps[1].upgrade_midway);
}

TEST(OpPlan, HierarchicalTableOpsTakeOneLock) {
  for (OpKind kind : {OpKind::kTableRead, OpKind::kTableWrite}) {
    const auto steps = plan_op(AppVariant::kHierarchical, kind, 0, 4);
    ASSERT_EQ(steps.size(), 1u);
    EXPECT_EQ(steps[0].lock, table_lock());
  }
}

TEST(OpPlan, NaimiPureAlwaysOneLock) {
  for (OpKind kind :
       {OpKind::kEntryRead, OpKind::kTableRead, OpKind::kEntryUpgrade,
        OpKind::kEntryWrite, OpKind::kTableWrite}) {
    const auto steps = plan_op(AppVariant::kNaimiPure, kind, 3, 5);
    ASSERT_EQ(steps.size(), 1u) << to_string(kind);
  }
}

TEST(OpPlan, NaimiSameWorkExpandsTableOps) {
  const auto table = plan_op(AppVariant::kNaimiSameWork,
                             OpKind::kTableWrite, 0, 5);
  ASSERT_EQ(table.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(table[i].lock, entry_lock(i)) << "must be in ascending order";
  }
  const auto entry =
      plan_op(AppVariant::kNaimiSameWork, OpKind::kEntryWrite, 3, 5);
  ASSERT_EQ(entry.size(), 1u);
  EXPECT_EQ(entry[0].lock, entry_lock(3));
}

TEST(OpPlan, ValidatesArguments) {
  EXPECT_THROW(plan_op(AppVariant::kHierarchical, OpKind::kEntryRead, 4, 4),
               UsageError);
  EXPECT_THROW(plan_op(AppVariant::kHierarchical, OpKind::kEntryRead, 0, 0),
               UsageError);
}

// ---- Driver ----------------------------------------------------------------

WorkloadSpec fast_spec(AppVariant variant, std::size_t nodes, int ops) {
  WorkloadSpec spec;
  spec.variant = variant;
  spec.node_count = nodes;
  spec.ops_per_node = ops;
  spec.table_entries = 4;
  // Shrink times so tests run instantly in simulated time.
  spec.cs_length = DurationDist::uniform(SimTime::ms(2), 0.5);
  spec.idle_time = DurationDist::uniform(SimTime::ms(10), 0.5);
  spec.seed = 11;
  return spec;
}

SimClusterOptions cluster_options(AppVariant variant, std::size_t nodes) {
  SimClusterOptions options;
  options.node_count = nodes;
  options.protocol = variant == AppVariant::kHierarchical
                         ? Protocol::kHierarchical
                         : Protocol::kNaimi;
  options.message_latency = DurationDist::uniform(SimTime::ms(1), 0.5);
  options.seed = 11;
  return options;
}

TEST(SimDriver, CompletesAllOpsAndCountsThem) {
  const WorkloadSpec spec = fast_spec(AppVariant::kHierarchical, 6, 20);
  SimCluster cluster{cluster_options(AppVariant::kHierarchical, 6)};
  SimWorkloadDriver driver{cluster, spec};
  driver.run();
  EXPECT_EQ(driver.stats().ops, 6u * 20u);
  EXPECT_EQ(driver.stats().op_latency.count(), 6u * 20u);
  std::uint64_t by_kind = 0;
  for (std::uint64_t count : driver.stats().ops_by_kind) by_kind += count;
  EXPECT_EQ(by_kind, 6u * 20u);
  EXPECT_GE(driver.stats().acquisitions, driver.stats().ops);
}

TEST(SimDriver, QuiescentStructureAfterRun) {
  const WorkloadSpec spec = fast_spec(AppVariant::kHierarchical, 8, 25);
  SimCluster cluster{cluster_options(AppVariant::kHierarchical, 8)};
  SimWorkloadDriver driver{cluster, spec};
  driver.run();
  const auto report = runtime::check_quiescent_structure(
      cluster, all_locks(spec.table_entries));
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(SimDriver, SafetyHoldsThroughoutTheRun) {
  const WorkloadSpec spec = fast_spec(AppVariant::kHierarchical, 6, 30);
  SimCluster cluster{cluster_options(AppVariant::kHierarchical, 6)};
  SimWorkloadDriver driver{cluster, spec};
  const auto locks = all_locks(spec.table_entries);
  int checks = 0;
  driver.set_periodic_check(64, [&] {
    const auto report = runtime::check_safety(cluster, locks);
    ASSERT_TRUE(report.ok()) << report.to_string();
    ++checks;
  });
  driver.run();
  EXPECT_GT(checks, 0);
}

TEST(SimDriver, DeterministicForSameSeed) {
  auto run_once = [](std::uint64_t seed) {
    WorkloadSpec spec = fast_spec(AppVariant::kHierarchical, 5, 15);
    spec.seed = seed;
    SimClusterOptions copts = cluster_options(AppVariant::kHierarchical, 5);
    copts.seed = seed;
    SimCluster cluster{copts};
    SimWorkloadDriver driver{cluster, spec};
    driver.run();
    return std::make_tuple(cluster.metrics().messages().total(),
                           driver.stats().op_latency.summarize().mean,
                           cluster.simulator().now().count_ns());
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(std::get<0>(run_once(5)), std::get<0>(run_once(6)));
}

TEST(SimDriver, NaimiVariantsComplete) {
  for (AppVariant variant :
       {AppVariant::kNaimiPure, AppVariant::kNaimiSameWork}) {
    const WorkloadSpec spec = fast_spec(variant, 5, 15);
    SimCluster cluster{cluster_options(variant, 5)};
    SimWorkloadDriver driver{cluster, spec};
    driver.run();
    EXPECT_EQ(driver.stats().ops, 5u * 15u) << to_string(variant);
  }
}

TEST(SimDriver, SameWorkIssuesMoreAcquisitions) {
  const WorkloadSpec pure_spec = fast_spec(AppVariant::kNaimiPure, 6, 30);
  SimCluster pure_cluster{cluster_options(AppVariant::kNaimiPure, 6)};
  SimWorkloadDriver pure{pure_cluster, pure_spec};
  pure.run();

  const WorkloadSpec sw_spec = fast_spec(AppVariant::kNaimiSameWork, 6, 30);
  SimCluster sw_cluster{cluster_options(AppVariant::kNaimiSameWork, 6)};
  SimWorkloadDriver same_work{sw_cluster, sw_spec};
  same_work.run();

  EXPECT_EQ(pure.stats().acquisitions, pure.stats().ops);
  EXPECT_GT(same_work.stats().acquisitions, same_work.stats().ops)
      << "whole-table ops must expand to per-entry locks";
}

TEST(SimDriver, UpgradesAreExercised) {
  WorkloadSpec spec = fast_spec(AppVariant::kHierarchical, 6, 40);
  spec.mix = ModeMix::write_heavy();  // 15% upgrades
  SimCluster cluster{cluster_options(AppVariant::kHierarchical, 6)};
  SimWorkloadDriver driver{cluster, spec};
  driver.run();
  EXPECT_GT(driver.stats().upgrade_latency.count(), 0u);
  EXPECT_EQ(driver.stats().upgrade_latency.count(),
            driver.stats()
                .ops_by_kind[static_cast<std::size_t>(OpKind::kEntryUpgrade)]);
}

TEST(SimDriver, RejectsMismatchedVariantAndProtocol) {
  const WorkloadSpec spec = fast_spec(AppVariant::kHierarchical, 4, 5);
  SimCluster naimi{cluster_options(AppVariant::kNaimiPure, 4)};
  EXPECT_THROW(SimWorkloadDriver(naimi, spec), UsageError);
}

TEST(SimDriver, RejectsNodeCountMismatch) {
  const WorkloadSpec spec = fast_spec(AppVariant::kHierarchical, 4, 5);
  SimCluster cluster{cluster_options(AppVariant::kHierarchical, 5)};
  EXPECT_THROW(SimWorkloadDriver(cluster, spec), UsageError);
}

TEST(SimDriver, ZeroOpsCompletesImmediately) {
  const WorkloadSpec spec = fast_spec(AppVariant::kHierarchical, 3, 0);
  SimCluster cluster{cluster_options(AppVariant::kHierarchical, 3)};
  SimWorkloadDriver driver{cluster, spec};
  driver.run();
  EXPECT_EQ(driver.stats().ops, 0u);
}

}  // namespace
}  // namespace hlock::workload
