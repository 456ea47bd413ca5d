#include "workload/sim_driver.hpp"

#include "util/check.hpp"

namespace hlock::workload {

using runtime::Protocol;

SimWorkloadDriver::SimWorkloadDriver(runtime::SimCluster& cluster,
                                     WorkloadSpec spec)
    : cluster_(cluster), spec_(spec) {
  HLOCK_REQUIRE(spec.node_count == cluster.node_count(),
                "spec and cluster disagree on the node count");
  HLOCK_REQUIRE(spec.ops_per_node >= 0, "ops_per_node must be >= 0");
  // The hierarchical variant needs the multi-mode protocol; the Naimi
  // variants run on any mode-less protocol (Naimi or Raymond).
  const bool hier_cluster =
      cluster.options().protocol == Protocol::kHierarchical;
  const bool hier_variant = spec.variant == AppVariant::kHierarchical;
  HLOCK_REQUIRE(hier_cluster == hier_variant,
                "workload variant does not match the cluster's protocol");

  Rng root{spec.seed};
  nodes_.resize(spec.node_count);
  for (std::size_t i = 0; i < spec.node_count; ++i) {
    nodes_[i].rng = root.split(i + 1);
    nodes_[i].remaining = spec.ops_per_node;
  }
  cluster_.set_grant_handler(
      [this](NodeId node, proto::LockId lock, bool upgraded) {
        on_grant(node, lock, upgraded);
      });
}

void SimWorkloadDriver::set_periodic_check(std::uint64_t every,
                                           std::function<void()> check) {
  HLOCK_REQUIRE(every > 0, "check period must be positive");
  check_every_ = every;
  periodic_check_ = std::move(check);
}

void SimWorkloadDriver::run() {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const NodeId node{static_cast<std::uint32_t>(i)};
    if (nodes_[i].remaining > 0) {
      schedule_idle(node);
    } else {
      nodes_[i].phase = Phase::kDone;
    }
  }
  const runtime::SimClusterOptions& cluster_options = cluster_.options();
  for (const WorkloadSpec::Kill& kill : spec_.kills) {
    HLOCK_REQUIRE(kill.node.value() < spec_.node_count,
                  "kill schedule names a node outside the cluster");
    HLOCK_REQUIRE(cluster_options.recovery.enabled,
                  "kill schedule requires SimClusterOptions::recovery");
    cluster_.kill_at(kill.node, kill.at);
    // The driver-side obituary: forgive the victim's unfinished operations
    // and ignore its still-scheduled timers from this moment on.
    cluster_.simulator().schedule_at(kill.at, [this, node = kill.node] {
      NodeState& st = state(node);
      st.dead = true;
      st.remaining = 0;
      st.phase = Phase::kDone;
    });
  }

  // Generous livelock bound: every operation needs a handful of timer
  // events plus O(locks * nodes) protocol messages in the worst case.
  const std::uint64_t total_ops = static_cast<std::uint64_t>(
      spec_.ops_per_node > 0 ? spec_.ops_per_node : 0) * spec_.node_count;
  std::uint64_t budget =
      spec_.max_events != 0
          ? spec_.max_events
          : 1'000'000 + total_ops * (spec_.table_entries + 4) *
                            (spec_.node_count + 16);
  if (spec_.max_events == 0 && cluster_options.recovery.enabled) {
    // The failure detector keeps heartbeating until the recovery horizon:
    // one tick event plus a full fan-out of heartbeats per node per
    // interval, all of which count against the simulator's event budget.
    const std::int64_t interval_ns =
        std::max<std::int64_t>(1,
                               cluster_options.recovery.heartbeat_interval
                                   .count_ns());
    const std::uint64_t ticks = static_cast<std::uint64_t>(
        cluster_options.recovery_horizon.count_ns() / interval_ns) + 2;
    budget += ticks * spec_.node_count * (spec_.node_count + 4);
  }

  sim::Simulator& sim = cluster_.simulator();
  const std::uint64_t chunk =
      check_every_ > 0 ? check_every_ : std::uint64_t{65536};
  while (sim.events_pending() > 0) {
    HLOCK_INVARIANT(sim.events_executed() < budget,
                    "event budget exceeded: protocol livelock suspected");
    sim.run_events(chunk);
    if (periodic_check_) periodic_check_();
  }

  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].dead) continue;  // crash-stopped mid-run; ops forgiven
    HLOCK_INVARIANT(nodes_[i].phase == Phase::kDone,
                    "simulation drained but node" + std::to_string(i) +
                        " has unfinished operations (lost request?)");
  }
}

void SimWorkloadDriver::schedule_idle(NodeId node) {
  NodeState& st = state(node);
  st.phase = Phase::kIdle;
  const SimTime idle = spec_.idle_time.sample(st.rng);
  cluster_.simulator().schedule_in(idle, [this, node] { begin_op(node); });
}

void SimWorkloadDriver::begin_op(NodeId node) {
  NodeState& st = state(node);
  if (st.dead) return;
  HLOCK_INVARIANT(st.phase == Phase::kIdle, "begin_op outside idle phase");
  const LockMode drawn = spec_.mix.sample(st.rng);
  st.kind = op_for_mode(drawn);
  const std::size_t entry =
      st.rng.chance(spec_.entry_locality)
          ? node.value() % spec_.table_entries
          : static_cast<std::size_t>(st.rng.below(spec_.table_entries));
  st.steps = plan_op(spec_.variant, st.kind, entry, spec_.table_entries);
  st.next_step = 0;
  st.op_start = cluster_.simulator().now();
  st.phase = Phase::kAcquiring;
  issue_next_step(node);
}

void SimWorkloadDriver::issue_next_step(NodeId node) {
  NodeState& st = state(node);
  const LockStep& step = st.steps[st.next_step];
  ++stats_.acquisitions;
  st.step_start = cluster_.simulator().now();
  cluster_.request(node, step.lock, step.mode);
}

void SimWorkloadDriver::on_grant(NodeId node, proto::LockId lock,
                                 bool upgraded) {
  NodeState& st = state(node);
  if (st.dead) return;
  if (upgraded) {
    HLOCK_INVARIANT(st.phase == Phase::kWaitUpgrade,
                    "upgrade completion outside an upgrade wait");
    stats_.upgrade_latency.record(cluster_.simulator().now() -
                                  st.upgrade_start);
    st.phase = Phase::kInCs;
    cluster_.simulator().schedule_in(st.cs_remaining,
                                     [this, node] { finish_cs(node); });
    return;
  }

  HLOCK_INVARIANT(st.phase == Phase::kAcquiring,
                  "grant received outside the acquisition phase");
  HLOCK_INVARIANT(lock == st.steps[st.next_step].lock,
                  "grant for an unexpected lock");
  stats_.acq_latency.record(cluster_.simulator().now() - st.step_start);
  ++st.next_step;
  if (st.next_step < st.steps.size()) {
    issue_next_step(node);
  } else {
    enter_cs(node);
  }
}

void SimWorkloadDriver::enter_cs(NodeId node) {
  NodeState& st = state(node);
  const SimTime latency = cluster_.simulator().now() - st.op_start;
  stats_.op_latency.record(latency);
  stats_.latency_by_kind[static_cast<std::size_t>(st.kind)].record(latency);
  st.phase = Phase::kInCs;

  const SimTime cs = spec_.cs_length.sample(st.rng);
  bool upgrades = false;
  for (const LockStep& step : st.steps) upgrades |= step.upgrade_midway;
  if (upgrades) {
    // Read-then-upgrade: hold U for half the critical section, upgrade,
    // write for the other half (Rule 7 in action).
    st.cs_remaining = SimTime::ns(cs.count_ns() / 2);
    cluster_.simulator().schedule_in(st.cs_remaining,
                                     [this, node] { start_upgrade(node); });
  } else {
    cluster_.simulator().schedule_in(cs, [this, node] { finish_cs(node); });
  }
}

void SimWorkloadDriver::start_upgrade(NodeId node) {
  NodeState& st = state(node);
  if (st.dead) return;
  HLOCK_INVARIANT(st.phase == Phase::kInCs, "upgrade outside the CS");
  st.phase = Phase::kWaitUpgrade;
  st.upgrade_start = cluster_.simulator().now();
  for (const LockStep& step : st.steps) {
    if (step.upgrade_midway) {
      cluster_.upgrade(node, step.lock);
      return;
    }
  }
  HLOCK_INVARIANT(false, "no upgrade step in an upgrading operation");
}

void SimWorkloadDriver::finish_cs(NodeId node) {
  NodeState& st = state(node);
  if (st.dead) return;
  HLOCK_INVARIANT(st.phase == Phase::kInCs, "finish_cs outside the CS");
  for (std::size_t i = st.steps.size(); i-- > 0;) {
    cluster_.release(node, st.steps[i].lock);
  }
  ++stats_.ops;
  ++stats_.ops_by_kind[static_cast<std::size_t>(st.kind)];
  --st.remaining;
  if (st.remaining > 0) {
    schedule_idle(node);
  } else {
    st.phase = Phase::kDone;
  }
}

}  // namespace hlock::workload
