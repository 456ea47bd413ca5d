// Shared experiment runner for the figure-reproduction benchmarks.
//
// One experiment = one simulated cluster + one closed-loop airline workload
// run to completion, yielding the two metrics the paper plots: protocol
// messages per lock request and mean request latency. Figure binaries sweep
// node counts / ratios / variants and print the paper's series.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/hier_config.hpp"
#include "lint/checker.hpp"
#include "recovery/manager.hpp"
#include "trace/event.hpp"
#include "util/distributions.hpp"
#include "workload/op_plan.hpp"
#include "workload/sim_driver.hpp"

namespace hlock::bench {

using workload::AppVariant;

/// Full parameter set of one run.
struct ExperimentConfig {
  AppVariant variant = AppVariant::kHierarchical;
  std::size_t nodes = 16;
  /// One-way network latency model (testbed preset).
  DurationDist net_latency = DurationDist::uniform(SimTime::ms(150), 0.5);
  DurationDist cs_length = DurationDist::uniform(SimTime::ms(15), 0.5);
  DurationDist idle_time = DurationDist::uniform(SimTime::ms(150), 0.5);
  workload::ModeMix mix = workload::ModeMix::paper();
  std::size_t table_entries = 6;
  int ops_per_node = 60;
  std::uint64_t seed = 1;
  core::HierConfig hier_config = {};
  /// Stream every structured protocol event through the conformance linter
  /// (src/lint) during the run; hierarchical variant only. Costs event
  /// emission + checking time, so off for plain benchmarking.
  bool lint = false;
  /// Optional observer of every structured protocol event, in emission
  /// order (hierarchical variant only; enables event emission like `lint`):
  /// hlock_sim's obs::RunArtifacts.
  std::function<void(const trace::TraceEvent&)> on_event;
  /// Crash-recovery configuration forwarded to the simulated cluster
  /// (docs/recovery.md). Must be enabled for `kills` to be legal.
  recovery::Options recovery = {};
  /// Heartbeat horizon forwarded to SimClusterOptions::recovery_horizon;
  /// shorter than the cluster default so a recovery experiment does not
  /// spend most of its events on post-workload heartbeats.
  SimTime recovery_horizon = SimTime::ms(120'000);
  /// Crash-stop schedule forwarded to the workload driver: each entry
  /// kills one node at the given simulated time (its unfinished operations
  /// are forgiven; survivors must still drain).
  std::vector<workload::WorkloadSpec::Kill> kills;
};

/// Aggregated outcome of one run (or of several seeds averaged).
struct ExperimentResult {
  std::uint64_t ops = 0;
  std::uint64_t acquisitions = 0;
  std::uint64_t messages = 0;
  /// Messages per application operation.
  double msgs_per_op = 0;
  /// Messages per issued lock acquisition.
  double msgs_per_acq = 0;
  /// Mean end-to-end acquisition latency per operation (ms).
  double mean_latency_ms = 0;
  /// Mean latency per individual lock request (the paper's Fig. 8/10
  /// metric; equals mean_latency_ms for single-lock plans).
  double mean_request_latency_ms = 0;
  double p90_latency_ms = 0;
  double max_latency_ms = 0;
  /// Mean latency of table-write (W) operations only — the starvation
  /// indicator used by the freezing ablation (0 when no W op completed).
  double w_latency_ms = 0;
  /// Per-request latency samples (ms), concatenated across seeds; feeds
  /// distribution rendering (stats/histogram.hpp).
  std::vector<double> request_latency_samples_ms;
  /// With ExperimentConfig::lint: events checked and violations found,
  /// accumulated across seeds, plus the rendered reports of every seed
  /// that violated (empty when conforming).
  std::size_t lint_events_checked = 0;
  std::size_t lint_violation_count = 0;
  std::string lint_report;
  /// With ExperimentConfig::recovery enabled: the highest fenced epoch any
  /// survivor reached, completed recoveries (max over survivors; summed
  /// across seeds by run_averaged), stale-epoch messages dropped cluster-
  /// wide, mean suspicion-to-unhalt latency (ms) over all observed
  /// recoveries, and how many nodes the kill schedule actually crashed.
  std::uint32_t recovery_epoch = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t stale_drops = 0;
  double mean_recovery_ms = 0;
  std::size_t nodes_killed = 0;
  /// True when the run died early (an invariant fired or the driver hit its
  /// stall detector). The metrics above then cover the partial run up to
  /// the abort — still invaluable for diagnosis, which is why the runner
  /// reports them instead of losing them to the exception.
  bool aborted = false;
  /// The triggering error's message (empty when !aborted).
  std::string abort_reason;
};

/// Runs one experiment to completion.
ExperimentResult run_experiment(const ExperimentConfig& config);

/// Runs `seeds` experiments differing only in seed and averages every
/// metric (counts are summed).
ExperimentResult run_averaged(ExperimentConfig config, int seeds);

/// The paper's Fig. 8 metric for a variant: request latency, averaged over
/// individual lock requests for the hierarchical and pure variants
/// ("latencies are averaged over all types of requests"), and over
/// functional (whole-operation) requests for same-work — the superlinear
/// chained-acquisition cost is precisely what that series demonstrates.
double paper_latency_metric_ms(AppVariant variant,
                               const ExperimentResult& r);

/// The paper's Fig. 7/9 metric for a variant: messages per lock request.
/// For the hierarchical and pure variants this is messages per issued
/// acquisition; the same-work variant is normalized by *functional*
/// requests (its whole-table operations emulate one table-level request
/// with table_entries acquisitions) — see EXPERIMENTS.md for the
/// accounting discussion.
double paper_message_metric(AppVariant variant, const ExperimentResult& r);

/// Short label used in tables ("hierarchical", "naimi-pure", ...).
std::string series_name(AppVariant variant);

}  // namespace hlock::bench
