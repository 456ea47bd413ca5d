#include "bench/common/experiment.hpp"

#include <memory>

#include "runtime/sim_cluster.hpp"
#include "stats/summary.hpp"
#include "util/check.hpp"

namespace hlock::bench {

using runtime::Protocol;
using runtime::SimCluster;
using runtime::SimClusterOptions;
using workload::OpKind;
using workload::SimWorkloadDriver;
using workload::WorkloadSpec;

ExperimentResult run_experiment(const ExperimentConfig& config) {
  SimClusterOptions cluster_options;
  cluster_options.node_count = config.nodes;
  cluster_options.protocol = config.variant == AppVariant::kHierarchical
                                 ? Protocol::kHierarchical
                                 : Protocol::kNaimi;
  cluster_options.message_latency = config.net_latency;
  cluster_options.seed = config.seed;
  cluster_options.hier_config = config.hier_config;
  cluster_options.recovery = config.recovery;
  cluster_options.recovery_horizon = config.recovery_horizon;
  HLOCK_REQUIRE(config.kills.empty() || config.recovery.enabled,
                "a kill schedule requires ExperimentConfig::recovery");
  const bool wants_events = config.lint || config.on_event != nullptr;
  if (wants_events) {
    HLOCK_REQUIRE(config.variant == AppVariant::kHierarchical,
                  "event tracing applies to the hierarchical variant");
    cluster_options.hier_config.trace_events = true;
  }
  SimCluster cluster{cluster_options};

  std::unique_ptr<lint::Checker> checker;
  if (config.lint) {
    lint::LintOptions lint_options;
    lint_options.initial_token = SimCluster::kInitialRoot;
    lint_options.local_queueing = config.hier_config.local_queueing;
    lint_options.child_grants = config.hier_config.child_grants;
    lint_options.path_compression = config.hier_config.path_compression;
    lint_options.freezing = config.hier_config.freezing;
    checker = std::make_unique<lint::Checker>(lint_options);
  }
  if (wants_events) {
    cluster.set_event_observer(
        [&checker, &on_event = config.on_event](trace::TraceEvent event) {
          if (checker) checker->add(event);
          if (on_event) on_event(event);
        });
  }

  WorkloadSpec spec;
  spec.variant = config.variant;
  spec.node_count = config.nodes;
  spec.table_entries = config.table_entries;
  spec.ops_per_node = config.ops_per_node;
  spec.cs_length = config.cs_length;
  spec.idle_time = config.idle_time;
  spec.mix = config.mix;
  spec.seed = config.seed * 7919 + 13;  // decorrelated from network stream
  spec.kills = config.kills;

  SimWorkloadDriver driver{cluster, spec};
  ExperimentResult result;
  try {
    driver.run();
  } catch (const InvariantError& error) {
    result.aborted = true;
    result.abort_reason = error.what();
  } catch (const UsageError& error) {
    result.aborted = true;
    result.abort_reason = error.what();
  }
  // On abort the driver and cluster still hold everything collected up to
  // the failure; fall through and report the partial run.
  result.ops = driver.stats().ops;
  result.acquisitions = driver.stats().acquisitions;
  result.messages = cluster.metrics().messages().total();
  if (result.ops > 0) {
    result.msgs_per_op =
        static_cast<double>(result.messages) / static_cast<double>(result.ops);
  }
  if (result.acquisitions > 0) {
    result.msgs_per_acq = static_cast<double>(result.messages) /
                          static_cast<double>(result.acquisitions);
  }
  const stats::Summary latency = driver.stats().op_latency.summarize();
  result.mean_latency_ms = latency.mean;
  result.mean_request_latency_ms =
      driver.stats().acq_latency.summarize().mean;
  result.p90_latency_ms = latency.p90;
  result.max_latency_ms = latency.max;
  const stats::Summary w_latency =
      driver.stats()
          .latency_by_kind[static_cast<std::size_t>(OpKind::kTableWrite)]
          .summarize();
  result.w_latency_ms = w_latency.mean;
  result.request_latency_samples_ms = driver.stats().acq_latency.samples_ms();
  if (config.recovery.enabled) {
    double sum_ms = 0;
    std::size_t samples = 0;
    for (std::size_t i = 0; i < config.nodes; ++i) {
      const proto::NodeId node{static_cast<std::uint32_t>(i)};
      if (!cluster.alive(node)) {
        ++result.nodes_killed;
        continue;
      }
      recovery::Manager& manager = cluster.manager(node);
      result.recovery_epoch =
          std::max(result.recovery_epoch, manager.current_epoch());
      result.recoveries =
          std::max(result.recoveries, manager.counters().recoveries);
      for (const double ms : manager.recovery_durations_ms()) {
        sum_ms += ms;
        ++samples;
      }
    }
    result.stale_drops = cluster.total_stale_drops();
    if (samples > 0) {
      result.mean_recovery_ms = sum_ms / static_cast<double>(samples);
    }
  }
  if (checker) {
    const lint::LintReport report = checker->finish();
    result.lint_events_checked = report.events_checked;
    result.lint_violation_count = report.violations.size();
    if (!report.ok()) result.lint_report = report.render();
  }
  return result;
}

ExperimentResult run_averaged(ExperimentConfig config, int seeds) {
  ExperimentResult total;
  for (int s = 0; s < seeds; ++s) {
    config.seed = config.seed * 31 + static_cast<std::uint64_t>(s) + 1;
    const ExperimentResult one = run_experiment(config);
    total.ops += one.ops;
    total.acquisitions += one.acquisitions;
    total.messages += one.messages;
    total.msgs_per_op += one.msgs_per_op;
    total.msgs_per_acq += one.msgs_per_acq;
    total.mean_request_latency_ms += one.mean_request_latency_ms;
    total.mean_latency_ms += one.mean_latency_ms;
    total.p90_latency_ms += one.p90_latency_ms;
    total.max_latency_ms = std::max(total.max_latency_ms, one.max_latency_ms);
    total.w_latency_ms += one.w_latency_ms;
    total.request_latency_samples_ms.insert(
        total.request_latency_samples_ms.end(),
        one.request_latency_samples_ms.begin(),
        one.request_latency_samples_ms.end());
    total.lint_events_checked += one.lint_events_checked;
    total.lint_violation_count += one.lint_violation_count;
    total.lint_report += one.lint_report;
    total.recovery_epoch = std::max(total.recovery_epoch, one.recovery_epoch);
    total.recoveries += one.recoveries;
    total.stale_drops += one.stale_drops;
    total.mean_recovery_ms += one.mean_recovery_ms;
    total.nodes_killed += one.nodes_killed;
    if (one.aborted) {
      // Later seeds would only repeat the failure (or mask it by averaging
      // over fewer samples); stop and surface the partial aggregate.
      total.aborted = true;
      total.abort_reason = one.abort_reason;
      break;
    }
  }
  const double k = seeds > 0 ? static_cast<double>(seeds) : 1.0;
  total.msgs_per_op /= k;
  total.msgs_per_acq /= k;
  total.mean_request_latency_ms /= k;
  total.mean_latency_ms /= k;
  total.p90_latency_ms /= k;
  total.w_latency_ms /= k;
  total.mean_recovery_ms /= k;
  return total;
}

double paper_latency_metric_ms(AppVariant variant,
                               const ExperimentResult& r) {
  if (variant == AppVariant::kNaimiSameWork) return r.mean_latency_ms;
  return r.mean_request_latency_ms;
}

double paper_message_metric(AppVariant variant, const ExperimentResult& r) {
  if (variant == AppVariant::kNaimiSameWork) {
    // Normalize by functional requests: the same-work variant does the
    // same application work per operation as the other variants, with more
    // acquisitions; dividing by operations keeps the comparison on equal
    // functionality (this is what makes its curve superlinear, as in the
    // paper's Fig. 7).
    return r.msgs_per_op;
  }
  return r.msgs_per_acq;
}

std::string series_name(AppVariant variant) {
  return workload::to_string(variant);
}

}  // namespace hlock::bench
