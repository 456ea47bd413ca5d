// hlock_sim — parameterized experiment runner.
//
// Runs one airline-workload experiment on the simulated cluster with every
// knob on the command line, printing a one-line summary or CSV. This is the
// tool for exploring the parameter space beyond the fixed figure sweeps:
//
//   hlock_sim --protocol hier --nodes 64 --ratio 10 --net-latency-us 150
//   hlock_sim --protocol naimi-same-work --nodes 24 --entries 8 --csv
//   hlock_sim --protocol hier --nodes 32 --no-freezing --seeds 5
//
// With --chaos it instead runs a live ThreadCluster (real threads, real
// transports) under the fault-injecting transport and verifies mutual
// exclusion end-to-end while the wire drops, delays and partitions (see
// docs/faults.md):
//
//   hlock_sim --chaos --nodes 8 --ops 30 --fault-drop 0.1 --fault-delay 0.1
//   hlock_sim --chaos --chaos-transport tcp --partition-ms 100
//
// --lint streams every structured protocol event through the conformance
// linter (src/lint) and fails the run on any divergence from the paper's
// Rules 1-7 / Tables 1(a)-(d). Works on both the simulator and --chaos
// paths (hierarchical protocol only).
//
// --sched-seeds N runs the chaos scenario under the deterministic schedule
// explorer (src/sched): each seed is one forked child whose thread
// interleaving is fully controlled by a seeded random-priority scheduler;
// a proven deadlock prints the blocked threads, their held locks and the
// replay seed. --sched-seed S replays exactly one schedule in-process (for
// debuggers). See docs/sched.md.
//
// --spans assembles per-request causal spans from the event stream and
// prints the phase-latency breakdown table; --obs-out=<dir> additionally
// exports a Chrome trace_event JSON (load in chrome://tracing or Perfetto)
// and arms the flight recorder: if the run aborts, violates the lint, or
// loses mutual exclusion, the trace ring + spans + metrics are dumped to a
// timestamped report under <dir>. Both work on the simulator and --chaos
// paths (hierarchical protocol only). See docs/observability.md.
#include <cstdio>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/common/experiment.hpp"
#include "lint/checker.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/span.hpp"
#include "runtime/thread_cluster.hpp"
#include "sched/explorer.hpp"
#include "sched/harness.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/http_exporter.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/watchdog.hpp"
#include "trace/recorder.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace hlock;
using bench::AppVariant;
using bench::ExperimentConfig;
using bench::ExperimentResult;

namespace {

/// Parses a `--kill` schedule: "node@ms[,node@ms...]" (simulated
/// milliseconds). Example: --kill 1@3000,4@4500.
std::vector<workload::WorkloadSpec::Kill> parse_kills(
    const std::string& spec, std::size_t node_count) {
  std::vector<workload::WorkloadSpec::Kill> kills;
  std::size_t begin = 0;
  while (begin < spec.size()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(begin, end - begin);
    const std::size_t at = entry.find('@');
    if (at == std::string::npos || at == 0 || at + 1 >= entry.size()) {
      throw UsageError("--kill entries must look like node@ms: " + entry);
    }
    std::size_t parsed = 0;
    unsigned long node = 0;
    unsigned long long ms = 0;
    try {
      node = std::stoul(entry.substr(0, at), &parsed);
      if (parsed != at) throw std::invalid_argument(entry);
      ms = std::stoull(entry.substr(at + 1), &parsed);
      if (parsed != entry.size() - at - 1) throw std::invalid_argument(entry);
    } catch (const std::exception&) {
      throw UsageError("--kill entries must look like node@ms: " + entry);
    }
    if (node >= node_count) {
      throw UsageError("--kill names node " + std::to_string(node) +
                       " but the cluster has " + std::to_string(node_count) +
                       " nodes");
    }
    kills.push_back({proto::NodeId{static_cast<std::uint32_t>(node)},
                     SimTime::ms(static_cast<std::int64_t>(ms))});
    begin = end + 1;
  }
  return kills;
}

AppVariant parse_variant(const std::string& name) {
  if (name == "hier" || name == "hierarchical") {
    return AppVariant::kHierarchical;
  }
  if (name == "naimi-pure") return AppVariant::kNaimiPure;
  if (name == "naimi-same-work") return AppVariant::kNaimiSameWork;
  throw UsageError("--protocol must be hier, naimi-pure or naimi-same-work");
}

/// Appends one failed check to `failures`, the "; "-joined list that sets
/// a run's exit code and names its flight record.
void add_failure(std::string& failures, const std::string& check) {
  if (!failures.empty()) failures += "; ";
  failures += check;
}

/// What --spans and --obs-out collect from a run (simulator or --chaos)
/// and the artifacts they leave: the phase table, the Chrome trace, and a
/// flight record when the run fails or the watchdog flags a stall.
struct RunArtifacts {
  bool spans = false;
  /// The --obs-out directory; empty = no files.
  std::string obs_out;
  std::size_t node_count = 0;
  obs::SpanCollector collector;
  trace::TraceRecorder ring;
  /// The run's telemetry; every flight record carries its exposition.
  const telemetry::Registry* registry = nullptr;

  bool collecting() const { return spans || !obs_out.empty(); }

  /// Dumps a flight record under obs_out; returns its path ("" if none).
  std::string flight_record(const std::string& reason) const {
    return obs::dump_flight_record(
        obs_out, reason,
        {.recorder = &ring,
         .spans = &collector,
         .metrics = registry == nullptr
                        ? ""
                        : telemetry::render_prometheus(registry->snapshot()),
         .node_count = node_count});
  }

  /// The run's last step: the --spans table, then under --obs-out the
  /// Chrome trace `trace_name` and, if `failures` is not empty, a flight
  /// record naming them. `width` aligns the labels with the run's summary.
  void finish(const std::string& trace_name, const std::string& failures,
              int width) const {
    if (spans) {
      std::printf("\nphase-latency breakdown (%zu spans, %zu complete):\n%s",
                  collector.span_count(), collector.completed_count(),
                  obs::render_phase_table(collector.phase_breakdown())
                      .c_str());
    }
    if (obs_out.empty()) return;
    std::error_code ec;
    std::filesystem::create_directories(obs_out, ec);
    const std::string path = obs_out + "/" + trace_name;
    obs::write_chrome_trace(path, collector.spans(), node_count);
    std::printf("  %-*s: %s (%zu spans)\n", width, "chrome trace",
                path.c_str(), collector.span_count());
    if (failures.empty()) return;
    const std::string report = flight_record(failures);
    if (!report.empty()) {
      std::printf("  %-*s: %s\n", width, "flight record", report.c_str());
    }
  }
};

/// The --chaos-transport value, for both live-cluster modes (--chaos and
/// --sched-seeds / --sched-seed).
runtime::TransportKind chaos_transport(const CliParser& cli) {
  const std::string transport = cli.get_string("chaos-transport");
  if (transport == "tcp") return runtime::TransportKind::kTcp;
  if (transport == "inproc") return runtime::TransportKind::kInProc;
  throw UsageError("--chaos-transport must be inproc or tcp");
}

/// Runs the --chaos scenario: an exclusive-counter workload on a live
/// ThreadCluster with the requested fault plan. Returns the process exit
/// code (0 = mutual exclusion and full progress).
int run_chaos(const CliParser& cli) {
  runtime::ThreadClusterOptions options;
  options.node_count = static_cast<std::size_t>(cli.get_int("nodes", 1, 256));
  options.transport = chaos_transport(cli);
  const std::string transport = cli.get_string("chaos-transport");
  options.seed = static_cast<std::uint64_t>(
      cli.get_int("seed", 0, std::numeric_limits<std::int64_t>::max()));

  // Crash-stop injection (docs/recovery.md): --kill-rate random crash-stops
  // per second. The exact-counter mutual-exclusion check does not survive
  // kills (a zombie holder's last increment is legitimately lost), so this
  // mode verifies with an epoch-keyed overlap detector instead: overlapping
  // with an older-epoch occupant means the crash was fenced (OK); a same-
  // or newer-epoch occupant is a real violation.
  const double kill_rate = cli.get_double("kill-rate", 0.0, 100.0);
  const bool kills_on = kill_rate > 0.0;
  if (kills_on) {
    if (options.node_count < 3) {
      throw UsageError("--kill-rate needs at least 3 nodes");
    }
    options.recovery.enabled = true;
    options.recovery.heartbeat_interval =
        SimTime::ms(cli.get_int("heartbeat-ms", 1, 60000));
    options.recovery.suspect_after =
        SimTime::ms(cli.get_int("suspect-ms", 1, 600000));
  }
  std::size_t max_kills =
      static_cast<std::size_t>(cli.get_int("max-kills", 0, 4096));
  if (max_kills == 0) max_kills = options.node_count / 2;
  max_kills = std::min(max_kills, options.node_count - 2);

  transport::FaultPlan plan;
  plan.seed = options.seed;
  plan.drop_probability = cli.get_double("fault-drop", 0.0, 1.0);
  plan.delay_probability = cli.get_double("fault-delay", 0.0, 1.0);
  plan.delay = DurationDist::uniform(
      SimTime::us(cli.get_int("fault-delay-us", 0, 10000000)), 0.5);
  const std::int64_t partition_ms = cli.get_int("partition-ms", 0, 600000);
  if (partition_ms > 0 && kills_on) {
    // Suspicions are never retracted: a partition would permanently fence
    // out half the cluster, and the fenced-out (but live) half could never
    // drain its operations.
    throw UsageError("--kill-rate cannot be combined with --partition-ms");
  }
  if (partition_ms > 0) {
    // Cut the cluster in half; the halves reunite after the heal time.
    transport::FaultPlan::Partition partition;
    for (std::size_t i = 0; i < options.node_count / 2; ++i) {
      partition.side_a.push_back(
          proto::NodeId{static_cast<std::uint32_t>(i)});
    }
    partition.heal_after = SimTime::ms(partition_ms);
    plan.partitions.push_back(std::move(partition));
  }
  options.faults = plan;
  if (!plan.any()) {
    std::fprintf(stderr,
                 "note: --chaos with no --fault-* knobs runs fault-free\n");
  }

  const bool lint = cli.get_flag("lint");
  RunArtifacts artifacts;
  artifacts.spans = cli.get_flag("spans");
  artifacts.obs_out = cli.get_string("obs-out");
  artifacts.node_count = options.node_count;
  const bool observe = lint || artifacts.collecting();
  if (observe) options.hier_config.trace_events = true;
  // LintOptions defaults mirror the default HierConfig the chaos cluster
  // runs with; the initial token holder is the default root, node 0.
  lint::LintOptions lint_options;
  lint_options.initial_token = options.initial_root;
  lint::Checker checker{lint_options};

  // Live telemetry (docs/telemetry.md): any of --metrics-out,
  // --metrics-port, --watchdog or --doctor-stall-ms turns the registry on.
  // All of these outlive the cluster scope below, so the watchdog's stall
  // hook and the sampler's final tick stay valid through teardown.
  const std::string metrics_out = cli.get_string("metrics-out");
  const bool serve_metrics = cli.was_set("metrics-port");
  const std::int64_t doctor_stall_ms =
      cli.get_int("doctor-stall-ms", 0, 600000);
  const bool watchdog_on = cli.get_flag("watchdog") || doctor_stall_ms > 0;
  const bool telemetry_on =
      !metrics_out.empty() || serve_metrics || watchdog_on;
  telemetry::Registry registry;
  std::unique_ptr<telemetry::StallWatchdog> watchdog;
  std::unique_ptr<telemetry::Sampler> sampler;
  std::unique_ptr<telemetry::HttpExporter> exporter;
  if (telemetry_on) {
    options.metrics = &registry;
    artifacts.registry = &registry;
    if (watchdog_on) {
      telemetry::WatchdogOptions watchdog_options;
      watchdog_options.multiplier =
          cli.get_double("watchdog-multiplier", 1.0, 1e9);
      watchdog_options.floor = std::chrono::milliseconds(
          cli.get_int("watchdog-floor-ms", 1, 600000));
      watchdog =
          std::make_unique<telemetry::StallWatchdog>(registry,
                                                     watchdog_options);
      watchdog->set_on_stall([&artifacts](const telemetry::StallReport& r) {
        std::fprintf(stderr,
                     "WATCHDOG: %s waited %.1f ms "
                     "(threshold %.1f ms, p99 %.1f ms, %llu pending)\n",
                     r.label.c_str(), r.waited_ms, r.threshold_ms, r.p99_ms,
                     static_cast<unsigned long long>(r.pending));
        // The record carries the metrics as they were when the stall was
        // flagged.
        if (!artifacts.obs_out.empty()) {
          artifacts.flight_record("stall watchdog: " + r.label);
        }
      });
      watchdog->start();
      options.watchdog = watchdog.get();
    }
    telemetry::SamplerOptions sampler_options;
    sampler_options.interval = std::chrono::milliseconds(
        cli.get_int("metrics-interval-ms", 10, 600000));
    sampler_options.out_path = metrics_out;
    sampler = std::make_unique<telemetry::Sampler>(registry, sampler_options);
    sampler->start();
    if (serve_metrics) {
      exporter = std::make_unique<telemetry::HttpExporter>(
          registry,
          static_cast<std::uint16_t>(cli.get_int("metrics-port", 0, 65535)));
      std::printf("metrics: serving http://127.0.0.1:%u/metrics\n",
                  exporter->port());
      std::fflush(stdout);
    }
  }

  const int ops = static_cast<int>(cli.get_int("ops", 1, 100000));
  long counter = 0;  // unprotected on purpose: the lock is the protection
  std::uint64_t messages_sent = 0;
  std::uint64_t receiver_errors = 0;
  std::string transport_counters;
  // --kill-rate verification state: the epoch-keyed critical-section
  // occupancy probe, per-worker completion counts and the cluster's end
  // state (captured before teardown).
  struct CsProbe {
    std::mutex mutex;
    bool occupied = false;
    std::uint32_t node = 0;
    std::uint32_t epoch = 0;
    std::uint64_t fenced_overlaps = 0;
    std::uint64_t violations = 0;
  } probe;
  std::vector<long> completed(options.node_count, 0);
  std::vector<char> live_at_end(options.node_count, 1);
  std::size_t kills_done = 0;
  std::uint32_t max_epoch = 0;
  std::uint64_t recoveries = 0;
  {
    runtime::ThreadCluster cluster{options};
    if (observe) {
      cluster.set_event_sink([&checker, &artifacts,
                              lint](trace::TraceEvent event) {
        if (lint) checker.add(event);
        if (artifacts.collecting()) artifacts.collector.observe(event);
        if (!artifacts.obs_out.empty()) artifacts.ring.record(std::move(event));
      });
    }
    std::vector<std::thread> workers;
    // Kill mode holds the lock for --cs-ms per op (the exact-counter mode
    // keeps its instant yield-only section): crash-stops need a window in
    // which the victim actually owns something worth recovering.
    const std::int64_t cs_ms = cli.get_int("cs-ms", 0, 1000000);
    for (std::uint32_t i = 0; i < options.node_count; ++i) {
      if (kills_on) {
        workers.emplace_back([&cluster, &probe, &completed, ops, cs_ms, i] {
          const proto::NodeId node{i};
          for (int k = 0; k < ops; ++k) {
            try {
              cluster.lock(node, proto::LockId{0}, proto::LockMode::kW);
              if (!cluster.alive(node)) break;  // crash-stop wake-up
              const std::uint32_t epoch = cluster.recovery_epoch_of(node);
              {
                std::lock_guard<std::mutex> guard{probe.mutex};
                if (probe.occupied) {
                  if (probe.epoch < epoch) {
                    ++probe.fenced_overlaps;  // stale holder, fenced out
                  } else {
                    ++probe.violations;
                  }
                }
                probe.occupied = true;
                probe.node = i;
                probe.epoch = epoch;
              }
              if (cs_ms > 0) {
                std::this_thread::sleep_for(std::chrono::milliseconds(cs_ms));
              } else {
                std::this_thread::yield();
              }
              {
                std::lock_guard<std::mutex> guard{probe.mutex};
                if (probe.occupied && probe.node == i &&
                    probe.epoch == epoch) {
                  probe.occupied = false;
                }
                // A newer-epoch entrant may have overwritten the record
                // after our node was fenced out; leave theirs in place.
              }
              cluster.unlock(node, proto::LockId{0});
              ++completed[i];
            } catch (const UsageError&) {
              break;  // this node crash-stopped mid-operation
            }
          }
        });
      } else {
        workers.emplace_back([&cluster, &counter, ops, i, doctor_stall_ms] {
          for (int k = 0; k < ops; ++k) {
            cluster.lock(proto::NodeId{i}, proto::LockId{0},
                         proto::LockMode::kW);
            if (doctor_stall_ms > 0 && i == 0 && k == 0) {
              // Doctored starvation: hold the exclusive lock long enough
              // that every other node's wait blows past the watchdog
              // threshold (CI proves the watchdog actually fires).
              std::this_thread::sleep_for(
                  std::chrono::milliseconds(doctor_stall_ms));
            }
            const long snapshot = counter;
            std::this_thread::yield();
            counter = snapshot + 1;
            cluster.unlock(proto::NodeId{i}, proto::LockId{0});
          }
        });
      }
    }
    std::atomic<bool> workers_done{false};
    std::thread killer;
    if (kills_on) {
      // Dice roll every 20 ms: P(kill) = rate x 0.02 per step, victims
      // drawn uniformly from the live set, never below two survivors.
      killer = std::thread([&cluster, &workers_done, &kills_done, kill_rate,
                            max_kills, seed = options.seed] {
        Rng rng{seed * 0x9e3779b97f4a7c15ULL + 1};
        while (!workers_done.load(std::memory_order_acquire) &&
               kills_done < max_kills) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          if (!rng.chance(std::min(1.0, kill_rate * 0.02))) continue;
          std::vector<std::uint32_t> live;
          for (std::uint32_t n = 0;
               n < static_cast<std::uint32_t>(cluster.node_count()); ++n) {
            if (cluster.alive(proto::NodeId{n})) live.push_back(n);
          }
          if (live.size() <= 2) break;
          cluster.crash_stop(proto::NodeId{live[rng.below(live.size())]});
          ++kills_done;
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    workers_done.store(true, std::memory_order_release);
    if (killer.joinable()) killer.join();
    if (kills_on) {
      for (std::uint32_t i = 0; i < options.node_count; ++i) {
        const proto::NodeId node{i};
        live_at_end[i] = cluster.alive(node) ? 1 : 0;
        if (live_at_end[i] == 0) continue;
        max_epoch = std::max(max_epoch, cluster.recovery_epoch_of(node));
        recoveries =
            std::max(recoveries, cluster.recovery_counters(node).recoveries);
      }
    }
    messages_sent = cluster.messages_sent();
    receiver_errors = cluster.receiver_errors();
    // Each transport prints what it counts: the fault plan's wire its
    // faults, TCP its retries, reconnects and bad frames.
    if (const stats::FaultCounters* faults = cluster.fault_counters()) {
      transport_counters = stats::to_string(faults->snapshot());
    }
    if (const stats::TcpCounters* tcp = cluster.tcp_counters()) {
      if (!transport_counters.empty()) transport_counters += ' ';
      transport_counters += stats::to_string(tcp->snapshot());
    }
    // Cluster teardown joins the receivers, so once the scope closes no
    // event can still be in flight toward the checker.
  }

  const long expected = static_cast<long>(options.node_count) * ops;
  // Each failed check names itself, for the exit code and the flight
  // record alike.
  std::string failures;
  long done = 0;
  bool survivors_drained = true;
  if (kills_on) {
    for (std::uint32_t i = 0; i < options.node_count; ++i) {
      done += completed[i];
      if (live_at_end[i] != 0 && completed[i] != ops) {
        survivors_drained = false;
      }
    }
    if (probe.violations > 0) {
      add_failure(failures, "chaos run lost mutual exclusion (" +
                                std::to_string(probe.violations) +
                                " same-epoch overlaps)");
    }
    if (!survivors_drained) {
      add_failure(failures, "chaos run left surviving nodes undrained");
    }
  } else if (counter != expected) {
    add_failure(failures, "chaos run lost mutual exclusion (counter " +
                              std::to_string(counter) + " of " +
                              std::to_string(expected) + ")");
  }
  if (receiver_errors > 0) {
    add_failure(failures, "chaos run had " + std::to_string(receiver_errors) +
                              " receiver errors");
  }
  const bool ok = failures.empty();
  if (kills_on) {
    std::printf("chaos: %zu nodes (%s), %zu killed, %ld/%ld ops, "
                "mutual exclusion %s\n",
                options.node_count, transport.c_str(), kills_done, done,
                expected, ok ? "OK" : "VIOLATED");
    std::printf("  recovery      : epoch %u, %llu recoveries, survivors "
                "%sdrained\n",
                max_epoch, static_cast<unsigned long long>(recoveries),
                survivors_drained ? "" : "NOT ");
    std::printf("  overlaps      : %llu fenced (stale holders), %llu "
                "same-epoch (real violations)\n",
                static_cast<unsigned long long>(probe.fenced_overlaps),
                static_cast<unsigned long long>(probe.violations));
  } else {
    std::printf("chaos: %zu nodes (%s), %ld/%ld ops, mutual exclusion %s\n",
                options.node_count, transport.c_str(), counter, expected,
                ok ? "OK" : "VIOLATED");
  }
  std::printf("  messages sent : %llu\n",
              static_cast<unsigned long long>(messages_sent));
  if (!transport_counters.empty()) {
    std::printf("  %s\n", transport_counters.c_str());
  }
  if (telemetry_on) {
    // Final tick: the exposition file ends at the run's true end state
    // (the cluster is down, so its callback series are already gone).
    sampler->stop();
    std::printf("  metrics       : %zu series", registry.series_count());
    if (!metrics_out.empty()) std::printf(" -> %s", metrics_out.c_str());
    if (exporter != nullptr) {
      std::printf(", %llu scrapes served",
                  static_cast<unsigned long long>(
                      exporter->scrapes_served()));
    }
    std::printf("\n");
    if (watchdog != nullptr) {
      watchdog->stop();
      std::printf("  stalls flagged: %llu (threshold %.1f ms)\n",
                  static_cast<unsigned long long>(watchdog->stalled_total()),
                  watchdog->threshold_ms());
    }
  }
  if (lint) {
    const lint::LintReport report = checker.finish();
    std::printf("  %s", report.render().c_str());
    if (!report.ok()) add_failure(failures, "conformance lint violation");
  }
  artifacts.finish("chaos-trace.json", failures, 14);
  return failures.empty() ? 0 : 1;
}

/// Runs the --sched-seeds / --sched-seed scenario: the chaos exclusive-
/// counter workload on a live in-process ThreadCluster, with every thread
/// interleaving driven by the deterministic schedule explorer
/// (docs/sched.md). TCP stays available but makes replay best-effort
/// (real sockets add nondeterminism the scheduler cannot seed).
int run_sched(const CliParser& cli) {
  runtime::ThreadClusterOptions options;
  options.node_count = static_cast<std::size_t>(cli.get_int("nodes", 1, 64));
  options.transport = chaos_transport(cli);
  const int ops = static_cast<int>(cli.get_int("ops", 1, 100000));
  const long expected = static_cast<long>(options.node_count) * ops;

  // One explored schedule: cluster up, N worker threads hammer one W lock,
  // cluster down. `ok` is written before the body returns so the forked
  // child's `failed` predicate can read it.
  bool ok = false;
  const auto body = [&ok, options, ops, expected] {
    long counter = 0;  // unprotected on purpose: the lock is the protection
    {
      runtime::ThreadCluster cluster{options};
      std::vector<sched::Thread> workers;
      workers.reserve(options.node_count);
      for (std::uint32_t i = 0;
           i < static_cast<std::uint32_t>(options.node_count); ++i) {
        const std::string name = "worker-" + std::to_string(i);
        workers.emplace_back(
            sched::Thread(name.c_str(), [&cluster, &counter, ops, i] {
              for (int k = 0; k < ops; ++k) {
                cluster.lock(proto::NodeId{i}, proto::LockId{0},
                             proto::LockMode::kW);
                const long snapshot = counter;
                sched::yield_point("hlock_sim.cs");
                counter = snapshot + 1;
                cluster.unlock(proto::NodeId{i}, proto::LockId{0});
              }
            }));
      }
      for (sched::Thread& worker : workers) worker.join();
    }
    ok = counter == expected;
  };

  sched::ExplorerOptions explorer_options;
  explorer_options.change_interval = static_cast<std::uint32_t>(
      cli.get_int("sched-change-interval", 0, 1 << 20));

  if (cli.was_set("sched-seed")) {
    // Replay one schedule in-process (debugger-friendly; a deadlock ends
    // the process with the report and exit code kSchedDeadlockExit).
    explorer_options.seed = static_cast<std::uint64_t>(cli.get_int(
        "sched-seed", 1, std::numeric_limits<std::int64_t>::max()));
    sched::Explorer explorer{explorer_options};
    explorer.run(body);
    std::printf(
        "sched: seed %llu complete after %llu decisions, "
        "fingerprint %llu, workload %s\n",
        static_cast<unsigned long long>(explorer_options.seed),
        static_cast<unsigned long long>(explorer.steps()),
        static_cast<unsigned long long>(explorer.schedule_fingerprint()),
        ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
  }

  const std::int64_t seeds = cli.get_int("sched-seeds", 1, 100000);
  const std::uint64_t base = static_cast<std::uint64_t>(cli.get_int(
      "seed", 0, std::numeric_limits<std::int64_t>::max()));
  int bad = 0;
  for (std::int64_t s = 0; s < seeds; ++s) {
    explorer_options.seed = base + static_cast<std::uint64_t>(s);
    const bool* ok_view = &ok;
    const sched::SeedResult result = sched::run_seed(
        explorer_options, body, [ok_view] { return !*ok_view; });
    std::printf("sched: seed %llu %s\n",
                static_cast<unsigned long long>(explorer_options.seed),
                sched::seed_verdict_name(result.verdict));
    if (result.verdict != sched::SeedVerdict::kOk) {
      ++bad;
      // The child's captured output carries the deadlock report / failure
      // detail and the replay instructions.
      std::fputs(result.output.c_str(), stderr);
      std::fprintf(stderr, "sched: replay with --sched-seed %llu\n",
                   static_cast<unsigned long long>(explorer_options.seed));
    }
  }
  std::printf("sched: %lld/%lld seeds clean\n",
              static_cast<long long>(seeds - bad),
              static_cast<long long>(seeds));
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli{"hlock_sim",
                "run one hlock experiment on the simulated cluster"};
  cli.add_option("protocol", "hier",
                 "hier | naimi-pure | naimi-same-work");
  cli.add_option("nodes", "16", "number of cluster nodes (1-4096)");
  cli.add_option("ops", "60", "operations per node");
  cli.add_option("entries", "6", "ticket-table entries");
  cli.add_option("cs-ms", "15", "mean critical-section length, ms");
  cli.add_option("ratio", "10",
                 "non-critical : critical ratio (idle = ratio x cs)");
  cli.add_option("net-latency-us", "150",
                 "mean one-way network latency, microseconds");
  cli.add_option("seed", "1", "base random seed");
  cli.add_option("seeds", "1", "number of seeds to average over");
  cli.add_flag("no-local-queueing", "disable Rule 4.1 local queueing");
  cli.add_flag("no-child-grants", "disable Rule 3.1 copyset grants");
  cli.add_flag("no-compression", "disable dynamic path compression");
  cli.add_flag("no-freezing", "disable Rule 6 mode freezing");
  cli.add_flag("csv", "print a CSV row (with header) instead of text");
  cli.add_flag("lint",
               "conformance-lint every protocol event against the paper's "
               "spec tables (hier only; also honored by --chaos)");
  cli.add_option("trace-dump", "",
                 "write every structured protocol event to this file as "
                 "format_event lines, for hlock_lint (hier only)");
  cli.add_flag("spans",
               "assemble per-request causal spans and print the "
               "phase-latency breakdown table (hier only; also honored by "
               "--chaos)");
  cli.add_option("obs-out", "",
                 "write observability artifacts (Chrome trace JSON; flight "
                 "record on failure) to this directory (hier only; also "
                 "honored by --chaos)");
  cli.add_option("histogram", "0",
                 "print a latency histogram with this many buckets");
  cli.add_flag("chaos",
               "run a fault-injected ThreadCluster scenario (real threads) "
               "instead of the simulator");
  cli.add_option("chaos-transport", "inproc",
                 "chaos transport: inproc | tcp");
  cli.add_option("fault-drop", "0", "chaos: wire loss probability [0,1]");
  cli.add_option("fault-delay", "0", "chaos: extra-delay probability [0,1]");
  cli.add_option("fault-delay-us", "1000",
                 "chaos: mean injected delay, microseconds");
  cli.add_option("partition-ms", "0",
                 "chaos: partition half the cluster, heal after this many "
                 "milliseconds (0 = no partition)");
  cli.add_option("kill", "",
                 "simulator crash-stop schedule: node@ms[,node@ms...] — "
                 "kills each node at the given simulated time and lets the "
                 "survivors recover (docs/recovery.md; implies --recovery)");
  cli.add_flag("recovery",
               "enable the heartbeat failure detector and epoch-fenced "
               "recovery layer without scheduling any kill (overhead runs)");
  cli.add_option("kill-rate", "0",
                 "chaos: expected crash-stops per second; survivors must "
                 "recover, mutual exclusion is checked with an epoch-keyed "
                 "overlap detector (docs/recovery.md)");
  cli.add_option("max-kills", "0",
                 "chaos: cap on --kill-rate crash-stops (0 = half the "
                 "cluster; at least two nodes always stay alive)");
  cli.add_option("heartbeat-ms", "100",
                 "recovery: failure-detector heartbeat interval, ms");
  cli.add_option("suspect-ms", "1000",
                 "recovery: declare a silent node dead after this long, ms");
  cli.add_option("recovery-horizon-ms", "120000",
                 "simulator: stop scheduling heartbeat ticks past this "
                 "simulated time (keeps runs finite)");
  cli.add_option("sched-seeds", "0",
                 "explore this many deterministic schedules of the chaos "
                 "scenario (each seed forks a child; see docs/sched.md)");
  cli.add_option("sched-seed", "0",
                 "replay exactly one explored schedule in-process "
                 "(the seed a failing exploration printed)");
  cli.add_option("sched-change-interval", "12",
                 "sched: mean scheduling decisions between priority-change "
                 "points (0 = none)");
  cli.add_option("metrics-out", "",
                 "write Prometheus text exposition to this file (chaos: "
                 "rewritten atomically every --metrics-interval-ms; "
                 "simulator: final state)");
  cli.add_option("metrics-interval-ms", "500",
                 "chaos: sampler tick interval, milliseconds");
  cli.add_option("metrics-port", "0",
                 "chaos: serve GET /metrics on this loopback port "
                 "(0 = ephemeral; the bound port is printed)");
  cli.add_flag("watchdog",
               "chaos: flag requests waiting beyond "
               "max(multiplier x p99 wait, floor) — docs/telemetry.md");
  cli.add_option("watchdog-multiplier", "8",
                 "chaos: stall threshold multiplier over the observed p99");
  cli.add_option("watchdog-floor-ms", "100",
                 "chaos: minimum stall threshold, milliseconds");
  cli.add_option("doctor-stall-ms", "0",
                 "chaos: worker 0 holds the lock this long on its first "
                 "acquisition (implies --watchdog; proves the watchdog "
                 "fires)");

  return cli.run(argc, argv, [&] {
    if (cli.was_set("sched-seeds") || cli.was_set("sched-seed")) {
      return run_sched(cli);
    }
    if (cli.get_flag("chaos")) return run_chaos(cli);

    ExperimentConfig config;
    config.variant = parse_variant(cli.get_string("protocol"));
    config.nodes = static_cast<std::size_t>(cli.get_int("nodes", 1, 4096));
    config.ops_per_node = static_cast<int>(cli.get_int("ops", 0, 1000000));
    config.table_entries =
        static_cast<std::size_t>(cli.get_int("entries", 1, 1024));
    const std::int64_t cs_ms = cli.get_int("cs-ms", 0, 1000000);
    const double ratio = cli.get_double("ratio", 0.0, 1e6);
    config.cs_length = DurationDist::uniform(SimTime::ms(cs_ms), 0.5);
    config.idle_time = DurationDist::uniform(
        SimTime::ms_f(static_cast<double>(cs_ms) * ratio), 0.5);
    config.net_latency = DurationDist::uniform(
        SimTime::us(cli.get_int("net-latency-us", 0, 100000000)), 0.5);
    config.seed = static_cast<std::uint64_t>(
        cli.get_int("seed", 0, std::numeric_limits<std::int64_t>::max()));
    config.hier_config.local_queueing = !cli.get_flag("no-local-queueing");
    config.hier_config.child_grants = !cli.get_flag("no-child-grants");
    config.hier_config.path_compression = !cli.get_flag("no-compression");
    config.hier_config.freezing = !cli.get_flag("no-freezing");
    const std::string kill_spec = cli.get_string("kill");
    if (!kill_spec.empty() || cli.get_flag("recovery")) {
      config.recovery.enabled = true;
      config.recovery.heartbeat_interval =
          SimTime::ms(cli.get_int("heartbeat-ms", 1, 60000));
      config.recovery.suspect_after =
          SimTime::ms(cli.get_int("suspect-ms", 1, 600000));
      config.recovery_horizon =
          SimTime::ms(cli.get_int("recovery-horizon-ms", 1000, 3600000));
      config.kills = parse_kills(kill_spec, config.nodes);
    }
    config.lint = cli.get_flag("lint");
    const std::string dump_path = cli.get_string("trace-dump");
    std::vector<trace::TraceEvent> captured;
    if (!dump_path.empty()) config.capture_events = &captured;
    RunArtifacts artifacts;
    artifacts.spans = cli.get_flag("spans");
    artifacts.obs_out = cli.get_string("obs-out");
    artifacts.node_count = config.nodes;
    if ((config.lint || !dump_path.empty() || artifacts.collecting()) &&
        config.variant != AppVariant::kHierarchical) {
      throw UsageError(
          "--lint/--trace-dump/--spans/--obs-out apply to --protocol hier "
          "only");
    }

    const int seeds = static_cast<int>(cli.get_int("seeds", 1, 1000));
    if (artifacts.collecting()) {
      // Spans join events by (requester, seq), which restarts per seed; a
      // multi-seed average would splice unrelated requests together.
      if (seeds != 1) {
        throw UsageError("--spans/--obs-out require --seeds 1");
      }
      config.collect_spans = &artifacts.collector;
      config.record_events = &artifacts.ring;
    }
    const ExperimentResult result = bench::run_averaged(config, seeds);

    if (result.aborted) {
      // An early abort still reports the partial metrics instead of dying
      // with nothing but an exception message (kept off stdout in CSV mode
      // so the row stays machine-parseable).
      std::fprintf(cli.get_flag("csv") ? stderr : stdout,
                   "RUN ABORTED: %s\n"
                   "(metrics below cover the partial run up to the abort)\n",
                   result.abort_reason.c_str());
    }
    if (cli.get_flag("csv")) {
      std::printf("protocol,nodes,ops,msgs_per_request,msgs_per_op,"
                  "mean_request_latency_ms,mean_op_latency_ms,"
                  "p90_op_latency_ms,max_op_latency_ms\n");
      std::printf("%s,%zu,%llu,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n",
                  bench::series_name(config.variant).c_str(), config.nodes,
                  static_cast<unsigned long long>(result.ops),
                  result.msgs_per_acq, result.msgs_per_op,
                  result.mean_request_latency_ms, result.mean_latency_ms,
                  result.p90_latency_ms, result.max_latency_ms);
    } else {
      std::printf("%s, %zu nodes, %llu ops (%llu lock requests, %llu "
                  "messages)\n",
                  bench::series_name(config.variant).c_str(), config.nodes,
                  static_cast<unsigned long long>(result.ops),
                  static_cast<unsigned long long>(result.acquisitions),
                  static_cast<unsigned long long>(result.messages));
      std::printf("  messages/request : %.2f   (messages/op: %.2f)\n",
                  result.msgs_per_acq, result.msgs_per_op);
      std::printf("  request latency  : mean %.3f ms\n",
                  result.mean_request_latency_ms);
      std::printf("  op latency       : mean %.3f ms, p90 %.3f ms, max "
                  "%.3f ms\n",
                  result.mean_latency_ms, result.p90_latency_ms,
                  result.max_latency_ms);
      if (config.recovery.enabled) {
        std::printf("  recovery         : epoch %u, %llu recoveries "
                    "(mean %.3f ms), %llu stale drops, %zu nodes killed\n",
                    result.recovery_epoch,
                    static_cast<unsigned long long>(result.recoveries),
                    result.mean_recovery_ms,
                    static_cast<unsigned long long>(result.stale_drops),
                    result.nodes_killed);
      }
    }
    const auto buckets =
        static_cast<std::size_t>(cli.get_int("histogram", 0, 64));
    if (buckets > 0) {
      stats::HistogramOptions histogram;
      histogram.buckets = buckets;
      histogram.log_scale = true;
      std::printf("\nrequest latency distribution:\n%s",
                  stats::render_histogram(result.request_latency_samples_ms,
                                          histogram)
                      .c_str());
    }
    if (!dump_path.empty()) {
      std::FILE* out = std::fopen(dump_path.c_str(), "w");
      if (out == nullptr) {
        throw UsageError("cannot open trace dump file: " + dump_path);
      }
      for (const trace::TraceEvent& event : captured) {
        std::fprintf(out, "%s\n", trace::format_event(event).c_str());
      }
      std::fclose(out);
      std::printf("  trace dump       : %zu events -> %s\n", captured.size(),
                  dump_path.c_str());
    }
    std::string failures;
    if (result.aborted) {
      add_failure(failures, "experiment aborted: " + result.abort_reason);
    }
    if (config.lint) {
      if (result.lint_violation_count == 0) {
        std::printf("  lint             : ok — %zu events conform to the "
                    "spec\n",
                    result.lint_events_checked);
      } else {
        std::printf("  lint             : %zu violation(s) in %zu events\n%s",
                    result.lint_violation_count, result.lint_events_checked,
                    result.lint_report.c_str());
        add_failure(failures, "conformance lint violation");
      }
    }
    // The simulator runs under modelled time, so a live sampler has nothing
    // meaningful to tick against: the registry holds the final state, for
    // --metrics-out and for the flight record.
    telemetry::Registry registry;
    artifacts.registry = &registry;
    registry.gauge("hlock_sim_ops").set(static_cast<double>(result.ops));
    registry.gauge("hlock_sim_lock_requests")
        .set(static_cast<double>(result.acquisitions));
    registry.gauge("hlock_sim_messages")
        .set(static_cast<double>(result.messages));
    registry.gauge("hlock_sim_msgs_per_request").set(result.msgs_per_acq);
    const stats::Summary latency =
        stats::summarize(result.request_latency_samples_ms);
    registry.gauge("hlock_sim_request_latency_ms{q=\"mean\"}")
        .set(latency.mean);
    registry.gauge("hlock_sim_request_latency_ms{q=\"p50\"}").set(latency.p50);
    registry.gauge("hlock_sim_request_latency_ms{q=\"p99\"}").set(latency.p99);
    registry.gauge("hlock_sim_request_latency_ms{q=\"p999\"}")
        .set(latency.p999);
    registry.gauge("hlock_sim_request_latency_ms{q=\"max\"}").set(latency.max);
    const std::string metrics_out = cli.get_string("metrics-out");
    if (!metrics_out.empty()) {
      if (!telemetry::write_file_atomic(
              metrics_out,
              telemetry::render_prometheus(registry.snapshot()))) {
        throw UsageError("cannot write metrics file: " + metrics_out);
      }
      std::printf("  metrics          : %s\n", metrics_out.c_str());
    }
    artifacts.finish("sim-trace.json", failures, 17);
    return failures.empty() ? 0 : 1;
  });
}
