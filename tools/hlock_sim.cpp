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
// --kill-rate adds random crash-stops and epoch-fenced recovery to the
// --chaos run (docs/recovery.md). --sched-seeds N runs the --chaos run,
// faults included, under the deterministic schedule explorer (src/sched):
// each seed is one forked child whose thread interleaving is fully
// controlled by a seeded random-priority scheduler; a proven deadlock
// prints the blocked threads, their held locks and the replay seed.
// --sched-seed S replays exactly one schedule in-process (for debuggers).
// See docs/sched.md.
//
// An option the chosen mode does not use is refused (exit 2), so a flag is
// never silently ignored.
//
// --spans assembles per-request causal spans from the event stream and
// prints the phase-latency breakdown table; --obs-out=<dir> additionally
// exports a Chrome trace_event JSON (load in chrome://tracing or Perfetto)
// and arms the flight recorder: if the run aborts, violates the lint, or
// loses mutual exclusion, the trace ring + spans + metrics are dumped to a
// timestamped report under <dir>; --trace-dump writes the event stream for
// hlock_lint. All three need the hierarchical protocol and a single run, on
// the simulator and --chaos paths alike. See docs/observability.md.
#include <cstdio>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/common/experiment.hpp"
#include "lint/checker.hpp"
#include "obs/run_artifacts.hpp"
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
#include "trace/event.hpp"
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

/// One live-cluster run as the command line configures it: every node's
/// worker takes one lock in W mode --ops times on a live ThreadCluster,
/// under the requested fault plan, crash-stops and telemetry. --chaos runs
/// it once; --sched-seeds / --sched-seed run the same run under the
/// schedule explorer.
struct LiveRun {
  runtime::ThreadClusterOptions options;
  std::string transport;  ///< --chaos-transport, for the summary
  int ops = 0;
  /// How long each critical section holds the lock (zero = a yield), and
  /// how long worker 0's first one does.
  std::chrono::milliseconds hold{0};
  std::chrono::milliseconds first_hold{0};
  double kill_rate = 0.0;  ///< expected crash-stops per second
  std::size_t max_kills = 0;
  bool lint = false;
  obs::ArtifactOptions artifacts;
  /// Set when any telemetry flag is (docs/telemetry.md).
  std::optional<telemetry::SamplerOptions> sampler;
  std::optional<std::uint16_t> metrics_port;
  std::optional<telemetry::WatchdogOptions> watchdog;

  bool kills() const { return kill_rate > 0.0; }
};

/// Reads every flag a live run uses; `explored` = under the schedule
/// explorer, which refuses what it cannot drive (docs/sched.md).
LiveRun read_live_run(const CliParser& cli, bool explored) {
  LiveRun run;
  runtime::ThreadClusterOptions& options = run.options;
  options.node_count = static_cast<std::size_t>(
      cli.get_int("nodes", 1, explored ? 64 : 256));
  run.transport = cli.get_string("chaos-transport");
  if (run.transport == "tcp") {
    options.transport = runtime::TransportKind::kTcp;
  } else if (run.transport != "inproc") {
    throw UsageError("--chaos-transport must be inproc or tcp");
  }
  options.seed = static_cast<std::uint64_t>(
      cli.get_int("seed", 0, std::numeric_limits<std::int64_t>::max()));
  run.ops = static_cast<int>(cli.get_int("ops", 1, 100000));

  // Crash-stop injection (docs/recovery.md): --kill-rate random
  // crash-stops per second. Each critical section then holds the lock for
  // --cs-ms, so a victim owns something worth recovering.
  run.kill_rate = cli.get_double("kill-rate", 0.0, 100.0);
  if (run.kills()) {
    if (explored) {
      throw UsageError(
          "--kill-rate cannot be explored: kills fire on a real-time dice "
          "roll outside the schedule (see docs/sched.md)");
    }
    if (options.node_count < 3) {
      throw UsageError("--kill-rate needs at least 3 nodes");
    }
    options.recovery.enabled = true;
    options.recovery.heartbeat_interval =
        SimTime::ms(cli.get_int("heartbeat-ms", 1, 60000));
    options.recovery.suspect_after =
        SimTime::ms(cli.get_int("suspect-ms", 1, 600000));
    run.max_kills =
        static_cast<std::size_t>(cli.get_int("max-kills", 0, 4096));
    if (run.max_kills == 0) run.max_kills = options.node_count / 2;
    run.max_kills = std::min(run.max_kills, options.node_count - 2);
    run.hold = std::chrono::milliseconds(cli.get_int("cs-ms", 0, 1000000));
  }
  const std::int64_t stall_ms = cli.get_int("doctor-stall-ms", 0, 600000);
  run.first_hold = stall_ms > 0 ? std::chrono::milliseconds(stall_ms)
                                : run.hold;

  transport::FaultPlan& plan = options.faults;
  plan.seed = options.seed;
  plan.drop_probability = cli.get_double("fault-drop", 0.0, 1.0);
  plan.delay_probability = cli.get_double("fault-delay", 0.0, 1.0);
  if (plan.delay_probability > 0.0) {
    plan.delay = DurationDist::uniform(
        SimTime::us(cli.get_int("fault-delay-us", 0, 10000000)), 0.5);
  }
  const std::int64_t partition_ms = cli.get_int("partition-ms", 0, 600000);
  if (partition_ms > 0 && run.kills()) {
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

  run.lint = cli.get_flag("lint");
  run.artifacts = {.spans = cli.get_flag("spans"),
                   .obs_out = cli.get_string("obs-out"),
                   .trace_dump = cli.get_string("trace-dump"),
                   .node_count = options.node_count};

  // Live telemetry: any of --metrics-out, --metrics-port, --watchdog or
  // --doctor-stall-ms turns the registry and its sampler on.
  const std::string metrics_out = cli.get_string("metrics-out");
  if (cli.was_set("metrics-port")) {
    run.metrics_port =
        static_cast<std::uint16_t>(cli.get_int("metrics-port", 0, 65535));
  }
  if (cli.get_flag("watchdog") || stall_ms > 0) {
    telemetry::WatchdogOptions watchdog;
    watchdog.multiplier = cli.get_double("watchdog-multiplier", 1.0, 1e9);
    watchdog.floor = std::chrono::milliseconds(
        cli.get_int("watchdog-floor-ms", 1, 600000));
    run.watchdog = watchdog;
  }
  if (!metrics_out.empty() || run.metrics_port || run.watchdog) {
    run.sampler = telemetry::SamplerOptions{
        std::chrono::milliseconds(
            cli.get_int("metrics-interval-ms", 10, 600000)),
        metrics_out};
  }
  return run;
}

/// The exclusion check of every live run: an epoch-keyed occupancy probe
/// inside each critical section. Overlapping an older-epoch occupant means
/// the crash that stranded it was fenced (OK); a same- or newer-epoch
/// occupant is a real violation. Without recovery every epoch is 0, so
/// any overlap is one. The window spans the critical section's yield point
/// and hold, so an interleaving that would lose an increment of a counter
/// updated there overlaps two windows: the probe is at least as strong.
struct CsProbe {
  std::mutex mutex;  // std: invisible to the schedule explorer
  bool occupied = false;
  std::uint32_t node = 0;
  std::uint32_t epoch = 0;
  /// Read once the workers are joined.
  std::uint64_t fenced_overlaps = 0;
  std::uint64_t violations = 0;

  void enter(std::uint32_t entrant, std::uint32_t entrant_epoch) {
    std::lock_guard<std::mutex> guard{mutex};
    if (occupied) ++(epoch < entrant_epoch ? fenced_overlaps : violations);
    occupied = true;
    node = entrant;
    epoch = entrant_epoch;
  }

  void leave(std::uint32_t leaver, std::uint32_t leaver_epoch) {
    std::lock_guard<std::mutex> guard{mutex};
    // A newer-epoch entrant may have overwritten the record after this
    // node was fenced out; leave theirs in place.
    if (occupied && node == leaver && epoch == leaver_epoch) occupied = false;
  }
};

/// What a live run saw, captured before the cluster's teardown.
struct LiveOutcome {
  std::vector<long> completed;     ///< ops each node finished
  std::vector<char> live_at_end;  ///< 1 = the node was never killed
  std::size_t kills = 0;
  std::uint32_t max_epoch = 0;
  std::uint64_t recoveries = 0;
  CsProbe probe;
  std::uint64_t messages_sent = 0;
  std::uint64_t receiver_errors = 0;
  std::string transport_counters;
};

/// Prints a live run's summary; returns its failed checks (see
/// add_failure). Progress means every node still alive finished --ops.
std::string print_summary(const LiveRun& run, const LiveOutcome& out) {
  const std::size_t nodes = run.options.node_count;
  const long expected = static_cast<long>(nodes) * run.ops;
  long done = 0;
  bool drained = true;
  for (std::size_t i = 0; i < nodes; ++i) {
    done += out.completed[i];
    if (out.live_at_end[i] != 0 && out.completed[i] != run.ops) {
      drained = false;
    }
  }
  std::string failures;
  if (out.probe.violations > 0) {
    add_failure(failures, "chaos run lost mutual exclusion (" +
                              std::to_string(out.probe.violations) +
                              " same-epoch overlaps)");
  }
  if (!drained) {
    add_failure(failures, "chaos run left live nodes undrained");
  }
  if (out.receiver_errors > 0) {
    add_failure(failures, "chaos run had " +
                              std::to_string(out.receiver_errors) +
                              " receiver errors");
  }
  const std::string killed =
      run.kills() ? std::to_string(out.kills) + " killed, " : "";
  std::printf("chaos: %zu nodes (%s), %s%ld/%ld ops, mutual exclusion %s\n",
              nodes, run.transport.c_str(), killed.c_str(), done, expected,
              failures.empty() ? "OK" : "VIOLATED");
  if (run.kills()) {
    std::printf("  recovery      : epoch %u, %llu recoveries, survivors "
                "%sdrained\n",
                out.max_epoch, static_cast<unsigned long long>(out.recoveries),
                drained ? "" : "NOT ");
  }
  std::printf("  overlaps      : %llu fenced (stale holders), %llu "
              "same-epoch (real violations)\n",
              static_cast<unsigned long long>(out.probe.fenced_overlaps),
              static_cast<unsigned long long>(out.probe.violations));
  std::printf("  messages sent : %llu\n",
              static_cast<unsigned long long>(out.messages_sent));
  if (!out.transport_counters.empty()) {
    std::printf("  %s\n", out.transport_counters.c_str());
  }
  return failures;
}

/// Runs one live run and prints its summary; under --obs-out its Chrome
/// trace is `trace_name`. Returns the process exit code (0 = mutual
/// exclusion, full progress and, under --lint, a clean lint).
int run_live(const LiveRun& run, const std::string& trace_name) {
  const std::size_t nodes = run.options.node_count;
  lint::LintOptions lint_options;
  lint_options.initial_token = runtime::ThreadCluster::kInitialRoot;
  lint::Checker checker{lint_options};

  // All of these outlive the cluster scope below, so the watchdog's stall
  // hook and the sampler's final tick stay valid through teardown.
  runtime::ThreadClusterOptions options = run.options;
  telemetry::Registry registry;
  obs::RunArtifacts artifacts{run.artifacts, [&registry] {
                                return telemetry::render_prometheus(
                                    registry.snapshot());
                              }};
  options.hier_config.trace_events = run.lint || artifacts.collecting();
  std::unique_ptr<telemetry::StallWatchdog> watchdog;
  std::unique_ptr<telemetry::Sampler> sampler;
  std::unique_ptr<telemetry::HttpExporter> exporter;
  if (run.sampler) {
    options.metrics = &registry;
    if (run.watchdog) {
      watchdog =
          std::make_unique<telemetry::StallWatchdog>(registry, *run.watchdog);
      // One flight record per sweep, naming every request it flagged; the
      // record carries the metrics as they were when the sweep ended.
      watchdog->set_on_stall(
          [&artifacts](const std::vector<telemetry::StallReport>& sweep) {
            std::string reason = "stall watchdog:";
            for (const telemetry::StallReport& r : sweep) {
              std::fprintf(
                  stderr,
                  "WATCHDOG: %s waited %.1f ms "
                  "(threshold %.1f ms, p99 %.1f ms, %llu pending)\n",
                  r.label.c_str(), r.waited_ms, r.threshold_ms, r.p99_ms,
                  static_cast<unsigned long long>(r.pending));
              reason += (&r == &sweep.front() ? " " : ", ") + r.label;
            }
            artifacts.flight_record(reason);
          });
      watchdog->start();
      options.watchdog = watchdog.get();
    }
    sampler = std::make_unique<telemetry::Sampler>(registry, *run.sampler);
    sampler->start();
    if (run.metrics_port) {
      exporter = std::make_unique<telemetry::HttpExporter>(registry,
                                                           *run.metrics_port);
      std::printf("metrics: serving http://127.0.0.1:%u/metrics\n",
                  exporter->port());
      std::fflush(stdout);
    }
  }

  LiveOutcome out;
  out.completed.assign(nodes, 0);
  out.live_at_end.assign(nodes, 1);
  {
    runtime::ThreadCluster cluster{options};
    if (options.hier_config.trace_events) {
      cluster.set_event_sink([&checker, &artifacts,
                              lint = run.lint](trace::TraceEvent event) {
        if (lint) checker.add(event);
        artifacts.observe(event);
      });
    }
    const bool recovery = options.recovery.enabled;
    std::vector<sched::Thread> workers;
    workers.reserve(nodes);
    for (std::uint32_t i = 0; i < nodes; ++i) {
      const std::string name = "worker-" + std::to_string(i);
      const std::chrono::milliseconds first_hold =
          i == 0 ? run.first_hold : run.hold;
      workers.emplace_back(name.c_str(), [&cluster, &out, &run, recovery,
                                          first_hold, i] {
        const proto::NodeId node{i};
        for (int k = 0; k < run.ops; ++k) {
          try {
            cluster.lock(node, proto::LockId{0}, proto::LockMode::kW);
            if (!cluster.alive(node)) break;  // crash-stop wake-up
            const std::uint32_t epoch =
                recovery ? cluster.recovery_epoch_of(node) : 0;
            out.probe.enter(i, epoch);
            sched::yield_point("hlock_sim.cs");
            const auto hold = k == 0 ? first_hold : run.hold;
            if (hold.count() == 0) {
              std::this_thread::yield();
            } else {
              // Outside the explorer's schedule: others run meanwhile.
              sched::BlockingRegion region;
              std::this_thread::sleep_for(hold);
            }
            out.probe.leave(i, epoch);
            cluster.unlock(node, proto::LockId{0});
            ++out.completed[i];
          } catch (const UsageError&) {
            break;  // this node crash-stopped mid-operation
          }
        }
      });
    }
    std::atomic<bool> workers_done{false};
    std::thread killer;
    if (run.kills()) {
      // Dice roll every 20 ms: P(kill) = rate x 0.02 per step, victims
      // drawn uniformly from the live set, never below two survivors.
      killer = std::thread([&cluster, &workers_done, &out, &run] {
        Rng rng{run.options.seed * 0x9e3779b97f4a7c15ULL + 1};
        while (!workers_done.load(std::memory_order_acquire) &&
               out.kills < run.max_kills) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          if (!rng.chance(std::min(1.0, run.kill_rate * 0.02))) continue;
          std::vector<std::uint32_t> live;
          for (std::uint32_t n = 0;
               n < static_cast<std::uint32_t>(cluster.node_count()); ++n) {
            if (cluster.alive(proto::NodeId{n})) live.push_back(n);
          }
          if (live.size() <= 2) break;
          cluster.crash_stop(proto::NodeId{live[rng.below(live.size())]});
          ++out.kills;
        }
      });
    }
    for (sched::Thread& worker : workers) worker.join();
    workers_done.store(true, std::memory_order_release);
    if (killer.joinable()) killer.join();
    for (std::uint32_t i = 0; i < nodes && recovery; ++i) {
      const proto::NodeId node{i};
      out.live_at_end[i] = cluster.alive(node) ? 1 : 0;
      if (out.live_at_end[i] == 0) continue;
      out.max_epoch = std::max(out.max_epoch, cluster.recovery_epoch_of(node));
      out.recoveries =
          std::max(out.recoveries, cluster.recovery_counters(node).recoveries);
    }
    out.messages_sent = cluster.messages_sent();
    out.receiver_errors = cluster.receiver_errors();
    // Each transport prints what it counts: the fault plan's wire its
    // faults, TCP its retries, reconnects and bad frames.
    if (const stats::FaultCounters* faults = cluster.fault_counters()) {
      out.transport_counters = stats::to_string(faults->snapshot());
    }
    if (const stats::TcpCounters* tcp = cluster.tcp_counters()) {
      if (!out.transport_counters.empty()) out.transport_counters += ' ';
      out.transport_counters += stats::to_string(tcp->snapshot());
    }
    // Cluster teardown joins the receivers, so once the scope closes no
    // event can still be in flight toward the checker.
  }

  std::string failures = print_summary(run, out);
  if (sampler != nullptr) {
    // Final tick: the exposition file ends at the run's true end state
    // (the cluster is down, so its callback series are already gone).
    sampler->stop();
    std::printf("  metrics       : %zu series", registry.series_count());
    if (!run.sampler->out_path.empty()) {
      std::printf(" -> %s", run.sampler->out_path.c_str());
    }
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
  if (run.lint) {
    const lint::LintReport report = checker.finish();
    std::printf("  %s", report.render().c_str());
    if (!report.ok()) add_failure(failures, "conformance lint violation");
  }
  artifacts.finish(trace_name, failures, 14);
  return failures.empty() ? 0 : 1;
}

/// Runs `run` under the deterministic schedule explorer (docs/sched.md):
/// --sched-seeds N explores N schedules, each in a forked child; --sched-seed
/// S replays one in-process (for debuggers). Replay is exact only without
/// real-time inputs: the fault plan's delays, partitions and TCP sockets
/// keep it best-effort.
int run_sched(const CliParser& cli, const LiveRun& run) {
  sched::ExplorerOptions explorer_options;
  explorer_options.change_interval = static_cast<std::uint32_t>(
      cli.get_int("sched-change-interval", 0, 1 << 20));
  const bool replay = cli.was_set("sched-seed");
  const std::int64_t max_seed = std::numeric_limits<std::int64_t>::max();
  const std::uint64_t base = static_cast<std::uint64_t>(
      replay ? cli.get_int("sched-seed", 1, max_seed)
             : cli.get_int("seed", 0, max_seed));
  const std::int64_t seeds = replay ? 1 : cli.get_int("sched-seeds", 1, 100000);
  cli.reject_unread();
  if (!replay && !run.artifacts.trace_dump.empty()) {
    throw UsageError("--trace-dump would get every explored seed's run; "
                     "dump one schedule with --sched-seed");
  }

  // `code` is written before the body returns, so the forked child's
  // `failed` predicate can read it. Each seed writes its own Chrome trace.
  int code = 1;
  const auto body = [&code, &run, &explorer_options] {
    code = run_live(run, "chaos-trace-seed-" +
                             std::to_string(explorer_options.seed) + ".json");
  };
  if (replay) {
    // A deadlock ends the process with the report and exit code
    // kSchedDeadlockExit.
    explorer_options.seed = base;
    sched::Explorer explorer{explorer_options};
    explorer.run(body);
    std::printf(
        "sched: seed %llu complete after %llu decisions, "
        "fingerprint %llu, workload %s\n",
        static_cast<unsigned long long>(base),
        static_cast<unsigned long long>(explorer.steps()),
        static_cast<unsigned long long>(explorer.schedule_fingerprint()),
        code == 0 ? "OK" : "FAILED");
    return code;
  }
  int bad = 0;
  for (std::int64_t s = 0; s < seeds; ++s) {
    explorer_options.seed = base + static_cast<std::uint64_t>(s);
    const sched::SeedResult result = sched::run_seed(
        explorer_options, body, [&code] { return code != 0; });
    std::printf("sched: seed %llu %s\n",
                static_cast<unsigned long long>(explorer_options.seed),
                sched::seed_verdict_name(result.verdict));
    if (result.verdict != sched::SeedVerdict::kOk) {
      ++bad;
      // The child's captured output carries the run's summary, the
      // deadlock report or failure detail, and the replay instructions.
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
  cli.add_option("cs-ms", "15",
                 "mean critical-section length, ms (chaos: the hold under "
                 "--kill-rate)");
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
                 "format_event lines, for hlock_lint (hier only; also "
                 "honored by --chaos)");
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
                 "recover (docs/recovery.md; not under --sched-seeds)");
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
                 "explore this many deterministic schedules of the --chaos "
                 "run these flags configure (each seed forks a child; see "
                 "docs/sched.md)");
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
    const bool chaos = cli.get_flag("chaos");
    if (cli.was_set("sched-seeds") || cli.was_set("sched-seed")) {
      return run_sched(cli, read_live_run(cli, /*explored=*/true));
    }
    if (chaos) {
      const LiveRun run = read_live_run(cli, /*explored=*/false);
      cli.reject_unread();
      if (!run.options.faults.any()) {
        std::fprintf(stderr,
                     "note: --chaos with no --fault-* knobs runs fault-free\n");
      }
      return run_live(run, "chaos-trace.json");
    }

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
    const bool recovery = cli.get_flag("recovery");
    if (!kill_spec.empty() || recovery) {
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
    // The simulator runs under modelled time, so a live sampler has nothing
    // meaningful to tick against: the registry holds the final state, for
    // --metrics-out and for the flight record.
    telemetry::Registry registry;
    obs::RunArtifacts artifacts{{.spans = cli.get_flag("spans"),
                                 .obs_out = cli.get_string("obs-out"),
                                 .trace_dump = cli.get_string("trace-dump"),
                                 .node_count = config.nodes},
                                [&registry] {
                                  return telemetry::render_prometheus(
                                      registry.snapshot());
                                }};
    if ((config.lint || artifacts.collecting()) &&
        config.variant != AppVariant::kHierarchical) {
      throw UsageError(
          "--lint/--trace-dump/--spans/--obs-out apply to --protocol hier "
          "only");
    }

    const int seeds = static_cast<int>(cli.get_int("seeds", 1, 1000));
    if (artifacts.collecting()) {
      // Spans join events by (requester, seq), which restarts per seed, and
      // a dump would join the seeds' streams into one hlock_lint rejects.
      if (seeds != 1) {
        throw UsageError("--spans/--obs-out/--trace-dump require --seeds 1");
      }
      config.on_event = [&artifacts](const trace::TraceEvent& event) {
        artifacts.observe(event);
      };
    }
    const bool csv = cli.get_flag("csv");
    const auto buckets =
        static_cast<std::size_t>(cli.get_int("histogram", 0, 64));
    const std::string metrics_out = cli.get_string("metrics-out");
    cli.reject_unread();
    const ExperimentResult result = bench::run_averaged(config, seeds);

    if (result.aborted) {
      // An early abort still reports the partial metrics instead of dying
      // with nothing but an exception message (kept off stdout in CSV mode
      // so the row stays machine-parseable).
      std::fprintf(csv ? stderr : stdout,
                   "RUN ABORTED: %s\n"
                   "(metrics below cover the partial run up to the abort)\n",
                   result.abort_reason.c_str());
    }
    if (csv) {
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
    if (buckets > 0) {
      stats::HistogramOptions histogram;
      histogram.buckets = buckets;
      histogram.log_scale = true;
      std::printf("\nrequest latency distribution:\n%s",
                  stats::render_histogram(result.request_latency_samples_ms,
                                          histogram)
                      .c_str());
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
