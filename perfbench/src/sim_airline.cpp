// sim-airline: the paper's §4.1 airline application on a 64-node
// SimCluster running the hierarchical protocol under the Linux-cluster
// latency preset, on one OS thread.
//
// A run covers 64 simulated clusters seeded from --seed. Set-up builds
// each once and runs its recording pass, which also encodes every message
// (wire bytes) and keeps the message mix for the proto layer. Every later
// pass replays one of the clusters in turn and must do exactly the same
// protocol work as its recording. The exact metrics pool the recordings,
// so one seed's tail does not swing them; the wall-clock metrics are
// medians over passes, and the passes rotate over every CPU the process
// may use.
#include <array>
#include <cstdio>

#include "layers.hpp"
#include "obs/span.hpp"
#include "sim_driver.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using hlock::proto::kMessageKindCount;

std::int64_t seconds_ns(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e9);
}

/// The recorded clusters of one run and their pooled exact figures.
struct Recorded {
  std::vector<SimConfig> configs;
  std::vector<SimResult> results;
  std::vector<double> setup_s;
  std::vector<hlock::proto::Message> mix;
  std::uint64_t acquisitions = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
  std::array<std::uint64_t, kMessageKindCount> by_kind{};
  std::vector<double> sim_latency_ms;
};

Recorded record(const RunOptions& options, Report& report) {
  const std::uint64_t clusters = options.small ? 2 : 64;
  Recorded recorded;
  CpuRotation rotation;
  for (std::uint64_t c = 0; c < clusters; ++c) {
    rotation.pin(c);
    SimConfig config;
    config.pattern = Pattern::kAirline;
    config.nodes = options.small ? 16 : 64;
    config.ops = options.small ? 10 : 100;
    config.seed = options.seed * 1000 + c;
    // The paper's literal Table 1(c). With path compression on, clusters
    // of 16 nodes and more under this timing reach incompatible holds (the
    // holder table and the repository's linter both flag them), and a
    // workload must run clean.
    config.path_compression = false;
    // Set-up: cluster construction plus its recording pass.
    const std::int64_t t0 = now_ns();
    Recording recording = record_pass(config, report, "set-up pass");
    recorded.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    const SimResult& result = recording.result;
    recorded.acquisitions += result.acquisitions;
    recorded.messages += result.messages;
    recorded.bytes += recording.bytes;
    recorded.events += result.events;
    for (std::size_t k = 0; k < kMessageKindCount; ++k) {
      recorded.by_kind[k] += result.by_kind[k];
    }
    recorded.sim_latency_ms.insert(recorded.sim_latency_ms.end(),
                                   result.sim_latency_ms.begin(),
                                   result.sim_latency_ms.end());
    if (c == 0) recorded.mix = std::move(recording.mix);
    recorded.configs.push_back(config);
    recorded.results.push_back(std::move(recording.result));
  }
  std::printf("sim-airline: %llu clusters of %zu nodes x %llu operations: "
              "%llu acquisitions, %llu messages, %llu events\n",
              static_cast<unsigned long long>(clusters),
              recorded.configs[0].nodes,
              static_cast<unsigned long long>(recorded.configs[0].ops),
              static_cast<unsigned long long>(recorded.acquisitions),
              static_cast<unsigned long long>(recorded.messages),
              static_cast<unsigned long long>(recorded.events));
  return recorded;
}

/// Replays recorded cluster `index`, checking it does the recorded work.
SimResult replay(const Recorded& recorded, std::size_t index, Report& report,
                 const SimConfig* traced = nullptr,
                 const std::function<void(SimDriver&)>& prepare = {}) {
  const SimConfig& config =
      traced != nullptr ? *traced : recorded.configs[index];
  SimResult pass = run_pass(config, report, "measured pass", prepare);
  if (!pass.same_work(recorded.results[index])) {
    report.fail("a pass of seed " + std::to_string(config.seed) +
                " did different protocol work than its recorded pass");
  }
  return pass;
}

}  // namespace

void run_sim_airline(const RunOptions& options, Report& report) {
  const Recorded recorded = record(options, report);
  const std::size_t clusters = recorded.configs.size();
  const double acquisitions = static_cast<double>(recorded.acquisitions);

  if (!options.trace) {
    std::vector<double> rate, p50, p99;
    std::uint64_t attempted = 0, unfinished = 0, calls = 0;
    const std::int64_t end = now_ns() + seconds_ns(options.seconds);
    std::size_t i = 0;
    CpuRotation rotation;
    do {
      rotation.pin(i);
      const SimResult pass = replay(recorded, i++ % clusters, report);
      rate.push_back(static_cast<double>(pass.acquisitions) / pass.wall_s);
      p50.push_back(quantile(pass.call_us, 0.5));
      p99.push_back(quantile(pass.call_us, 0.99));
      attempted += pass.acquisitions;
      unfinished += pass.unfinished;
      calls += pass.call_us.size();
    } while (now_ns() < end);
    report.count(attempted, unfinished);
    std::printf("  %zu measured passes; acquire latency over %llu "
                "request()/upgrade() calls, about %llu per pass\n",
                rate.size(), static_cast<unsigned long long>(calls),
                static_cast<unsigned long long>(calls / rate.size()));
    report.set("acquires_per_s", median(rate), "1/s");
    report.set("acquire_p50_us", median(p50), "us");
    report.set("acquire_p99_us", median(p99), "us");
    report.set("sim_acquire_p50_ms", quantile(recorded.sim_latency_ms, 0.5),
               "ms");
    report.set("sim_acquire_p99_ms", quantile(recorded.sim_latency_ms, 0.99),
               "ms");
    report.set("msgs_per_acquire",
               static_cast<double>(recorded.messages) / acquisitions, "msgs");
    report.set("bytes_per_acquire",
               static_cast<double>(recorded.bytes) / acquisitions, "bytes");
    report.set("setup_s", median(recorded.setup_s), "s");
    return;
  }

  // Traced run: untraced and traced passes alternate, then the layers are
  // measured one by one.
  std::vector<double> plain_rate, traced_rate, ns_per_event, release_p50,
      request_p50, token_p50, calls;
  std::uint64_t attempted = 0, unfinished = 0, plain_acquisitions = 0,
                requests = 0, local_grants = 0;
  std::int64_t plain_cpu_ns = 0;
  std::string phase_table;
  const std::int64_t end = now_ns() + seconds_ns(options.seconds * 0.6);
  std::size_t i = 0;
  CpuRotation rotation;
  do {
    // An untraced and a traced pass of one cluster share a CPU.
    rotation.pin(i);
    const std::size_t index = i++ % clusters;
    const std::int64_t cpu0 = process_cpu_ns();
    const SimResult plain = replay(recorded, index, report);
    plain_cpu_ns += process_cpu_ns() - cpu0;
    plain_rate.push_back(static_cast<double>(plain.acquisitions) /
                         plain.wall_s);
    ns_per_event.push_back(plain.wall_s * 1e9 /
                           static_cast<double>(plain.events));
    calls.insert(calls.end(), plain.call_us.begin(), plain.call_us.end());
    plain_acquisitions += plain.acquisitions;

    SimConfig traced_config = recorded.configs[index];
    traced_config.traced = true;
    hlock::obs::SpanCollector spans;
    const SimResult traced =
        replay(recorded, index, report, &traced_config, [&](SimDriver& driver) {
          driver.cluster().set_event_observer(
              [&](hlock::trace::TraceEvent event) {
                if (event.kind == hlock::trace::EventKind::kRequest) {
                  ++requests;
                } else if (event.kind == hlock::trace::EventKind::kLocalGrant) {
                  ++local_grants;
                }
                spans.observe(event);
              });
        });
    traced_rate.push_back(static_cast<double>(traced.acquisitions) /
                          traced.wall_s);
    release_p50.push_back(median(traced.release_us));
    const SpanPaths paths = span_paths(spans.spans());
    request_p50.push_back(median(paths.request_us));
    token_p50.push_back(median(paths.token_us));
    phase_table = hlock::obs::render_phase_table(spans.phase_breakdown());
    attempted += plain.acquisitions + traced.acquisitions;
    unfinished += plain.unfinished + traced.unfinished;
  } while (now_ns() < end);
  rotation.unpin();
  report.count(attempted, unfinished);
  std::printf("  %zu untraced + %zu traced passes\n  span phases of the last "
              "traced pass (simulated ms):\n%s",
              plain_rate.size(), traced_rate.size(), phase_table.c_str());

  report.set("runtime.acquire_p999_us", quantile(calls, 0.999), "us");
  report.set("runtime.acquire_samples", static_cast<double>(calls.size()),
             "count");
  report.set("runtime.unlock_us.p50", median(release_p50), "us");
  // Spans in the simulator carry simulated time.
  report.set("runtime.request_path_us.p50", median(request_p50), "us");
  report.set("runtime.token_path_us.p50", median(token_p50), "us");
  // Grants reach the driver synchronously inside the delivering step: no
  // thread wakes, and the simulator delivers one message per event.
  report.set("runtime.wake_us.p50", 0, "us");
  report.set("runtime.local_grant_ratio",
             requests > 0 ? static_cast<double>(local_grants) /
                                static_cast<double>(requests)
                          : 0,
             "ratio");
  report.set("runtime.recv_batch_size.mean", 1, "msgs");
  report.set("runtime.cpu_us_per_acquire",
             static_cast<double>(plain_cpu_ns) / 1e3 /
                 static_cast<double>(plain_acquisitions),
             "us");
  report.set("runtime.threads", thread_count(), "count");
  report.set("runtime.trace_overhead",
             median(plain_rate) / median(traced_rate), "ratio");
  report.set("failed_ratio",
             static_cast<double>(unfinished) / static_cast<double>(attempted),
             "ratio");
  report.set("sim.events_per_acquire",
             static_cast<double>(recorded.events) / acquisitions, "events");
  report.set("sim.ns_per_event", median(ns_per_event), "ns");
  report_message_kinds(recorded.by_kind, recorded.acquisitions, report);
  const double layer_s = options.seconds * 0.12;
  measure_core(Pattern::kAirline, recorded.configs[0].nodes, options.seed,
               recorded.configs[0].path_compression, layer_s, report);
  measure_proto(recorded.mix, layer_s, report);
  measure_transports(options.small, report);
}

}  // namespace perfbench
