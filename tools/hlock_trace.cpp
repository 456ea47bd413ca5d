// hlock_trace — watch the protocol work, message by message.
//
// Runs a small scripted scenario on the simulated cluster with the trace
// recorder attached and prints the complete timeline: every message, every
// structured protocol event (grants, queueing, freezes, token transfers),
// every critical-section entry, every upgrade. An educational companion to
// docs/protocol.md:
//
//   hlock_trace                         # the default freeze/upgrade story
//   hlock_trace --nodes 6 --scenario readers-writer
//   hlock_trace --scenario upgrade --node-filter 2
//   hlock_trace --scenario priority --dump > t.trace && hlock_lint t.trace
//   hlock_trace --export-chrome t.json  # load in chrome://tracing/Perfetto
#include <cstdio>

#include "obs/chrome_trace.hpp"
#include "obs/span.hpp"
#include "runtime/sim_cluster.hpp"
#include "trace/recorder.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

using namespace hlock;
using proto::LockId;
using proto::LockMode;
using proto::NodeId;

namespace {

const LockId kLock{0};

void run_readers_writer(runtime::SimCluster& cluster, std::size_t nodes,
                        trace::TraceRecorder& recorder) {
  sim::Simulator& sim = cluster.simulator();
  recorder.note(sim.now(), NodeId{0}, "scenario: readers then a writer");
  for (std::uint32_t i = 1; i < nodes; ++i) {
    cluster.request(NodeId{i}, kLock, LockMode::kIR);
  }
  sim.run_to_completion();
  recorder.note(sim.now(), NodeId{0}, "all readers inside; writer arrives");
  cluster.request(NodeId{0}, kLock, LockMode::kW);
  sim.run_to_completion();
  for (std::uint32_t i = 1; i < nodes; ++i) {
    cluster.release(NodeId{i}, kLock);
  }
  sim.run_to_completion();
  cluster.release(NodeId{0}, kLock);
  sim.run_to_completion();
}

void run_upgrade(runtime::SimCluster& cluster, std::size_t nodes,
                 trace::TraceRecorder& recorder) {
  sim::Simulator& sim = cluster.simulator();
  recorder.note(sim.now(), NodeId{0}, "scenario: U acquisition + upgrade");
  cluster.request(NodeId{1}, kLock, LockMode::kIR);
  sim.run_to_completion();
  cluster.request(NodeId{2}, kLock, LockMode::kU);
  sim.run_to_completion();
  cluster.upgrade(NodeId{2}, kLock);
  sim.run_to_completion();
  recorder.note(sim.now(), NodeId{2}, "upgrade blocked on the IR holder");
  cluster.release(NodeId{1}, kLock);
  sim.run_to_completion();
  cluster.release(NodeId{2}, kLock);
  sim.run_to_completion();
  (void)nodes;
}

void run_priority(runtime::SimCluster& cluster, std::size_t nodes,
                  trace::TraceRecorder& recorder) {
  sim::Simulator& sim = cluster.simulator();
  recorder.note(sim.now(), NodeId{0},
                "scenario: urgent writer overtakes queued writers");
  cluster.request(NodeId{1}, kLock, LockMode::kW);
  sim.run_to_completion();
  for (std::uint32_t i = 2; i < nodes; ++i) {
    cluster.request(NodeId{i}, kLock, LockMode::kW);
    sim.run_to_completion();
  }
  cluster.request(NodeId{0}, kLock, LockMode::kW, /*priority=*/9);
  sim.run_to_completion();
  // Drain: release whoever holds until the queue empties.
  bool any = true;
  while (any) {
    any = false;
    sim.run_to_completion();
    for (std::uint32_t i = 0; i < nodes; ++i) {
      if (cluster.engine(NodeId{i}).holds(kLock)) {
        cluster.release(NodeId{i}, kLock);
        any = true;
      }
    }
  }
  sim.run_to_completion();
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli{"hlock_trace", "print a protocol timeline for a scenario"};
  cli.add_option("scenario", "readers-writer",
                 "readers-writer | upgrade | priority");
  cli.add_option("nodes", "5", "cluster size (3-32)");
  cli.add_option("node-filter", "-1",
                 "restrict the timeline to one node's perspective");
  cli.add_flag("dump",
               "print machine-parseable event lines (trace::format_event) "
               "instead of the rendered timeline, for hlock_lint");
  cli.add_option("export-chrome", "",
                 "additionally write the scenario's request spans as Chrome "
                 "trace_event JSON to this file (chrome://tracing, "
                 "Perfetto)");
  return cli.run(argc, argv, [&] {
    const auto nodes = static_cast<std::size_t>(cli.get_int("nodes", 3, 32));
    const std::string scenario = cli.get_string("scenario");

    const bool dump = cli.get_flag("dump");

    runtime::SimClusterOptions options;
    options.node_count = nodes;
    options.message_latency = DurationDist::constant(SimTime::ms(1));
    options.hier_config.trace_events = true;
    runtime::SimCluster cluster{options};

    const std::string chrome_path = cli.get_string("export-chrome");
    trace::TraceRecorder recorder;
    obs::SpanCollector collector;
    cluster.set_event_observer(
        [&recorder, &collector, &chrome_path](trace::TraceEvent event) {
          if (!chrome_path.empty()) collector.observe(event);
          recorder.record(std::move(event));
        });
    if (!dump) {
      // Human timeline extras: raw messages and a one-line note per grant.
      // The dump stays pure automaton events so hlock_lint can replay it.
      cluster.set_message_observer(
          [&recorder](SimTime at, const proto::Message& message) {
            recorder.record_message(at, message);
          });
    }
    cluster.set_grant_handler([](NodeId, LockId, bool) {
      // Grants and upgrades already appear as structured enter-cs/upgraded
      // events; the handler only needs to exist so requests may be issued.
    });

    if (scenario == "readers-writer") {
      run_readers_writer(cluster, nodes, recorder);
    } else if (scenario == "upgrade") {
      run_upgrade(cluster, nodes, recorder);
    } else if (scenario == "priority") {
      run_priority(cluster, nodes, recorder);
    } else {
      throw UsageError("unknown scenario: " + scenario);
    }

    if (!chrome_path.empty()) {
      obs::write_chrome_trace(chrome_path, collector.spans(), nodes);
      std::fprintf(stderr, "chrome trace: %zu spans -> %s\n",
                   collector.span_count(), chrome_path.c_str());
    }
    if (dump) {
      if (recorder.dropped() > 0) {
        // A silently truncated dump would lint as a bogus violation; make
        // the gap impossible to miss.
        std::fprintf(stderr,
                     "warning: ring capacity exceeded — %llu oldest events "
                     "dropped from this dump\n",
                     static_cast<unsigned long long>(recorder.dropped()));
      }
      for (const trace::TraceEvent& event : recorder.events()) {
        std::printf("%s\n", trace::format_event(event).c_str());
      }
      return 0;
    }
    const std::int64_t filter = cli.get_int("node-filter", -1, 1 << 20);
    const NodeId node_filter =
        filter < 0 ? NodeId::none()
                   : NodeId{static_cast<std::uint32_t>(filter)};
    std::fputs(recorder.render(node_filter).c_str(), stdout);
    std::printf("\n%llu events", static_cast<unsigned long long>(
                                     recorder.total_recorded()));
    if (recorder.dropped() > 0) {
      std::printf(" (%llu dropped — only the newest %zu retained)",
                  static_cast<unsigned long long>(recorder.dropped()),
                  recorder.events().size());
    }
    std::printf(", %llu protocol messages\n",
                static_cast<unsigned long long>(
                    cluster.metrics().messages().total()));
    return 0;
  });
}
