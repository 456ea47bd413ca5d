// A simulated cluster: N protocol engines wired through the discrete-event
// simulator and a latency model, with metrics collection.
//
// This is the harness every evaluation experiment runs on. Application-level
// drivers (see workload/) issue request/release/upgrade calls to each
// node's NodeCore, which applies the returned effects through the cluster:
// message deliveries are scheduled on the simulator with sampled network
// latency and counted, and the registered grant handler runs when a node
// enters its critical section.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/hier_config.hpp"
#include "obs/lamport.hpp"
#include "recovery/manager.hpp"
#include "runtime/engine.hpp"
#include "runtime/node_core.hpp"
#include "sim/network_model.hpp"
#include "sim/simulator.hpp"
#include "stats/metrics.hpp"
#include "trace/event.hpp"
#include "util/rng.hpp"

namespace hlock::runtime {

/// Construction parameters of a simulated cluster.
struct SimClusterOptions {
  std::size_t node_count = 2;
  Protocol protocol = Protocol::kHierarchical;
  /// One-way message latency model (see sim/network_model.hpp presets).
  DurationDist message_latency = DurationDist::uniform(SimTime::ms(150), 0.5);
  /// Seed for the network latency stream.
  std::uint64_t seed = 1;
  /// Feature flags for the hierarchical protocol (ignored by Naimi).
  core::HierConfig hier_config = {};
  /// FAILURE INJECTION (testing only): probability that a transmitted
  /// message is silently dropped. The protocol assumes reliable FIFO
  /// transport — any non-zero value eventually wedges a run; the harness's
  /// deadlock/livelock detectors must catch it, and the chaos tests verify
  /// they do. Dropped messages still count in the metrics (they were sent).
  double message_loss_probability = 0.0;
  /// Crash-recovery configuration (docs/recovery.md). When enabled, every
  /// node runs a recovery::Manager next to its engine: heartbeats tick on
  /// the simulator, kill_at() schedules crash-stops, and detected deaths
  /// trigger epoch-fenced token regeneration. Not supported for the
  /// Raymond baseline (its engine has no crash-recovery hooks).
  recovery::Options recovery = {};
  /// Heartbeat ticks stop being scheduled past this simulated-time horizon
  /// so run_to_completion() still terminates with recovery enabled. Raise
  /// it for long chaos runs (or drive the simulator with run_until).
  SimTime recovery_horizon = SimTime::ms(600'000);
};

/// See file comment.
class SimCluster {
 public:
  /// Every lock's token starts at node 0.
  static constexpr NodeId kInitialRoot{0};
  explicit SimCluster(const SimClusterOptions& options);

  /// Called when `node` enters the critical section of `lock`, or when its
  /// Rule 7 upgrade on `lock` completes (`upgraded` = true).
  using GrantHandler =
      std::function<void(NodeId node, LockId lock, bool upgraded)>;

  /// Registers the grant handler (typically the workload driver). Must be
  /// set before any request is issued.
  void set_grant_handler(GrantHandler handler);

  /// Observes every transmitted message at send time (tracing, custom
  /// statistics). Optional; called before the delivery is scheduled.
  using MessageObserver =
      std::function<void(SimTime sent_at, const proto::Message& message)>;
  void set_message_observer(MessageObserver observer);

  /// Observes every structured protocol event the automatons emit, stamped
  /// with the simulated time of the step that produced it. Only fires when
  /// the hierarchical config has trace_events enabled. Feed these to
  /// trace::TraceRecorder and/or lint::Checker.
  using EventObserver = std::function<void(trace::TraceEvent event)>;
  void set_event_observer(EventObserver observer);

  // ---- Application operations (asynchronous; grants arrive via the
  //      handler, possibly synchronously within the call) ----

  void request(NodeId node, LockId lock, LockMode mode,
               std::uint8_t priority = 0);
  void release(NodeId node, LockId lock);
  void upgrade(NodeId node, LockId lock);

  // ---- Crash-stop failure injection (docs/recovery.md) ----

  /// Schedules `node` to crash-stop at simulated time `at`: from then on it
  /// receives nothing, sends nothing and ignores application calls.
  /// Messages it sent before the crash still deliver (they were in flight).
  /// Requires recovery to be enabled so the survivors can regenerate the
  /// token; `at` must not be in the simulator's past.
  void kill_at(NodeId node, SimTime at);

  /// False once the node's scheduled crash has executed.
  bool alive(NodeId node) const;

  /// The node's recovery manager (counters, epoch, halt state).
  /// Precondition: recovery is enabled.
  recovery::Manager& manager(NodeId node);

  /// Protocol messages `node` dropped because they carried a pre-fence
  /// recovery epoch.
  std::uint64_t stale_drops(NodeId node) const;
  /// Sum of stale_drops(node) over the cluster.
  std::uint64_t total_stale_drops() const;

  // ---- Accessors ----

  sim::Simulator& simulator() { return simulator_; }
  stats::MetricsRegistry& metrics() { return metrics_; }
  const stats::MetricsRegistry& metrics() const { return metrics_; }
  std::size_t node_count() const { return nodes_.size(); }
  const SimClusterOptions& options() const { return options_; }
  LockEngine& engine(NodeId node);

  /// The hierarchical automaton of (node, lock); precondition: the cluster
  /// runs the hierarchical protocol. For invariant checks and tests.
  core::HierAutomaton& hier_automaton(NodeId node, LockId lock);
  /// The Naimi automaton of (node, lock); precondition: Naimi protocol.
  naimi::NaimiAutomaton& naimi_automaton(NodeId node, LockId lock);
  /// The Raymond automaton of (node, lock); precondition: Raymond protocol.
  raymond::RaymondAutomaton& raymond_automaton(NodeId node, LockId lock);

 private:
  /// One simulated node: its Lamport clock (obs/lamport.hpp) and core,
  /// bound to the simulator by the NodePort it implements.
  struct Node final : NodePort {
    Node(SimCluster& owner, NodeId self, std::unique_ptr<LockEngine> engine);

    SimTime now() override;
    void send(std::vector<proto::Message>&& messages) override;
    void sink(std::vector<trace::TraceEvent>&& events) override;
    void granted(LockId lock, bool upgraded) override;

    SimCluster& cluster;
    const NodeId id;
    obs::AtomicLamportClock clock;
    NodeCore core;
    /// False once the node's scheduled crash has executed.
    bool alive = true;
  };

  Node& node(NodeId id);
  const Node& node(NodeId id) const;
  bool recovery_on() const { return options_.recovery.enabled; }
  /// Counts, observes and (unless lost) schedules the delivery of one
  /// message; crashed receivers consume nothing.
  void transmit(proto::Message&& message);
  void crash(NodeId id);
  void schedule_recovery_tick();

  SimClusterOptions options_;
  sim::Simulator simulator_;
  sim::NetworkModel network_;
  Rng loss_rng_;
  stats::MetricsRegistry metrics_;
  std::vector<std::unique_ptr<Node>> nodes_;
  GrantHandler grant_handler_;
  MessageObserver message_observer_;
  EventObserver event_observer_;
};

}  // namespace hlock::runtime
