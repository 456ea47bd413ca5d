#include "runtime/sim_cluster.hpp"

#include <utility>

#include "util/check.hpp"

namespace hlock::runtime {

SimCluster::Node::Node(SimCluster& owner, NodeId self,
                       std::unique_ptr<LockEngine> engine)
    : cluster(owner), id(self),
      core(self, owner.options_.node_count, std::move(engine),
           owner.options_.recovery, clock, *this) {}

SimTime SimCluster::Node::now() { return cluster.simulator_.now(); }

void SimCluster::Node::send(std::vector<proto::Message>&& messages) {
  for (proto::Message& message : messages) {
    cluster.transmit(std::move(message));
  }
}

void SimCluster::Node::sink(std::vector<trace::TraceEvent>&& events) {
  if (!cluster.event_observer_) return;
  for (trace::TraceEvent& event : events) {
    cluster.event_observer_(std::move(event));
  }
}

void SimCluster::Node::granted(LockId lock, bool upgraded) {
  HLOCK_INVARIANT(static_cast<bool>(cluster.grant_handler_),
                  "a grant fired but no grant handler is registered");
  cluster.grant_handler_(id, lock, upgraded);
}

SimCluster::SimCluster(const SimClusterOptions& options)
    : options_(options),
      network_(options.message_latency, Rng{options.seed}.split(0xABCDu)),
      loss_rng_(Rng{options.seed}.split(0x105Eu)) {
  HLOCK_REQUIRE(options.node_count >= 1, "a cluster needs at least one node");
  HLOCK_REQUIRE(options.message_loss_probability >= 0.0 &&
                    options.message_loss_probability <= 1.0,
                "loss probability must be within [0, 1]");
  HLOCK_REQUIRE(
      !(options.recovery.enabled && options.protocol == Protocol::kRaymond),
      "crash recovery is not supported for the Raymond baseline");
  nodes_.reserve(options.node_count);
  for (std::size_t i = 0; i < options.node_count; ++i) {
    const NodeId self{static_cast<std::uint32_t>(i)};
    nodes_.push_back(std::make_unique<Node>(
        *this, self,
        make_engine(options.protocol, self, options.node_count,
                    kInitialRoot, options.hier_config)));
  }
  if (recovery_on()) schedule_recovery_tick();
}

void SimCluster::set_grant_handler(GrantHandler handler) {
  grant_handler_ = std::move(handler);
}

void SimCluster::set_message_observer(MessageObserver observer) {
  message_observer_ = std::move(observer);
}

void SimCluster::set_event_observer(EventObserver observer) {
  event_observer_ = std::move(observer);
}

SimCluster::Node& SimCluster::node(NodeId id) {
  HLOCK_REQUIRE(id.value() < nodes_.size(), "unknown node id");
  return *nodes_[id.value()];
}

const SimCluster::Node& SimCluster::node(NodeId id) const {
  HLOCK_REQUIRE(id.value() < nodes_.size(), "unknown node id");
  return *nodes_[id.value()];
}

LockEngine& SimCluster::engine(NodeId node_id) {
  return node(node_id).core.engine();
}

core::HierAutomaton& SimCluster::hier_automaton(NodeId node, LockId lock) {
  HLOCK_REQUIRE(options_.protocol == Protocol::kHierarchical,
                "cluster does not run the hierarchical protocol");
  return static_cast<HierEngine&>(engine(node)).automaton(lock);
}

naimi::NaimiAutomaton& SimCluster::naimi_automaton(NodeId node, LockId lock) {
  HLOCK_REQUIRE(options_.protocol == Protocol::kNaimi,
                "cluster does not run the Naimi protocol");
  return static_cast<NaimiEngine&>(engine(node)).automaton(lock);
}

raymond::RaymondAutomaton& SimCluster::raymond_automaton(NodeId node,
                                                         LockId lock) {
  HLOCK_REQUIRE(options_.protocol == Protocol::kRaymond,
                "cluster does not run the Raymond protocol");
  return static_cast<RaymondEngine&>(engine(node)).automaton(lock);
}

// Crashed nodes ignore the application.

void SimCluster::request(NodeId node_id, LockId lock, LockMode mode,
                         std::uint8_t priority) {
  Node& target = node(node_id);
  if (target.alive) target.core.request(lock, mode, priority);
}

void SimCluster::release(NodeId node_id, LockId lock) {
  Node& target = node(node_id);
  if (target.alive) target.core.release(lock);
}

void SimCluster::upgrade(NodeId node_id, LockId lock) {
  Node& target = node(node_id);
  if (target.alive) target.core.upgrade(lock);
}

void SimCluster::kill_at(NodeId node_id, SimTime at) {
  HLOCK_REQUIRE(node_id.value() < nodes_.size(), "unknown node id");
  HLOCK_REQUIRE(recovery_on(),
                "kill_at() requires recovery to be enabled — without it the "
                "survivors could never regenerate the token");
  simulator_.schedule_at(at, [this, node_id] { crash(node_id); });
}

bool SimCluster::alive(NodeId node_id) const { return node(node_id).alive; }

recovery::Manager& SimCluster::manager(NodeId node_id) {
  Node& target = node(node_id);
  HLOCK_REQUIRE(recovery_on(), "recovery is not enabled on this cluster");
  return *target.core.manager();
}

std::uint64_t SimCluster::stale_drops(NodeId node_id) const {
  return node(node_id).core.stale_drops();
}

std::uint64_t SimCluster::total_stale_drops() const {
  std::uint64_t total = 0;
  for (const auto& each : nodes_) total += each->core.stale_drops();
  return total;
}

void SimCluster::crash(NodeId node_id) {
  Node& target = node(node_id);
  if (!target.alive) return;  // double kill: the first one wins
  target.alive = false;
  target.core.crash();
}

void SimCluster::schedule_recovery_tick() {
  // One shared ticker drives every live node's failure detector; it stops
  // rescheduling past the horizon so run_to_completion() terminates.
  const SimTime next = simulator_.now() + options_.recovery.heartbeat_interval;
  if (next > options_.recovery_horizon) return;
  simulator_.schedule_at(next, [this] {
    for (const auto& each : nodes_) {
      if (each->alive) each->core.tick();
    }
    schedule_recovery_tick();
  });
}

void SimCluster::transmit(proto::Message&& message) {
  metrics_.messages().add(proto::kind_of(message.payload));
  if (message_observer_) message_observer_(simulator_.now(), message);
  if (options_.message_loss_probability > 0.0 &&
      loss_rng_.chance(options_.message_loss_probability)) {
    return;  // injected loss: the message vanishes after being counted
  }
  const SimTime at =
      network_.delivery_time(simulator_.now(), message.from, message.to);
  simulator_.schedule_at(at, [this, message = std::move(message)] {
    Node& to = *nodes_[message.to.value()];
    if (to.alive) to.core.deliver(message);
  });
}

}  // namespace hlock::runtime
