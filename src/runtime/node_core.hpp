// The single-threaded core of one protocol node, shared by both runtimes.
//
// A NodeCore owns what the paper's per-node rules act on — the node's
// protocol engine — and the crash-recovery state around it: the optional
// recovery::Manager, the protocol messages the receive-side gate holds
// back, the application operations issued while the node is halted, and
// the stale-drop count. Every delivery passes the gate
// (recovery::Manager::route, docs/recovery.md), and every step's effects
// are applied in one order: events, then each message, then the grant.
// SimCluster and ThreadCluster supply only what differs between them —
// time, threads and the transport — through a NodePort.
//
// Not thread-safe: the simulator is single-threaded, and ThreadCluster runs
// one core per engine shard under that shard's mutex.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/lamport.hpp"
#include "recovery/manager.hpp"
#include "runtime/engine.hpp"
#include "trace/event.hpp"
#include "util/sim_time.hpp"

namespace hlock::runtime {

/// What a NodeCore needs from the runtime around it.
class NodePort {
 public:
  /// The runtime's clock — simulated time, or wall time since the cluster
  /// started. Stamps events and drives the recovery manager.
  virtual SimTime now() = 0;
  /// Transmits one step's messages, Lamport-stamped, in emission order.
  virtual void send(std::vector<proto::Message>&& messages) = 0;
  /// Sinks one step's events, stamped with now() and the step's Lamport
  /// time. Never called with an empty batch.
  virtual void sink(std::vector<trace::TraceEvent>&& events) = 0;
  /// The node's request on `lock` was granted, or (`upgraded`) its Rule 7
  /// upgrade on `lock` completed.
  virtual void granted(LockId lock, bool upgraded) = 0;

 protected:
  ~NodePort() = default;
};

/// See file comment.
class NodeCore {
 public:
  /// With `recovery.enabled`, a recovery::Manager for node `self` of a
  /// `node_count`-node cluster runs over `engine`. `clock` is the node's
  /// Lamport clock (shared by all cores of one node); it and `port` must
  /// outlive the core.
  NodeCore(NodeId self, std::size_t node_count,
           std::unique_ptr<LockEngine> engine,
           const recovery::Options& recovery, obs::AtomicLamportClock& clock,
           NodePort& port);

  // ---- Application operations: applied at once, or buffered while the
  //      node is halted and replayed when it unhalts ----

  void request(LockId lock, LockMode mode, std::uint8_t priority);
  void release(LockId lock);
  void upgrade(LockId lock);

  /// Receives one message: merges its Lamport time, counts it as liveness
  /// evidence for its sender, and routes it through the gate.
  void deliver(const proto::Message& message);

  /// Runs the recovery manager's heartbeat and timeout scan.
  /// Precondition: recovery is enabled.
  void tick();

  /// Crash-stop: the held messages and buffered operations are lost.
  void crash();

  LockEngine& engine() { return *engine_; }
  /// The recovery manager; nullptr when recovery is off.
  recovery::Manager* manager() { return manager_.get(); }
  /// Protocol messages the engine dropped for carrying a pre-fence epoch.
  std::uint64_t stale_drops() const { return stale_drops_; }

 private:
  /// One application operation, as buffered while halted.
  struct Op {
    enum class Kind : std::uint8_t { kRequest, kRelease, kUpgrade };
    Kind kind = Kind::kRequest;
    LockId lock{};
    LockMode mode = LockMode::kNL;
    std::uint8_t priority = 0;
  };

  bool halted() const { return manager_ != nullptr && manager_->halted(); }
  /// Stamps and hands out one step's events and messages.
  void publish(std::vector<trace::TraceEvent>&& events,
               std::vector<proto::Message>&& messages);
  void apply(LockId lock, Effects&& effects);
  /// Applies a manager step: its own events and messages, then its fence
  /// effects, then — on unhalt — the replay of the held messages and the
  /// buffered operations, in that order.
  void apply(recovery::Outcome&& outcome);

  std::unique_ptr<LockEngine> engine_;
  std::unique_ptr<recovery::Manager> manager_;
  obs::AtomicLamportClock& clock_;
  NodePort& port_;
  recovery::Backlog backlog_;
  std::vector<Op> ops_;
  std::uint64_t stale_drops_ = 0;
};

}  // namespace hlock::runtime
