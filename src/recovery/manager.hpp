// Per-node crash-recovery manager: failure detection, coordinator election
// and epoch-fenced token regeneration (docs/recovery.md).
//
// One Manager runs next to each node's protocol engine, in both runtimes
// (SimCluster schedules its ticks as events, ThreadCluster drives it from a
// ticker thread). It is a pure state machine like the automatons: every
// entry point returns an Outcome the runtime applies — recovery messages to
// transmit, fence effects to apply to the engine, trace events to sink —
// which keeps the whole recovery protocol explorable by the model checker.
//
// The protocol, in one paragraph: a node that suspects a peer dead (local
// heartbeat timeout, or gossip) HALTS protocol processing — the runtime
// buffers protocol messages and application operations while halted() — and
// sends one ElectToken report per lock to the campaign's coordinator, the
// lowest live node id. The coordinator, once it holds complete reports from
// every live node for the current dead set, mints a campaign epoch that no
// previous or concurrent campaign can have produced
// (epoch = (floor(max_reported / n) + 1) * n + coordinator_id) and
// broadcasts one EpochFence per reported lock: the token's new root, the
// surviving holders and the reconstructed waiting queue. Receivers apply
// each fence to the lock's automaton and, once the campaign's fence set is
// complete, unhalt and replay their buffered traffic — whose old-epoch
// messages the automatons now drop as stale. Reports reflect every message
// their sender will ever act on in the old epoch (nothing is processed
// between report and fence), which is the safety argument: the coordinator
// accounts for every surviving hold and waiter exactly once.
//
// Assumption: crash-stop failures and an eventually-accurate detector.
// Suspicions are never retracted; a falsely suspected live node is fenced
// out (its stale-epoch messages are dropped and its automatons demote
// themselves if a fence ever reaches them). Tune Options::suspect_after
// well above the maximum message delay to make false suspicion improbable.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/effects.hpp"
#include "proto/ids.hpp"
#include "proto/message.hpp"
#include "recovery/host.hpp"
#include "trace/event.hpp"
#include "util/sim_time.hpp"

namespace hlock::recovery {

/// Failure-detector and recovery tuning.
struct Options {
  /// Master switch: a disabled manager sends nothing and never suspects,
  /// so recovery adds zero message traffic to fault-free benchmarks.
  bool enabled = false;
  /// Heartbeat broadcast period.
  SimTime heartbeat_interval = SimTime::ms(100);
  /// Silence threshold before a peer is suspected dead. Must be well above
  /// heartbeat_interval plus the maximum one-way delay.
  SimTime suspect_after = SimTime::ms(1000);
  /// Fault injection for the model checker's expect-violation run: the
  /// coordinator sends half its peers a conflicting same-epoch fence that
  /// appoints a different root — the double-regeneration bug the per-epoch
  /// token-conservation check must catch.
  bool doctor_double_fence = false;
};

/// Cumulative recovery statistics of one node.
struct RecoveryCounters {
  std::uint64_t suspicions = 0;        ///< dead nodes adopted
  std::uint64_t campaigns_led = 0;     ///< fence sets minted as coordinator
  std::uint64_t fences_installed = 0;  ///< per-lock fences applied
  std::uint64_t recoveries = 0;        ///< halt -> unhalt cycles completed
};

/// What one Manager step asks the runtime to do.
struct Outcome {
  /// Recovery messages to transmit (heartbeats, suspicions, reports,
  /// fences). Never protocol messages.
  std::vector<proto::Message> messages;
  /// Per-lock automaton effects from locally applied fences; the runtime
  /// applies each exactly like a protocol step (transmit messages, sink
  /// events, surface grants).
  std::vector<std::pair<proto::LockId, core::Effects>> fence_effects;
  /// Recovery trace events (kNodeDead, from suspicion adoption) for the
  /// runtime's event sink; kFence events travel inside fence_effects.
  std::vector<trace::TraceEvent> events;
  /// The node just unhalted: the runtime must replay its buffered protocol
  /// messages and application operations now.
  bool unhalted = false;

  /// Folds another outcome's content in (steps that cascade internally).
  void merge(Outcome&& other);
};

/// Where the receive-side gate sends one incoming message
/// (docs/recovery.md, "Epochs and the stale-message gate").
enum class Route : std::uint8_t {
  kManager,  ///< a recovery kind: Manager::on_message() consumes it
  kHalt,     ///< a protocol message while halted: hold until unhalt
  kPark,     ///< from a newer epoch than the lock's: hold until its fence
  kEngine,   ///< to the automaton, which stale-drops older epochs itself
};

/// The protocol messages the gate holds back at one node, in replay order.
struct Backlog {
  std::vector<proto::Message> halted;  ///< Route::kHalt, in arrival order
  std::vector<proto::Message> parked;  ///< Route::kPark, in arrival order

  /// Holds `message` under a kHalt or kPark decision.
  void hold(Route route, const proto::Message& message);
  /// Empties both buffers, returning what the unhalt replays: the parked
  /// messages first (they already belong to the fenced-in epoch), then the
  /// halted backlog, whose pre-fence messages stale-drop in the automaton.
  /// Each goes back through the gate, so it can be held again if another
  /// campaign began meanwhile.
  std::vector<proto::Message> take();
  /// Discards everything (a crash-stop loses all volatile state).
  void clear();
  bool empty() const { return halted.empty() && parked.empty(); }
};

/// See file comment.
class Manager {
 public:
  /// `host` must outlive the manager; `node_count` is the cluster size
  /// (node ids are [0, node_count)).
  Manager(NodeId self, std::size_t node_count, Options options, Host* host);

  bool enabled() const { return options_.enabled; }
  NodeId self() const { return self_; }

  /// True while protocol processing is halted (suspicion raised, campaign
  /// fences not yet complete). The runtime must buffer protocol messages
  /// and application operations, and replay them on Outcome::unhalted.
  bool halted() const { return halted_; }

  /// Nodes this manager believes crashed, ascending.
  const std::vector<NodeId>& dead() const { return dead_; }
  bool is_dead(NodeId node) const;

  /// Highest recovery epoch this node has minted or applied.
  std::uint32_t current_epoch() const { return max_epoch_seen_; }

  const RecoveryCounters& counters() const { return counters_; }

  /// Completed recovery durations (halt to unhalt), milliseconds, in
  /// completion order — the hlock_recovery_ms histogram's samples.
  const std::vector<double>& recovery_durations_ms() const {
    return recovery_ms_;
  }

  /// Records that any message from `from` arrived (refreshes the failure
  /// detector). Runtimes call this for every delivery, so protocol traffic
  /// doubles as liveness evidence.
  void note_alive(NodeId from, SimTime now);

  /// Periodic driver: emits due heartbeats and raises timeout suspicions.
  /// Runtimes call it roughly every heartbeat_interval.
  Outcome on_tick(SimTime now);

  /// The gate's decision for one incoming message: recovery kinds go to
  /// on_message(); protocol messages are held while halted or when they
  /// carry a newer epoch than the host's for their lock, and otherwise
  /// reach the engine. Both runtimes (runtime::NodeCore) and the model
  /// checker route through this one function.
  Route route(const proto::Message& message) const;

  /// Delivers one recovery message (is_recovery_kind). Protocol messages
  /// never come here.
  Outcome on_message(const proto::Message& message, SimTime now);

  /// Directly injects a suspicion (model checker and tests; the timeout
  /// path funnels into the same transition).
  Outcome suspect(NodeId dead, SimTime now);

  /// Canonical serialization of all behavior-relevant manager state (model
  /// checker dedup). Excludes clocks and counters.
  std::string fingerprint() const;

 private:
  /// One peer's report set for the current campaign.
  struct PeerReports {
    /// lock_count announced by the peer's reports; UINT32_MAX until the
    /// first report arrives. 0 = lockless report, complete by itself.
    std::uint32_t expected = UINT32_MAX;
    /// Reports received, keyed by lock id value (deterministic order).
    std::map<std::uint32_t, proto::ElectToken> locks;

    bool complete() const {
      return expected != UINT32_MAX && locks.size() == expected;
    }
  };

  void adopt_dead(NodeId node, SimTime now, Outcome& out);
  void send_reports(SimTime now, Outcome& out);
  void ingest_report(NodeId from, proto::LockId lock,
                     const proto::ElectToken& report);
  /// Coordinator: mints and broadcasts the campaign's fences once every
  /// live node's report set is complete.
  void maybe_mint(SimTime now, Outcome& out);
  void apply_fence(proto::LockId lock, const proto::EpochFence& fence,
                   SimTime now, Outcome& out);
  void unhalt(SimTime now, Outcome& out);
  /// Campaign coordinator: the lowest node id not believed dead.
  NodeId coordinator() const;
  std::vector<NodeId> live_peers() const;
  proto::Message make_message(NodeId to, proto::LockId lock,
                              proto::Payload payload) const;

  const NodeId self_;
  const std::size_t node_count_;
  const Options options_;
  Host* const host_;

  std::vector<NodeId> dead_;  ///< sorted; the campaign identity
  bool halted_ = false;
  SimTime halt_started_{};
  std::uint32_t max_epoch_seen_ = 0;

  // Failure detector.
  std::vector<SimTime> last_heard_;
  SimTime next_heartbeat_{};

  // Coordinator state: reports gathered for the current dead_ set.
  std::map<std::uint32_t, PeerReports> reports_;  ///< by node id value

  // Receiver state: fences collected for the current dead_ set.
  std::set<std::uint32_t> fences_received_;  ///< fence_index values
  std::uint32_t fences_expected_ = UINT32_MAX;

  RecoveryCounters counters_;
  std::vector<double> recovery_ms_;
};

}  // namespace hlock::recovery
