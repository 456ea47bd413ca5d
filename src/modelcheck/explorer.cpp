#include "modelcheck/explorer.hpp"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <variant>

#include "core/hier_automaton.hpp"
#include "core/mode_tables.hpp"
#include "lint/checker.hpp"
#include "modelcheck/symmetry.hpp"
#include "naimi/naimi_automaton.hpp"
#include "raymond/raymond_automaton.hpp"
#include "recovery/host.hpp"
#include "util/check.hpp"

namespace hlock::modelcheck {

namespace {

using core::Effects;
using core::HierAutomaton;
using proto::LockId;
using proto::LockMode;
using proto::Message;
using proto::NodeId;

constexpr LockId kLock{0};

/// What a node is doing with respect to its script.
enum class Status : std::uint8_t {
  kIdle,        ///< ready to issue its next script op
  kWaiting,     ///< acquire issued, grant not yet received
  kUpgrading,   ///< upgrade issued, completion not yet received
  kDone,        ///< script exhausted
};

/// One complete system state. Copyable (not assignable — the managers
/// carry const identity members); branching copy-constructs it.
struct State {
  std::vector<HierAutomaton> nodes;
  /// FIFO channels keyed by (from, to); only nonempty ones are stored.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::deque<Message>>
      channels;
  std::vector<std::size_t> pc;       // next script index per node
  std::vector<Status> status;
  // Crash exploration only (CrashSpec::active()); empty otherwise. The
  // managers' Host pointers route through the explorer's per-node
  // adapters, which dereference whatever state the explorer is currently
  // operating on — copies of a State therefore stay self-contained.
  std::vector<recovery::Manager> managers;
  std::uint32_t alive = ~0u;  ///< bit i: node i has not crashed
  std::vector<recovery::Backlog> backlog;  ///< the gate's held messages
};

/// One transition of the scripted system: deliver the head of channel
/// (from, node), node issues its next script op, a crash victim stops, or
/// a live node suspects a crashed one. Together with the source state this
/// determines the successor (automatons and managers are deterministic,
/// channels FIFO) — which is what makes parent-link replay of
/// counterexample paths exact.
struct Action {
  enum class Type : std::uint8_t { kDeliver, kStep, kCrash, kSuspect };
  Type type = Type::kStep;
  std::uint32_t from = 0;  ///< kDeliver: channel source; kSuspect: victim
  std::uint32_t node = 0;  ///< acting node: receiver / issuer / suspector;
                           ///< kCrash: the victim itself
};

/// Per-visited-state bookkeeping: the exploration-forest parent link (for
/// path reconstruction and BFS-shortest counterexamples), and the set of
/// nodes with an unresolved request (for liveness cycle search).
struct Record {
  std::int64_t parent = -1;
  Action via = {};
  std::uint32_t depth = 0;
  std::uint32_t waiting = 0;  ///< bit i: node i is kWaiting/kUpgrading
  /// Every enabled action was explored here (POR pruned nothing). The
  /// post-exploration ignoring repair (condition S) re-expands states
  /// until every cycle of the reduced graph contains a full state.
  bool full = true;
};

/// One explored edge; recorded under liveness (cycles live on non-tree
/// edges, which parent links alone cannot represent) and under POR (the
/// ignoring repair needs the whole reduced graph).
struct Edge {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  Action via = {};
};

/// A failed state-property check: the human message and the
/// exploration-order-independent descriptor (ExploreResult::
/// violation_fingerprint). Empty message means the check passed.
struct SafetyIssue {
  std::string message;
  std::string descriptor;
};

/// Host adapter handed to every recovery::Manager under crash exploration.
/// Managers are copied with their States, but all copies of node i share
/// this one adapter, which routes to the state the explorer is currently
/// applying an action to (`*active`) — the same calls HierEngine makes on
/// that state's automaton.
class CrashHost : public recovery::Host {
 public:
  CrashHost(State* const* active, std::uint32_t node)
      : active_(active), node_(node) {}

  std::vector<LockId> recovery_locks() override { return {kLock}; }

  recovery::LockReport report(LockId /*lock*/) override {
    return automaton().recovery_report();
  }

  Effects install_fence(LockId /*lock*/,
                        const proto::EpochFence& fence) override {
    return automaton().install_fence(fence);
  }

  std::uint32_t recovery_epoch(LockId /*lock*/) override {
    return automaton().recovery_epoch();
  }

  void set_default_origin(NodeId /*root*/, std::uint32_t /*epoch*/) override {
    // The explorer pre-builds every node's single-lock automaton, so no
    // lazily created automaton can ever use the default origin.
  }

 private:
  HierAutomaton& automaton() {
    HLOCK_INVARIANT(*active_ != nullptr,
                    "recovery host used outside an explorer transition");
    return (*active_)->nodes[node_];
  }

  State* const* active_;
  const std::uint32_t node_;
};

class Explorer {
 public:
  Explorer(const std::vector<Script>& scripts, const ExploreOptions& options)
      : scripts_(scripts), options_(options), n_(scripts.size()),
        search_config_(options.config), replay_config_(options.config),
        crash_on_(options.crash.active()) {
    if (crash_on_) {
      HLOCK_REQUIRE(!options_.liveness,
                    "crash exploration does not support liveness lassos");
      HLOCK_REQUIRE(options_.doctor.bounce.is_none(),
                    "crash exploration does not support the bounce doctor");
      rec_options_ = options_.crash.recovery;
      rec_options_.enabled = true;
      for (const NodeId victim : options_.crash.victims) {
        HLOCK_REQUIRE(victim.value() < n_,
                      "crash victim outside the configuration");
        victims_mask_ |= 1u << victim.value();
      }
      hosts_.reserve(n_);
      for (std::uint32_t i = 0; i < n_; ++i) {
        hosts_.push_back(std::make_unique<CrashHost>(&active_, i));
      }
    }
    // The search never records events (they would have to ride every
    // frontier state); counterexample events come from deterministic
    // replay instead, which forces tracing on. Event emission is the ONLY
    // thing the flag changes, so search and replay behave identically.
    search_config_.trace_events = false;
    replay_config_.trace_events = true;
    // Symmetry quotienting is sound only for state properties: a cycle in
    // the quotient graph need not lift to a concrete cycle (the witness
    // could spiral through the orbit), so liveness forces it off. A
    // doctored bounce target also breaks node interchangeability.
    // Crash mode also forces symmetry off: the victim set and the
    // managers' id-keyed campaign state break node interchangeability.
    if (options_.symmetry && !options_.liveness && !crash_on_ &&
        options_.doctor.bounce.is_none()) {
      std::vector<std::size_t> classes(n_, 0);
      for (std::size_t i = 0; i < n_; ++i) {
        classes[i] = i;
        for (std::size_t j = 0; j < i; ++j) {
          if (scripts_[j] == scripts_[i]) {
            classes[i] = j;
            break;
          }
        }
      }
      group_ = SymmetryGroup::from_classes(classes);
    }
    result_.stats.symmetry_permutations =
        group_.perms().empty() ? 1 : group_.perms().size();
  }

  ExploreResult run() {
    State initial = make_initial(search_config_);
    records_.push_back(Record{});
    records_[0].waiting = waiting_mask(initial);
    visited_.emplace(canonical_fingerprint(initial), 0);
    result_.states_explored = 1;
    if (result_.states_explored > options_.max_states) {
      fail(state_limit_message(), "statelimit", Verdict::kStateLimit, {});
    } else {
      std::deque<std::pair<State, std::uint32_t>> frontier;
      frontier.emplace_back(std::move(initial), 0);
      drain(frontier);
      if (result_.violation.empty() && options_.por) repair_ignoring();
    }
    if (result_.violation.empty() && options_.liveness) liveness_check();
    if (result_.violation.empty()) {
      result_.ok = true;
      result_.verdict = Verdict::kOk;
    }
    result_.stats.states = result_.states_explored;
    result_.stats.transitions = result_.transitions;
    result_.stats.terminal_states = result_.terminal_states;
    return result_;
  }

 private:
  void drain(std::deque<std::pair<State, std::uint32_t>>& frontier) {
    while (!frontier.empty() && result_.violation.empty()) {
      result_.stats.peak_frontier = std::max<std::uint64_t>(
          result_.stats.peak_frontier, frontier.size());
      // BFS (minimize) pops the oldest state so parent links yield
      // depth-minimal counterexamples; DFS pops the newest.
      std::pair<State, std::uint32_t> entry =
          options_.minimize ? std::move(frontier.front())
                            : std::move(frontier.back());
      if (options_.minimize) {
        frontier.pop_front();
      } else {
        frontier.pop_back();
      }
      expand(entry.first, entry.second, frontier);
    }
  }

  State make_initial(const core::HierConfig& config) const {
    State state;
    for (std::size_t i = 0; i < n_; ++i) {
      const NodeId self{static_cast<std::uint32_t>(i)};
      state.nodes.emplace_back(self, kLock, i == 0,
                               i == 0 ? NodeId::none() : NodeId{0}, config);
    }
    state.pc.assign(n_, 0);
    state.status.assign(n_, Status::kIdle);
    for (std::size_t i = 0; i < n_; ++i) {
      if (scripts_[i].empty()) state.status[i] = Status::kDone;
    }
    if (crash_on_) {
      state.managers.reserve(n_);
      for (std::size_t i = 0; i < n_; ++i) {
        state.managers.emplace_back(NodeId{static_cast<std::uint32_t>(i)},
                                    n_, rec_options_, hosts_[i].get());
      }
      state.backlog.resize(n_);
    }
    return state;
  }

  bool alive(const State& state, std::uint32_t node) const {
    return ((state.alive >> node) & 1) != 0;
  }

  std::string state_limit_message() const {
    return "state limit exceeded (" + std::to_string(options_.max_states) +
           ")";
  }

  // ---- Transition semantics ----

  std::vector<Action> enumerate_enabled(const State& state) const {
    std::vector<Action> actions;
    for (const auto& [key, queue] : state.channels) {
      actions.push_back(
          Action{Action::Type::kDeliver, key.first, key.second});
    }
    for (std::size_t i = 0; i < n_; ++i) {
      if (state.status[i] != Status::kIdle) continue;
      if (state.pc[i] >= scripts_[i].size()) continue;
      // A halted node buffers application operations; the replay on unhalt
      // reissues them, so not enabling the step here loses no behavior.
      if (crash_on_ && state.managers[i].halted()) continue;
      actions.push_back(
          Action{Action::Type::kStep, 0, static_cast<std::uint32_t>(i)});
    }
    if (crash_on_) {
      for (std::uint32_t v = 0; v < n_; ++v) {
        if (((victims_mask_ >> v) & 1) == 0 || !alive(state, v)) continue;
        actions.push_back(Action{Action::Type::kCrash, 0, v});
      }
      // Suspicion is explored only for genuinely crashed nodes, from every
      // live node that does not yet believe the victim dead (gossip and
      // report/fence dead-sets converge the rest).
      for (std::uint32_t s = 0; s < n_; ++s) {
        if (!alive(state, s)) continue;
        for (std::uint32_t v = 0; v < n_; ++v) {
          if (alive(state, v) || state.managers[s].is_dead(NodeId{v})) {
            continue;
          }
          actions.push_back(Action{Action::Type::kSuspect, v, s});
        }
      }
    }
    return actions;
  }

  /// DoctoredSpec::bounce: intercepts REQUEST messages of the victim at
  /// the network layer — see the header. Returns true when the message
  /// was consumed by the bounce (the automaton never sees it).
  bool bounced(State& state, const Message& message) const {
    if (options_.doctor.bounce.is_none()) return false;
    const auto* request = std::get_if<proto::HierRequest>(&message.payload);
    if (!request || request->requester != options_.doctor.bounce) {
      return false;
    }
    Message bounce = message;
    bounce.from = message.to;
    if (message.to != request->requester) {
      bounce.to = request->requester;
    } else {
      // The victim re-forwards its own bounced request toward the token.
      bounce.to = NodeId{0};
      for (std::size_t i = 0; i < n_; ++i) {
        if (state.nodes[i].is_token()) {
          bounce.to = NodeId{static_cast<std::uint32_t>(i)};
          break;
        }
      }
    }
    state.channels[{bounce.from.value(), bounce.to.value()}].push_back(
        std::move(bounce));
    return true;
  }

  /// Stamps freshly produced events with a logical clock (there is no
  /// simulated one) so counterexample dumps order and replay
  /// deterministically; no-op when not tracing.
  void sink_events(std::vector<trace::TraceEvent>&& fresh,
                   std::vector<trace::TraceEvent>* events) const {
    if (!events) return;
    for (trace::TraceEvent& event : fresh) {
      event.at = SimTime::ns(static_cast<std::int64_t>(events->size()) + 1);
      events->push_back(std::move(event));
    }
  }

  /// Applies one automaton step's effects exactly as the runtimes do:
  /// sink events, fan out messages (sends to a crashed node are lost, as
  /// over a real network) and fold grants into the actor's script status.
  void apply_effects(State& state, std::size_t actor, Effects&& fx,
                     std::vector<trace::TraceEvent>* events) const {
    sink_events(std::move(fx.events), events);
    for (Message& message : fx.messages) {
      if (crash_on_ && !alive(state, message.to.value())) continue;
      state.channels[{message.from.value(), message.to.value()}].push_back(
          std::move(message));
    }
    if (fx.entered_cs) {
      HLOCK_INVARIANT(state.status[actor] == Status::kWaiting ||
                          state.status[actor] == Status::kIdle,
                      "grant delivered to a node that was not waiting");
      state.status[actor] = Status::kIdle;
    }
    if (fx.upgraded) state.status[actor] = Status::kIdle;
    if (state.status[actor] == Status::kIdle &&
        state.pc[actor] >= scripts_[actor].size()) {
      state.status[actor] = Status::kDone;
    }
  }

  /// Applies one Manager step's outcome in runtime::NodeCore's order:
  /// messages fan out (sends to crashed nodes are lost), fence effects
  /// apply like protocol steps, and an unhalt replays the node's backlog
  /// synchronously (the model has no buffered application operations: a
  /// halted node's script steps are simply not enabled).
  void apply_outcome(State& state, std::size_t actor,
                     recovery::Outcome&& out,
                     std::vector<trace::TraceEvent>* events) const {
    sink_events(std::move(out.events), events);
    for (Message& message : out.messages) {
      if (!alive(state, message.to.value())) continue;
      state.channels[{message.from.value(), message.to.value()}].push_back(
          std::move(message));
    }
    for (auto& [lock, fx] : out.fence_effects) {
      (void)lock;  // single-lock configuration
      apply_effects(state, actor, std::move(fx), events);
    }
    if (out.unhalted) {
      for (const Message& message : state.backlog[actor].take()) {
        route_message(state, actor, message, events);
      }
    }
  }

  /// Routes one delivered (or replayed) message at node `to` through the
  /// runtimes' receive-side gate (recovery::Manager::route): recovery kinds
  /// go to the manager, held protocol messages join the backlog, and the
  /// rest hit the automaton (which stale-drops older epochs itself).
  void route_message(State& state, std::size_t to, const Message& message,
                     std::vector<trace::TraceEvent>* events) const {
    if (crash_on_) {
      recovery::Manager& manager = state.managers[to];
      const recovery::Route route = manager.route(message);
      if (route == recovery::Route::kManager) {
        apply_outcome(state, to, manager.on_message(message, SimTime{}),
                      events);
        return;
      }
      if (route != recovery::Route::kEngine) {
        state.backlog[to].hold(route, message);
        return;
      }
    }
    if (bounced(state, message)) return;
    apply_effects(state, to, state.nodes[to].on_message(message), events);
  }

  /// Crash-stop: the victim loses its volatile state, messages in flight
  /// TOWARD it are lost with it (in-flight messages FROM it still
  /// deliver, exactly as over a real network), and its unfinished script
  /// is forgiven — the terminal no-lost-waiter check covers survivors.
  void do_crash(State& state, std::size_t victim) const {
    state.alive &= ~(1u << victim);
    for (auto it = state.channels.begin(); it != state.channels.end();) {
      it = it->first.second == victim ? state.channels.erase(it)
                                      : std::next(it);
    }
    state.backlog[victim].clear();
    state.status[victim] = Status::kDone;
  }

  /// Applies `action` in place, optionally recording the trace line and
  /// the stamped structured events; returns the post-state safety check.
  SafetyIssue apply(State& state, const Action& action,
                    std::vector<std::string>* trace,
                    std::vector<trace::TraceEvent>* events) const {
    // The managers' Host adapters resolve against the state being acted
    // on; scoped so stray use outside a transition trips the invariant.
    if (crash_on_) active_ = &state;
    const std::size_t actor = action.node;
    if (action.type == Action::Type::kDeliver) {
      auto it = state.channels.find({action.from, action.node});
      HLOCK_INVARIANT(it != state.channels.end() && !it->second.empty(),
                      "delivery from an empty channel");
      const Message message = std::move(it->second.front());
      it->second.pop_front();
      if (it->second.empty()) state.channels.erase(it);
      if (trace) trace->push_back("deliver " + to_string(message));
      route_message(state, actor, message, events);
    } else if (action.type == Action::Type::kCrash) {
      if (trace) {
        trace->push_back("node" + std::to_string(actor) + " crashes");
      }
      do_crash(state, actor);
    } else if (action.type == Action::Type::kSuspect) {
      if (trace) {
        trace->push_back("node" + std::to_string(actor) + " suspects node" +
                         std::to_string(action.from));
      }
      apply_outcome(state, actor,
                    state.managers[actor].suspect(NodeId{action.from},
                                                  SimTime{}),
                    events);
    } else {
      const ScriptOp op = scripts_[actor][state.pc[actor]];
      ++state.pc[actor];
      Effects fx;
      switch (op.kind) {
        case ScriptOp::Kind::kAcquire:
          if (trace) {
            trace->push_back("node" + std::to_string(actor) + " acquire " +
                             to_string(op.mode) + "/p" +
                             std::to_string(op.priority));
          }
          state.status[actor] = Status::kWaiting;
          fx = state.nodes[actor].request(op.mode, op.priority);
          break;
        case ScriptOp::Kind::kRelease:
          if (trace) {
            trace->push_back("node" + std::to_string(actor) + " release");
          }
          fx = state.nodes[actor].release();
          break;
        case ScriptOp::Kind::kUpgrade:
          if (trace) {
            trace->push_back("node" + std::to_string(actor) + " upgrade");
          }
          state.status[actor] = Status::kUpgrading;
          fx = state.nodes[actor].upgrade();
          break;
      }
      apply_effects(state, actor, std::move(fx), events);
    }
    const SafetyIssue issue = check_safety(state);
    if (crash_on_) active_ = nullptr;
    return issue;
  }

  bool modes_conflict(LockMode a, LockMode b) const {
    if (core::incompatible(a, b)) return true;
    for (const auto& [x, y] : options_.doctor.conflicts) {
      if ((x == a && y == b) || (x == b && y == a)) return true;
    }
    return false;
  }

  std::size_t tokens_in_flight(const State& state) const {
    std::size_t tokens = 0;
    for (const auto& [key, queue] : state.channels) {
      for (const Message& message : queue) {
        if (std::holds_alternative<proto::HierToken>(message.payload)) {
          ++tokens;
        }
      }
    }
    return tokens;
  }

  SafetyIssue check_safety(const State& state) const {
    if (!crash_on_) {
      const std::size_t tokens = token_count(state);
      if (tokens != 1) {
        return {"token conservation violated: " + std::to_string(tokens) +
                    " tokens",
                "tokens:" + std::to_string(tokens)};
      }
    } else {
      // Per-epoch token conservation — the crash-recovery safety claim:
      // at most one token per recovery epoch, counting live at-rest
      // tokens under the holder's epoch and every in-flight or buffered
      // TOKEN message under its envelope epoch. A crash may destroy the
      // current epoch's token (count 0) until a fence mints the next
      // epoch's; a double regeneration (doctor_double_fence) puts two in
      // one epoch and fails here.
      std::map<std::uint32_t, std::size_t> tokens;
      for (std::size_t i = 0; i < state.nodes.size(); ++i) {
        if (!alive(state, static_cast<std::uint32_t>(i))) continue;
        if (state.nodes[i].is_token()) {
          ++tokens[state.nodes[i].recovery_epoch()];
        }
      }
      const auto count = [&tokens](const Message& message) {
        if (std::holds_alternative<proto::HierToken>(message.payload)) {
          ++tokens[message.epoch];
        }
      };
      for (const auto& [key, queue] : state.channels) {
        for (const Message& message : queue) count(message);
      }
      for (const recovery::Backlog& backlog : state.backlog) {
        for (const Message& message : backlog.halted) count(message);
        for (const Message& message : backlog.parked) count(message);
      }
      for (const auto& [epoch, cnt] : tokens) {
        if (cnt > 1) {
          return {"token conservation violated in epoch " +
                      std::to_string(epoch) + ": " + std::to_string(cnt) +
                      " tokens",
                  "tokens:" + std::to_string(cnt) + "@e" +
                      std::to_string(epoch)};
        }
      }
    }
    for (std::size_t a = 0; a < state.nodes.size(); ++a) {
      if (crash_on_ && !alive(state, static_cast<std::uint32_t>(a))) {
        continue;  // a crashed holder's stale state is unreachable
      }
      for (std::size_t b = a + 1; b < state.nodes.size(); ++b) {
        if (crash_on_ && !alive(state, static_cast<std::uint32_t>(b))) {
          continue;
        }
        const LockMode ma = state.nodes[a].held();
        const LockMode mb = state.nodes[b].held();
        if (ma != LockMode::kNL && mb != LockMode::kNL &&
            modes_conflict(ma, mb)) {
          std::string lo = to_string(ma);
          std::string hi = to_string(mb);
          if (hi < lo) std::swap(lo, hi);
          return {"incompatible holds: node" + std::to_string(a) + "=" +
                      to_string(ma) + " with node" + std::to_string(b) +
                      "=" + to_string(mb),
                  "incompatible:" + lo + "+" + hi};
        }
      }
    }
    return {};
  }

  std::uint32_t waiting_mask(const State& state) const {
    std::uint32_t mask = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      if (state.status[i] == Status::kWaiting ||
          state.status[i] == Status::kUpgrading) {
        mask |= 1u << i;
      }
    }
    return mask;
  }

  // ---- Fingerprints ----

  std::string plain_fingerprint(const State& state) const {
    std::ostringstream os;
    for (std::size_t i = 0; i < n_; ++i) {
      if (crash_on_ && !alive(state, static_cast<std::uint32_t>(i))) {
        // A dead node's frozen automaton and manager are unreachable;
        // canonicalizing them merges states that differ only in what the
        // victim happened to be doing when it crashed.
        os << 'N' << i << "[dead]";
        continue;
      }
      os << 'N' << i << '[' << state.nodes[i].fingerprint() << ']'
         << state.pc[i] << static_cast<int>(state.status[i]);
      if (crash_on_) {
        os << 'M' << '{' << state.managers[i].fingerprint() << '}' << 'H'
           << '{';
        for (const Message& m : state.backlog[i].halted) {
          os << to_string(m) << ';';
        }
        os << '}' << 'P' << '{';
        for (const Message& m : state.backlog[i].parked) {
          os << to_string(m) << ';';
        }
        os << '}';
      }
    }
    for (const auto& [key, queue] : state.channels) {
      os << 'C' << key.first << '>' << key.second << '{';
      for (const Message& message : queue) os << to_string(message) << ';';
      os << '}';
    }
    return os.str();
  }

  /// The state's rendering after relabeling every node id through `perm`
  /// (the automaton of node i appears at position perm[i], channels and
  /// embedded ids remapped, channel set re-sorted). Two states are
  /// permutation-equivalent iff some relabeling renders them identically.
  std::string relabeled_fingerprint(
      const State& state, const std::vector<std::uint32_t>& perm) const {
    std::vector<std::uint32_t> inverse(n_, 0);
    for (std::size_t i = 0; i < n_; ++i) {
      inverse[perm[i]] = static_cast<std::uint32_t>(i);
    }
    std::ostringstream os;
    for (std::size_t j = 0; j < n_; ++j) {
      const std::size_t i = inverse[j];
      os << 'N' << j << '[' << state.nodes[i].fingerprint(perm) << ']'
         << state.pc[i] << static_cast<int>(state.status[i]);
    }
    std::vector<std::pair<std::pair<std::uint32_t, std::uint32_t>,
                          std::string>>
        channels;
    channels.reserve(state.channels.size());
    for (const auto& [key, queue] : state.channels) {
      std::ostringstream body;
      for (const Message& message : queue) {
        body << to_string(remap_message(message, perm)) << ';';
      }
      channels.emplace_back(
          std::make_pair(perm[key.first], perm[key.second]), body.str());
    }
    std::sort(channels.begin(), channels.end());
    for (const auto& [key, body] : channels) {
      os << 'C' << key.first << '>' << key.second << '{' << body << '}';
    }
    return os.str();
  }

  /// Lexicographic minimum over the symmetry group — the orbit's unique
  /// representative (soundness argument: symmetry.hpp).
  std::string canonical_fingerprint(const State& state) const {
    if (group_.trivial()) return plain_fingerprint(state);
    std::string best;
    for (const auto& perm : group_.perms()) {
      std::string candidate = relabeled_fingerprint(state, perm);
      if (best.empty() || candidate < best) best = std::move(candidate);
    }
    return best;
  }

  // ---- Partial-order reduction ----

  std::uint64_t ref_bit(NodeId id) const {
    if (id.is_none() || id.value() >= n_) return 0;
    return std::uint64_t{1} << id.value();
  }

  /// Modes that could ever appear in a Rule 6 freeze set from here on:
  /// everything incompatible with a mode that is pending now or still to
  /// be requested by some script suffix (queued and in-flight requests
  /// are some node's pending mode, upgrades pend as kW).
  proto::ModeSet freezable_modes(const State& state) const {
    proto::ModeSet requestable;
    for (std::size_t i = 0; i < n_; ++i) {
      if (state.nodes[i].pending() != LockMode::kNL) {
        requestable.insert(state.nodes[i].pending());
      }
      for (std::size_t k = state.pc[i]; k < scripts_[i].size(); ++k) {
        if (scripts_[i][k].kind == ScriptOp::Kind::kAcquire) {
          requestable.insert(scripts_[i][k].mode);
        } else if (scripts_[i][k].kind == ScriptOp::Kind::kUpgrade) {
          requestable.insert(LockMode::kW);
        }
      }
    }
    proto::ModeSet freezable;
    for (const LockMode requested : proto::kRealModes) {
      if (!requestable.contains(requested)) continue;
      for (const LockMode m : proto::kRealModes) {
        if (core::incompatible(m, requested)) freezable.insert(m);
      }
    }
    return freezable;
  }

  /// The only messages a node addresses to a copyset child are FREEZE
  /// notifications (grants go to queue entries, releases to the parent),
  /// and only for frozen modes the child could grant — so a child whose
  /// entry mode can grant no freezable mode is not an addressable
  /// reference at all.
  std::uint64_t automaton_refs(const HierAutomaton& node,
                               proto::ModeSet freezable) const {
    std::uint64_t mask = ref_bit(node.self()) | ref_bit(node.parent()) |
                         ref_bit(node.route_hint());
    for (const core::CopysetEntry& entry : node.copyset()) {
      for (const LockMode m : proto::kRealModes) {
        if (freezable.contains(m) && core::non_token_can_grant(entry.mode, m)) {
          mask |= ref_bit(entry.node);
          break;
        }
      }
    }
    for (const proto::QueuedRequest& entry : node.queue()) {
      mask |= ref_bit(entry.requester);
    }
    return mask;
  }

  /// Node ids embedded in `message` as outstanding requesters — the only
  /// ids the protocol ever TRANSFERS between nodes (grants, releases and
  /// freezes carry no node ids at all), hence the only ids that can
  /// propagate through chains of forwarding.
  std::uint64_t requester_refs(const Message& message) const {
    std::uint64_t mask = ref_bit(message.request.origin);
    if (const auto* request =
            std::get_if<proto::HierRequest>(&message.payload)) {
      mask |= ref_bit(request->requester);
    } else if (const auto* token =
                   std::get_if<proto::HierToken>(&message.payload)) {
      for (const proto::QueuedRequest& entry : token->queue) {
        mask |= ref_bit(entry.requester);
      }
    }
    return mask;
  }

  std::uint64_t message_refs(const Message& message) const {
    return ref_bit(message.from) | ref_bit(message.to) |
           requester_refs(message);
  }

  /// A held-mode change `from -> to` is POR-invisible when every mode the
  /// old value conflicted with (under the doctored table) the new value
  /// conflicts with too: a pairwise-compatibility violation in a skipped
  /// state (some node holds x with modes_conflict(x, from)) persists in
  /// its explored twin where the change already happened, so reordering
  /// the change earlier can hide no violation. kNL -> m grants (nothing
  /// conflicts with kNL unless doctored) and kU -> kW upgrades (kW
  /// conflicts with every real mode) both fall out as special cases.
  bool held_change_invisible(LockMode from, LockMode to) const {
    if (from == to) return true;
    if (modes_conflict(from, to)) return false;  // degenerate doctor tables
    for (const LockMode x : proto::kRealModes) {
      if (modes_conflict(x, from) && !modes_conflict(x, to)) return false;
    }
    return !modes_conflict(LockMode::kNL, from) ||
           modes_conflict(LockMode::kNL, to);
  }

  /// "Visible" state ingredients — anything the checked properties read.
  /// POR may only prune at a state whose explored successors leave the
  /// property ingredients unchanged:
  ///   * held modes, up to the monotone held_change_invisible relaxation;
  ///   * the TOTAL token count (conservation reads nothing else: a
  ///     handoff moving the token between rest and flight keeps count 1,
  ///     and a count violation in a skipped state persists under every
  ///     commuting action — only a merge absorbs a surplus token, and a
  ///     merge changes the count, keeping it visible);
  ///   * request progress (status) under liveness.
  /// Terminal-state (deadlock/quiescence) reachability is preserved by
  /// the persistent-set structure alone, which needs no invisibility.
  bool invisible_step(const State& a, const State& b) const {
    for (std::size_t i = 0; i < n_; ++i) {
      if (!held_change_invisible(a.nodes[i].held(), b.nodes[i].held())) {
        return false;
      }
    }
    if (options_.liveness && a.status != b.status) return false;
    return token_count(a) == token_count(b);
  }

  std::size_t token_count(const State& state) const {
    std::size_t tokens = tokens_in_flight(state);
    for (std::size_t i = 0; i < state.nodes.size(); ++i) {
      if (crash_on_ && !alive(state, static_cast<std::uint32_t>(i))) {
        continue;  // a crashed node's token died with it
      }
      if (state.nodes[i].is_token()) ++tokens;
    }
    return tokens;
  }

  /// Crash mode: the only states POR may reduce are those with recovery
  /// completely quiescent — every victim crashed and adopted by every
  /// survivor (no kCrash/kSuspect enabled), nobody halted, no backlog, no
  /// recovery message in flight, no zombie traffic from a dead sender
  /// still draining, and every live node plus every in-flight message on
  /// one common epoch. Such a state behaves exactly like the crash-free
  /// protocol restricted to the survivors, so the persistent-set argument
  /// applies unchanged; every state with any recovery activity is fully
  /// expanded.
  bool pure_protocol_phase(const State& state) const {
    if ((state.alive & victims_mask_) != 0) return false;
    std::uint32_t epoch = UINT32_MAX;
    for (std::uint32_t i = 0; i < n_; ++i) {
      if (!alive(state, i)) continue;
      const recovery::Manager& manager = state.managers[i];
      if (manager.halted()) return false;
      for (std::uint32_t v = 0; v < n_; ++v) {
        if (!alive(state, v) && !manager.is_dead(NodeId{v})) return false;
      }
      if (!state.backlog[i].empty()) return false;
      if (epoch == UINT32_MAX) {
        epoch = state.nodes[i].recovery_epoch();
      } else if (epoch != state.nodes[i].recovery_epoch()) {
        return false;
      }
    }
    for (const auto& [key, queue] : state.channels) {
      if (!alive(state, key.first)) return false;
      for (const Message& message : queue) {
        if (proto::is_recovery_kind(proto::kind_of(message.payload))) {
          return false;
        }
        if (message.epoch != epoch) return false;
      }
    }
    return true;
  }

  /// Persistent-set reduction (docs/modelcheck.md sketches the proof).
  /// For a candidate node t, close the owner set O under "u could send a
  /// fresh message into an EMPTY channel toward an O-node" during some
  /// execution of non-O actions only. "u could send to o" is
  /// over-approximated by reach[u]: the ids embedded in u's automaton
  /// state plus the ids in messages already addressed to u, propagated by
  /// the only mechanism the protocol has for moving node ids between
  /// nodes — REQUEST forwarding and token queues carry outstanding
  /// REQUESTER ids, while grants, releases and freezes carry no ids at
  /// all. Sender identities learned during an exterior execution are
  /// themselves exterior (O-nodes send nothing in it), so only requester
  /// ids flow in the fixpoint — and only through nodes that can ACT in
  /// such an execution: a node with no enabled action (e.g. blocked
  /// waiting for a grant) and no inbound message stays frozen until an
  /// active exterior node sends to it, so both the id propagation and
  /// the closure itself are restricted to the active-exterior fixpoint.
  /// Actions of nodes outside O then commute
  /// with (and can never enable or disable) every enabled action of O:
  /// exterior sends toward O land behind an undelivered head (appends
  /// commute with head-pops), and exterior actions never touch an
  /// O-automaton. The enabled actions of O form the reduced set; it is
  /// accepted only if it is a strict subset and every successor is
  /// invisible. The ignoring problem (an action deferred forever around
  /// a cycle) is handled globally instead of per-state: after the search
  /// drains, repair_ignoring() re-expands states until every cycle of
  /// the reduced graph contains a fully-expanded state (condition S),
  /// which also keeps liveness detection exact. Returns indices into
  /// `enabled`; empty = no valid reduction.
  std::vector<std::size_t> try_reduce(const State& state,
                                      const std::vector<Action>& enabled) {
    std::vector<std::uint64_t> reach0(n_, 0);  // ids u may address now
    std::vector<std::uint64_t> req0(n_, 0);    // requester ids u may forward
    std::uint64_t base_active = 0;  // nodes with an action enabled right now
    const proto::ModeSet freezable = freezable_modes(state);
    for (std::size_t u = 0; u < n_; ++u) {
      if (crash_on_ && !alive(state, static_cast<std::uint32_t>(u))) {
        continue;  // dead: inert — no refs, no actions, forwards nothing
      }
      reach0[u] = automaton_refs(state.nodes[u], freezable);
      if (state.status[u] == Status::kWaiting ||
          state.status[u] == Status::kUpgrading) {
        req0[u] |= std::uint64_t{1} << u;  // may reissue its own request
      }
      if (state.status[u] == Status::kIdle &&
          state.pc[u] < scripts_[u].size()) {
        base_active |= std::uint64_t{1} << u;  // script step enabled
      }
      for (const proto::QueuedRequest& entry : state.nodes[u].queue()) {
        req0[u] |= ref_bit(entry.requester);
      }
    }
    for (const auto& [key, queue] : state.channels) {
      for (const Message& message : queue) {
        reach0[key.second] |= message_refs(message);
        req0[key.second] |= requester_refs(message);
      }
      base_active |= std::uint64_t{1} << key.second;  // delivery enabled
    }

    std::uint64_t owners = 0;
    for (const Action& action : enabled) {
      owners |= std::uint64_t{1} << action.node;
    }

    std::vector<std::uint64_t> reach(n_, 0);
    std::vector<std::uint64_t> req(n_, 0);
    std::vector<std::size_t> best;
    for (std::size_t t = 0; t < n_; ++t) {
      if (((owners >> t) & 1) == 0) continue;
      std::uint64_t closure = std::uint64_t{1} << t;
      for (bool grew = true; grew;) {
        grew = false;
        // Which EXTERIOR nodes can act at all during an O-free execution?
        // Only nodes with an action enabled now, plus nodes an active
        // exterior node can send to (waking them). O-nodes never act, so
        // ids cannot flow through them either: the requester-propagation
        // fixpoint is restricted to active exterior senders. Recomputed
        // whenever the closure grows (the exterior shrinks).
        std::uint64_t active = base_active & ~closure;
        reach = reach0;
        req = req0;
        for (bool changed = true; changed;) {
          changed = false;
          for (std::size_t v = 0; v < n_; ++v) {
            if (((active >> v) & 1) == 0 || ((closure >> v) & 1) != 0) {
              continue;
            }
            for (std::size_t x = 0; x < n_; ++x) {
              if (x == v || ((reach[v] >> x) & 1) == 0) continue;
              if (((active >> x) & 1) == 0) {
                active |= std::uint64_t{1} << x;
                changed = true;
              }
              if ((req[v] & ~req[x]) != 0 || (req[v] & ~reach[x]) != 0) {
                req[x] |= req[v];
                reach[x] |= req[v];
                changed = true;
              }
            }
          }
        }
        for (std::size_t u = 0; u < n_ && !grew; ++u) {
          if (((closure >> u) & 1) != 0 || ((active >> u) & 1) == 0) continue;
          for (std::size_t o = 0; o < n_; ++o) {
            if (((closure >> o) & 1) == 0 || ((reach[u] >> o) & 1) == 0) {
              continue;
            }
            if (!state.channels.contains({static_cast<std::uint32_t>(u),
                                          static_cast<std::uint32_t>(o)})) {
              closure |= std::uint64_t{1} << u;
              grew = true;
              break;
            }
          }
        }
      }
      std::vector<std::size_t> subset;
      for (std::size_t k = 0; k < enabled.size(); ++k) {
        if ((closure >> enabled[k].node) & 1) subset.push_back(k);
      }
      if (subset.size() >= enabled.size()) {
        ++result_.stats.por_reject_saturated;
        continue;
      }
      if (!best.empty() && subset.size() >= best.size()) continue;
      bool valid = true;
      for (const std::size_t k : subset) {
        State next = state;
        const SafetyIssue issue = apply(next, enabled[k], nullptr, nullptr);
        if (!issue.message.empty() || !invisible_step(state, next)) {
          ++result_.stats.por_reject_visible;
          valid = false;
          break;
        }
      }
      if (valid) best = std::move(subset);
    }
    return best;
  }

  // ---- Search ----

  void expand(const State& state, std::uint32_t idx,
              std::deque<std::pair<State, std::uint32_t>>& frontier,
              bool force_full = false) {
    const std::vector<Action> enabled = enumerate_enabled(state);
    if (enabled.empty()) {
      check_terminal(state, idx);
      return;
    }
    std::vector<std::size_t> chosen(enabled.size());
    std::iota(chosen.begin(), chosen.end(), std::size_t{0});
    if (!force_full && options_.por && enabled.size() > 1 &&
        (!crash_on_ || pure_protocol_phase(state))) {
      std::vector<std::size_t> reduced = try_reduce(state, enabled);
      if (!reduced.empty()) {
        ++result_.stats.por_reduced_states;
        result_.stats.por_pruned_actions += enabled.size() - reduced.size();
        chosen = std::move(reduced);
      }
    }
    records_[idx].full = chosen.size() == enabled.size();
    // LIFO frontier: push in reverse so the first enabled action is
    // expanded next, matching the old recursive DFS exploration order.
    if (!options_.minimize) std::reverse(chosen.begin(), chosen.end());

    const bool record_edges = options_.liveness || options_.por;
    const std::uint32_t depth = records_[idx].depth + 1;
    for (const std::size_t pick : chosen) {
      const Action& action = enabled[pick];
      State next = state;
      const SafetyIssue issue = apply(next, action, nullptr, nullptr);
      ++result_.transitions;
      if (!issue.message.empty()) {
        fail(issue.message, issue.descriptor, Verdict::kSafety,
             path_actions(idx, &action));
        return;
      }
      std::string fp = canonical_fingerprint(next);
      const auto it = visited_.find(fp);
      if (it != visited_.end()) {
        ++result_.stats.revisits;
        if (record_edges) edges_.push_back({idx, it->second, action});
        continue;
      }
      const auto new_idx = static_cast<std::uint32_t>(records_.size());
      visited_.emplace(std::move(fp), new_idx);
      records_.push_back(Record{idx, action, depth, waiting_mask(next)});
      result_.stats.max_depth =
          std::max<std::uint64_t>(result_.stats.max_depth, depth);
      ++result_.states_explored;
      if (record_edges) edges_.push_back({idx, new_idx, action});
      if (result_.states_explored > options_.max_states) {
        fail(state_limit_message(), "statelimit", Verdict::kStateLimit,
             path_actions(new_idx, nullptr));
        return;
      }
      frontier.emplace_back(std::move(next), new_idx);
    }
  }

  /// Condition S (ignoring-problem repair): a cycle of the reduced graph
  /// on which every state was reduced could defer an exterior action
  /// forever, hiding reachable violations (and, under liveness, masking
  /// or fabricating nothing — cycles must keep one full state for the
  /// lasso argument). Tarjan SCC over the recorded edges finds such
  /// cycles; the smallest-index reduced state of each offending SCC is
  /// re-expanded with POR off, and any newly reachable region is searched
  /// normally. Iterates until no fully-reduced cycle remains — each round
  /// permanently converts at least one state to full, so it terminates.
  void repair_ignoring() {
    while (result_.violation.empty()) {
      const std::vector<std::uint32_t> repairs = fully_reduced_cycles();
      if (repairs.empty()) return;
      for (const std::uint32_t idx : repairs) {
        if (!result_.violation.empty()) return;
        ++result_.stats.por_ignoring_repairs;
        State state = replay(path_actions(idx, nullptr), nullptr, nullptr);
        std::deque<std::pair<State, std::uint32_t>> frontier;
        expand(state, idx, frontier, /*force_full=*/true);
        drain(frontier);
      }
    }
  }

  /// Smallest-index member of every cyclic SCC (size > 1 or self-loop)
  /// whose states were all reduced; iterative Tarjan.
  std::vector<std::uint32_t> fully_reduced_cycles() const {
    const auto n = static_cast<std::uint32_t>(records_.size());
    std::vector<std::vector<std::uint32_t>> adj(n);
    std::vector<bool> self_loop(n, false);
    for (const Edge& edge : edges_) {
      if (edge.from == edge.to) {
        self_loop[edge.from] = true;
      } else {
        adj[edge.from].push_back(edge.to);
      }
    }
    constexpr std::uint32_t kUnset = 0xffffffffu;
    std::vector<std::uint32_t> index(n, kUnset);
    std::vector<std::uint32_t> low(n, 0);
    std::vector<bool> on_stack(n, false);
    std::vector<std::uint32_t> stack;
    std::vector<std::uint32_t> repairs;
    std::uint32_t next_index = 0;
    struct Frame {
      std::uint32_t v = 0;
      std::size_t child = 0;
    };
    std::vector<Frame> call;
    for (std::uint32_t root = 0; root < n; ++root) {
      if (index[root] != kUnset) continue;
      call.push_back({root, 0});
      while (!call.empty()) {
        Frame& frame = call.back();
        const std::uint32_t v = frame.v;
        if (frame.child == 0) {
          index[v] = low[v] = next_index++;
          stack.push_back(v);
          on_stack[v] = true;
        }
        if (frame.child < adj[v].size()) {
          const std::uint32_t w = adj[v][frame.child++];
          if (index[w] == kUnset) {
            call.push_back({w, 0});
          } else if (on_stack[w]) {
            low[v] = std::min(low[v], index[w]);
          }
          continue;
        }
        if (low[v] == index[v]) {
          // v roots an SCC; pop it and check for a fully-reduced cycle.
          std::vector<std::uint32_t> component;
          for (;;) {
            const std::uint32_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            component.push_back(w);
            if (w == v) break;
          }
          const bool cyclic = component.size() > 1 ||
                              self_loop[component.front()];
          if (cyclic) {
            std::uint32_t smallest = kUnset;
            bool any_full = false;
            for (const std::uint32_t w : component) {
              if (records_[w].full) any_full = true;
              smallest = std::min(smallest, w);
            }
            if (!any_full) repairs.push_back(smallest);
          }
        }
        call.pop_back();
        if (!call.empty()) {
          low[call.back().v] = std::min(low[call.back().v], low[v]);
        }
      }
    }
    std::sort(repairs.begin(), repairs.end());
    return repairs;
  }

  /// The action sequence from the initial state to visited state `idx`
  /// along exploration-forest parent links, plus an optional final action.
  std::vector<Action> path_actions(std::uint32_t idx,
                                   const Action* extra) const {
    std::vector<Action> actions;
    for (std::int64_t walk = idx; walk > 0;
         walk = records_[static_cast<std::size_t>(walk)].parent) {
      actions.push_back(records_[static_cast<std::size_t>(walk)].via);
    }
    std::reverse(actions.begin(), actions.end());
    if (extra != nullptr) actions.push_back(*extra);
    return actions;
  }

  /// Re-executes `actions` from the initial state with event tracing on,
  /// producing the human-readable trace and the structured counterexample
  /// events. Exact: actions name their channel, channels are FIFO and the
  /// automatons are deterministic.
  State replay(const std::vector<Action>& actions,
               std::vector<std::string>* trace,
               std::vector<trace::TraceEvent>* events) const {
    State state = make_initial(replay_config_);
    for (const Action& action : actions) {
      // The final action of a counterexample path violates a property;
      // replay only reconstructs, so the verdict is ignored here.
      (void)apply(state, action, trace, events);
    }
    return state;
  }

  void fail(std::string message, std::string descriptor, Verdict verdict,
            const std::vector<Action>& actions) {
    if (!result_.violation.empty()) return;
    result_.violation = std::move(message);
    result_.violation_fingerprint = std::move(descriptor);
    result_.verdict = verdict;
    replay(actions, &result_.trace, &result_.events);
  }

  // ---- Terminal checks ----

  /// Conformance lint (Tables 1(a)-(d), FIFO fairness) of the replayed
  /// event trace of the path discovering this terminal; only meaningful
  /// at terminal states, where every queued request has resolved.
  bool lint_terminal(std::uint32_t idx) {
    const std::vector<Action> actions = path_actions(idx, nullptr);
    std::vector<trace::TraceEvent> events;
    replay(actions, nullptr, &events);
    lint::LintOptions lint_options;
    lint_options.initial_token = NodeId{0};
    lint_options.local_queueing = search_config_.local_queueing;
    lint_options.child_grants = search_config_.child_grants;
    lint_options.path_compression = search_config_.path_compression;
    lint_options.freezing = search_config_.freezing;
    const lint::LintReport report = lint::check(events, lint_options);
    if (report.ok()) return true;
    const lint::Violation& first = report.violations.front();
    fail("conformance lint: " + to_string(first.kind) + " — " +
             first.message,
         "lint:" + to_string(first.kind), Verdict::kLint, actions);
    return false;
  }

  void check_terminal(const State& state, std::uint32_t idx) {
    ++result_.terminal_states;
    for (std::size_t i = 0; i < n_; ++i) {
      if (state.status[i] != Status::kDone) {
        // Crash forgives the victim's script by marking it kDone, so an
        // unfinished script here always belongs to a SURVIVOR — the
        // no-lost-waiter property under crashes.
        fail("terminal state with unfinished script at node" +
                 std::to_string(i) + " (deadlock or lost request): " +
                 state.nodes[i].describe(),
             "deadlock", Verdict::kDeadlock, path_actions(idx, nullptr));
        return;
      }
    }
    if (crash_on_) {
      // Recovery convergence: every survivor unhalted with an empty
      // backlog, all on one epoch, holding exactly one token among them.
      std::size_t tokens = 0;
      std::uint32_t epoch = UINT32_MAX;
      for (std::uint32_t i = 0; i < n_; ++i) {
        if (!alive(state, i)) continue;
        if (state.managers[i].halted()) {
          fail("terminal state with node" + std::to_string(i) +
                   " still halted (recovery campaign never completed)",
               "quiescence:halted", Verdict::kSafety,
               path_actions(idx, nullptr));
          return;
        }
        if (!state.backlog[i].empty()) {
          fail("terminal state with undelivered backlog at node" +
                   std::to_string(i),
               "quiescence:backlog", Verdict::kSafety,
               path_actions(idx, nullptr));
          return;
        }
        if (state.nodes[i].is_token()) ++tokens;
        if (epoch == UINT32_MAX) {
          epoch = state.nodes[i].recovery_epoch();
        } else if (epoch != state.nodes[i].recovery_epoch()) {
          fail("terminal state with survivors in different epochs",
               "quiescence:epoch-skew", Verdict::kSafety,
               path_actions(idx, nullptr));
          return;
        }
      }
      if (tokens != 1) {
        fail("terminal state with " + std::to_string(tokens) +
                 " live tokens",
             "quiescence:tokens:" + std::to_string(tokens),
             Verdict::kSafety, path_actions(idx, nullptr));
        return;
      }
    }
    if (options_.lint && !lint_terminal(idx)) return;
    // Quiescent structure: copysets mutual and accurate (live nodes only
    // under crashes, where they must also not reference the dead).
    for (std::size_t i = 0; i < n_; ++i) {
      if (crash_on_ && !alive(state, static_cast<std::uint32_t>(i))) {
        continue;
      }
      for (const core::CopysetEntry& entry : state.nodes[i].copyset()) {
        if (crash_on_ && !alive(state, entry.node.value())) {
          fail("terminal state with a copyset entry for crashed node" +
                   std::to_string(entry.node.value()) + " at node" +
                   std::to_string(i),
               "quiescence:dead-ref", Verdict::kSafety,
               path_actions(idx, nullptr));
          return;
        }
        const HierAutomaton& child = state.nodes[entry.node.value()];
        if (child.parent().value() != i) {
          fail("terminal state with non-mutual copyset at node" +
                   std::to_string(i),
               "quiescence:non-mutual", Verdict::kSafety,
               path_actions(idx, nullptr));
          return;
        }
        if (child.owned() != entry.mode) {
          fail("terminal state with stale copyset mode at node" +
                   std::to_string(i),
               "quiescence:stale-mode", Verdict::kSafety,
               path_actions(idx, nullptr));
          return;
        }
      }
    }
  }

  // ---- Liveness ----

  /// Searches the explored graph for a reachable cycle on which some
  /// node's request stays unresolved in every state — a scheduler can
  /// loop there forever, starving that node. Reported as a lasso: the
  /// parent-link stem to the cycle entry plus the cycle's actions.
  /// Victims are tried in ascending id, so the reported victim (and the
  /// violation fingerprint) is exploration-order-independent.
  void liveness_check() {
    std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> adj(
        records_.size());
    for (std::size_t e = 0; e < edges_.size(); ++e) {
      adj[edges_[e].from].emplace_back(edges_[e].to,
                                       static_cast<std::uint32_t>(e));
    }
    struct Frame {
      std::uint32_t state = 0;
      std::size_t next = 0;
    };
    for (std::size_t victim = 0; victim < n_; ++victim) {
      const std::uint32_t bit = 1u << victim;
      std::vector<std::uint8_t> color(records_.size(), 0);
      for (std::uint32_t start = 0; start < records_.size(); ++start) {
        if ((records_[start].waiting & bit) == 0 || color[start] != 0) {
          continue;
        }
        std::vector<Frame> stack{{start, 0}};
        std::vector<std::uint32_t> entry_edge{0};  // edge into stack[k]
        color[start] = 1;
        while (!stack.empty()) {
          Frame& top = stack.back();
          if (top.next >= adj[top.state].size()) {
            color[top.state] = 2;
            stack.pop_back();
            entry_edge.pop_back();
            continue;
          }
          const auto [succ, edge] = adj[top.state][top.next++];
          if ((records_[succ].waiting & bit) == 0) continue;
          if (color[succ] == 1) {
            // Cycle: the stack segment from succ, closed by `edge`.
            std::size_t pos = 0;
            while (stack[pos].state != succ) ++pos;
            std::vector<Action> cycle;
            for (std::size_t k = pos + 1; k < stack.size(); ++k) {
              cycle.push_back(edges_[entry_edge[k]].via);
            }
            cycle.push_back(edges_[edge].via);
            std::vector<Action> actions = path_actions(succ, nullptr);
            const std::size_t stem = actions.size();
            actions.insert(actions.end(), cycle.begin(), cycle.end());
            result_.lasso_cycle_length = cycle.size();
            fail("starvation: node" + std::to_string(victim) +
                     "'s request never progresses — lasso with a " +
                     std::to_string(cycle.size()) +
                     "-action cycle after " + std::to_string(stem) +
                     " stem action(s)",
                 "starvation:node" + std::to_string(victim),
                 Verdict::kStarvation, actions);
            return;
          }
          if (color[succ] == 0) {
            color[succ] = 1;
            stack.push_back({succ, 0});
            entry_edge.push_back(edge);
          }
        }
      }
    }
  }

  const std::vector<Script>& scripts_;
  const ExploreOptions& options_;
  const std::size_t n_;
  /// options_.config with trace_events forced off (search) / on (replay).
  core::HierConfig search_config_;
  core::HierConfig replay_config_;
  // Crash exploration (ExploreOptions::crash). The hosts are the stable
  // per-node adapters every Manager copy points at; active_ is the state
  // currently inside apply(), which the adapters dereference.
  const bool crash_on_;
  recovery::Options rec_options_;
  std::uint32_t victims_mask_ = 0;
  std::vector<std::unique_ptr<CrashHost>> hosts_;
  mutable State* active_ = nullptr;
  SymmetryGroup group_;
  ExploreResult result_;
  std::unordered_map<std::string, std::uint32_t> visited_;
  std::vector<Record> records_;
  std::vector<Edge> edges_;
};

// ---------------------------------------------------------------------------
// Mode-less protocols (Naimi, Raymond): a smaller exhaustive explorer over
// acquire/release scripts, parameterized by the automaton type and its
// structural terminal check.
// ---------------------------------------------------------------------------

/// Verdict classification for the mode-less explorers, which build their
/// violation strings directly.
Verdict classify_violation(const std::string& violation) {
  if (violation.find("state limit") != std::string::npos) {
    return Verdict::kStateLimit;
  }
  if (violation.find("unfinished script") != std::string::npos) {
    return Verdict::kDeadlock;
  }
  return Verdict::kSafety;
}

template <typename Automaton>
class ModelessExplorer {
 public:
  using TerminalCheck = std::string (*)(const std::vector<Automaton>&);

  ModelessExplorer(const std::vector<Script>& scripts,
                   std::vector<Automaton> initial_nodes,
                   TerminalCheck terminal_check, std::uint64_t max_states)
      : scripts_(scripts), initial_nodes_(std::move(initial_nodes)),
        terminal_check_(terminal_check), max_states_(max_states) {}

  ExploreResult run() {
    // Aggregate construction: the automatons have const members, so the
    // vector must be moved in (element copy-assignment is deleted).
    State initial{std::move(initial_nodes_),
                  {},
                  std::vector<std::size_t>(scripts_.size(), 0)};
    dfs(initial);
    if (result_.violation.empty()) {
      result_.ok = true;
    } else {
      result_.verdict = classify_violation(result_.violation);
    }
    result_.stats.states = result_.states_explored;
    result_.stats.transitions = result_.transitions;
    result_.stats.terminal_states = result_.terminal_states;
    return result_;
  }

 private:
  struct State {
    std::vector<Automaton> nodes;
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::deque<Message>>
        channels;
    std::vector<std::size_t> pc;

    std::string fingerprint() const {
      std::ostringstream os;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        os << 'N' << i << '[' << nodes[i].fingerprint() << ']' << pc[i];
      }
      for (const auto& [key, queue] : channels) {
        os << 'C' << key.first << '>' << key.second << '{';
        for (const Message& message : queue) os << to_string(message) << ';';
        os << '}';
      }
      return os.str();
    }
  };

  bool fail(const std::string& message) {
    if (result_.violation.empty()) {
      result_.violation = message;
      result_.trace = trace_;
    }
    return false;
  }

  bool absorb(State& state, Effects&& fx) {
    for (Message& message : fx.messages) {
      state.channels[{message.from.value(), message.to.value()}].push_back(
          std::move(message));
    }
    // Safety: at most one node inside its critical section; exactly one
    // token at rest or in flight.
    std::size_t in_cs = 0;
    std::size_t tokens = 0;
    for (const Automaton& node : state.nodes) {
      in_cs += node.in_cs() ? 1u : 0u;
      tokens += node.has_token() ? 1u : 0u;
    }
    for (const auto& [key, queue] : state.channels) {
      for (const Message& message : queue) {
        if (std::holds_alternative<proto::NaimiToken>(message.payload)) {
          ++tokens;
        }
      }
    }
    if (in_cs > 1) return fail("mutual exclusion violated");
    if (tokens != 1) {
      return fail("token conservation violated: " + std::to_string(tokens));
    }
    return true;
  }

  void check_terminal(const State& state) {
    ++result_.terminal_states;
    for (std::size_t i = 0; i < state.nodes.size(); ++i) {
      if (state.pc[i] < scripts_[i].size() || state.nodes[i].requesting() ||
          state.nodes[i].in_cs()) {
        fail("terminal state with unfinished script at node" +
             std::to_string(i) + ": " + state.nodes[i].describe());
        return;
      }
    }
    const std::string structural = terminal_check_(state.nodes);
    if (!structural.empty()) fail(structural);
  }

  void dfs(const State& state) {
    if (!result_.violation.empty()) return;
    if (!visited_.insert(state.fingerprint()).second) return;
    ++result_.states_explored;
    if (result_.states_explored > max_states_) {
      fail("state limit exceeded");
      return;
    }

    bool any_action = false;
    for (const auto& [key, queue] : state.channels) {
      any_action = true;
      State next = state;
      auto it = next.channels.find(key);
      const Message message = it->second.front();
      it->second.pop_front();
      if (it->second.empty()) next.channels.erase(it);
      ++result_.transitions;
      trace_.push_back("deliver " + to_string(message));
      if (absorb(next, next.nodes[message.to.value()].on_message(message))) {
        dfs(next);
      }
      trace_.pop_back();
      if (!result_.violation.empty()) return;
    }

    for (std::size_t i = 0; i < state.nodes.size(); ++i) {
      if (state.pc[i] >= scripts_[i].size()) continue;
      const ScriptOp op = scripts_[i][state.pc[i]];
      // An acquire may only be issued when idle; a release when inside.
      if (op.kind == ScriptOp::Kind::kAcquire &&
          (state.nodes[i].in_cs() || state.nodes[i].requesting())) {
        continue;
      }
      if (op.kind == ScriptOp::Kind::kRelease && !state.nodes[i].in_cs()) {
        continue;
      }
      any_action = true;
      State next = state;
      ++next.pc[i];
      ++result_.transitions;
      trace_.push_back("node" + std::to_string(i) +
                       (op.kind == ScriptOp::Kind::kAcquire ? " acquire"
                                                            : " release"));
      Effects fx = op.kind == ScriptOp::Kind::kAcquire
                       ? next.nodes[i].request()
                       : next.nodes[i].release();
      if (absorb(next, std::move(fx))) dfs(next);
      trace_.pop_back();
      if (!result_.violation.empty()) return;
    }

    if (!any_action) check_terminal(state);
  }

  const std::vector<Script>& scripts_;
  std::vector<Automaton> initial_nodes_;
  TerminalCheck terminal_check_;
  std::uint64_t max_states_;
  ExploreResult result_;
  std::unordered_set<std::string> visited_;
  std::vector<std::string> trace_;
};

void validate_modeless_scripts(const std::vector<Script>& scripts) {
  HLOCK_REQUIRE(!scripts.empty(), "explore needs at least one node script");
  for (const Script& script : scripts) {
    bool holding = false;
    for (const ScriptOp& op : script) {
      switch (op.kind) {
        case ScriptOp::Kind::kAcquire:
          HLOCK_REQUIRE(!holding, "script acquires while holding");
          holding = true;
          break;
        case ScriptOp::Kind::kRelease:
          HLOCK_REQUIRE(holding, "script releases without holding");
          holding = false;
          break;
        case ScriptOp::Kind::kUpgrade:
          throw UsageError("mode-less protocols have no upgrade");
      }
    }
  }
}

std::string naimi_terminal_check(
    const std::vector<naimi::NaimiAutomaton>& nodes) {
  std::size_t roots = 0;
  std::size_t tokens = 0;
  for (const auto& node : nodes) {
    roots += node.probable_owner().is_none() ? 1u : 0u;
    tokens += node.has_token() ? 1u : 0u;
  }
  if (roots != 1) return "terminal state with " + std::to_string(roots) +
                         " roots";
  if (tokens != 1) return "terminal state with " + std::to_string(tokens) +
                          " tokens";
  return "";
}

std::string raymond_terminal_check(
    const std::vector<raymond::RaymondAutomaton>& nodes) {
  std::size_t holders = 0;
  for (const auto& node : nodes) holders += node.has_token() ? 1u : 0u;
  if (holders != 1) {
    return "terminal state with " + std::to_string(holders) +
           " privilege holders";
  }
  // Every holder chain must reach the token holder within n hops.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    std::size_t walker = i;
    std::size_t hops = 0;
    while (!nodes[walker].has_token()) {
      walker = nodes[walker].holder().value();
      if (++hops > nodes.size()) {
        return "terminal holder cycle from node" + std::to_string(i);
      }
    }
  }
  return "";
}

}  // namespace

std::string to_string(Verdict verdict) {
  switch (verdict) {
    case Verdict::kOk:
      return "ok";
    case Verdict::kSafety:
      return "safety";
    case Verdict::kDeadlock:
      return "deadlock";
    case Verdict::kLint:
      return "lint";
    case Verdict::kStarvation:
      return "starvation";
    case Verdict::kStateLimit:
      return "state-limit";
  }
  return "unknown";
}

ExploreResult explore_naimi(const std::vector<Script>& scripts,
                            std::uint64_t max_states) {
  validate_modeless_scripts(scripts);
  std::vector<naimi::NaimiAutomaton> nodes;
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    nodes.emplace_back(NodeId{static_cast<std::uint32_t>(i)}, kLock, i == 0,
                       i == 0 ? NodeId::none() : NodeId{0});
  }
  ModelessExplorer<naimi::NaimiAutomaton> explorer{
      scripts, std::move(nodes), naimi_terminal_check, max_states};
  return explorer.run();
}

ExploreResult explore_raymond(const std::vector<Script>& scripts,
                              std::uint64_t max_states) {
  validate_modeless_scripts(scripts);
  const auto tree = raymond::balanced_tree(scripts.size());
  std::vector<raymond::RaymondAutomaton> nodes;
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    nodes.emplace_back(NodeId{static_cast<std::uint32_t>(i)}, kLock,
                       i == 0 ? NodeId{0} : tree[i].holder,
                       tree[i].neighbors);
  }
  ModelessExplorer<raymond::RaymondAutomaton> explorer{
      scripts, std::move(nodes), raymond_terminal_check, max_states};
  return explorer.run();
}

ExploreResult explore(const std::vector<Script>& scripts,
                      const ExploreOptions& options) {
  HLOCK_REQUIRE(!scripts.empty(), "explore needs at least one node script");
  HLOCK_REQUIRE(scripts.size() <= 32,
                "explore supports at most 32 nodes (reduction bitmasks)");
  // Scripts must be locally well-formed (acquire/release alternation) or
  // the automaton preconditions fire mid-exploration.
  for (const Script& script : scripts) {
    bool holding = false;
    for (const ScriptOp& op : script) {
      switch (op.kind) {
        case ScriptOp::Kind::kAcquire:
          HLOCK_REQUIRE(!holding, "script acquires while holding");
          HLOCK_REQUIRE(op.mode != proto::LockMode::kNL,
                        "script acquires NL");
          holding = true;
          break;
        case ScriptOp::Kind::kRelease:
          HLOCK_REQUIRE(holding, "script releases without holding");
          holding = false;
          break;
        case ScriptOp::Kind::kUpgrade:
          HLOCK_REQUIRE(holding, "script upgrades without holding");
          break;
      }
    }
  }
  Explorer explorer{scripts, options};
  return explorer.run();
}

}  // namespace hlock::modelcheck
