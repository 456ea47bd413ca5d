#include "recovery/manager.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "util/check.hpp"

namespace hlock::recovery {

using proto::ElectToken;
using proto::EpochFence;
using proto::FenceHolder;
using proto::Heartbeat;
using proto::Message;
using proto::Payload;
using proto::QueuedRequest;
using proto::Suspect;

void Outcome::merge(Outcome&& other) {
  for (auto& m : other.messages) messages.push_back(std::move(m));
  for (auto& fe : other.fence_effects) fence_effects.push_back(std::move(fe));
  for (auto& e : other.events) events.push_back(std::move(e));
  unhalted = unhalted || other.unhalted;
}

void Backlog::hold(Route route, const Message& message) {
  (route == Route::kHalt ? halted : parked).push_back(message);
}

std::vector<Message> Backlog::take() {
  std::vector<Message> replay = std::move(parked);
  replay.insert(replay.end(), std::make_move_iterator(halted.begin()),
                std::make_move_iterator(halted.end()));
  clear();
  return replay;
}

void Backlog::clear() {
  halted.clear();
  parked.clear();
}

Manager::Manager(NodeId self, std::size_t node_count, Options options,
                 Host* host)
    : self_(self), node_count_(node_count), options_(options), host_(host) {
  HLOCK_REQUIRE(host != nullptr, "recovery manager needs a host");
  HLOCK_REQUIRE(self.value() < node_count,
                "recovery manager self id out of range");
  last_heard_.resize(node_count);
}

bool Manager::is_dead(NodeId node) const {
  return std::binary_search(dead_.begin(), dead_.end(), node);
}

NodeId Manager::coordinator() const {
  for (std::uint32_t i = 0; i < node_count_; ++i) {
    if (!is_dead(NodeId{i})) return NodeId{i};
  }
  HLOCK_INVARIANT(false, "every node is believed dead, including self");
  return NodeId::none();
}

std::vector<NodeId> Manager::live_peers() const {
  std::vector<NodeId> peers;
  for (std::uint32_t i = 0; i < node_count_; ++i) {
    const NodeId node{i};
    if (node != self_ && !is_dead(node)) peers.push_back(node);
  }
  return peers;
}

Message Manager::make_message(NodeId to, proto::LockId lock,
                              Payload payload) const {
  // Recovery messages leave the envelope epoch 0: they are exempt from the
  // automatons' epoch gate and carry their own campaign ids.
  return Message{self_, to, lock, std::move(payload)};
}

void Manager::note_alive(NodeId from, SimTime now) {
  if (!options_.enabled || from == self_ || from.value() >= node_count_) {
    return;
  }
  if (is_dead(from)) return;  // suspicions are never retracted
  last_heard_[from.value()] = now;
}

Outcome Manager::on_tick(SimTime now) {
  Outcome out;
  if (!options_.enabled) return out;
  if (next_heartbeat_ <= now) {
    next_heartbeat_ = now + options_.heartbeat_interval;
    for (NodeId peer : live_peers()) {
      out.messages.push_back(
          make_message(peer, proto::LockId{0}, Heartbeat{}));
    }
  }
  // Timeout scan. The first tick seeds the baseline instead of suspecting,
  // so a cluster started long after t=0 does not declare everyone dead.
  for (std::uint32_t i = 0; i < node_count_; ++i) {
    const NodeId peer{i};
    if (peer == self_ || is_dead(peer)) continue;
    if (last_heard_[i] == SimTime{}) {
      last_heard_[i] = now;
    } else if (now - last_heard_[i] >= options_.suspect_after) {
      adopt_dead(peer, now, out);
    }
  }
  return out;
}

Outcome Manager::suspect(NodeId dead, SimTime now) {
  Outcome out;
  if (!options_.enabled) return out;
  adopt_dead(dead, now, out);
  return out;
}

Route Manager::route(const Message& message) const {
  if (proto::is_recovery_kind(proto::kind_of(message.payload))) {
    return Route::kManager;
  }
  if (halted_) return Route::kHalt;
  // A sender fenced into a newer epoch than this node's fence has reached
  // yet: delivering now would make the automaton drop a valid post-fence
  // message.
  if (message.epoch > host_->recovery_epoch(message.lock)) {
    return Route::kPark;
  }
  return Route::kEngine;
}

Outcome Manager::on_message(const Message& message, SimTime now) {
  Outcome out;
  if (!options_.enabled) return out;
  if (is_dead(message.from)) return out;  // zombie traffic; never retract
  note_alive(message.from, now);

  if (std::get_if<Heartbeat>(&message.payload) != nullptr) {
    return out;  // note_alive above is the whole effect
  }
  if (const auto* suspicion = std::get_if<Suspect>(&message.payload)) {
    adopt_dead(suspicion->dead, now, out);
    return out;
  }
  if (const auto* report = std::get_if<ElectToken>(&message.payload)) {
    // Converge onto the sender's dead set first; a report for a larger
    // campaign implies every node it lists is dead.
    for (NodeId d : report->dead) adopt_dead(d, now, out);
    if (report->dead != dead_) return out;  // stale smaller campaign
    if (coordinator() != self_) return out;  // misdirected; sender lags
    if (!halted_) return out;  // duplicate after this campaign minted
    ingest_report(message.from, message.lock, *report);
    maybe_mint(now, out);
    return out;
  }
  if (const auto* fence = std::get_if<EpochFence>(&message.payload)) {
    for (NodeId d : fence->dead) adopt_dead(d, now, out);
    if (fence->dead != dead_) return out;  // stale smaller campaign
    apply_fence(message.lock, *fence, now, out);
    return out;
  }
  HLOCK_INVARIANT(false, "protocol payload routed to the recovery manager");
  return out;
}

void Manager::adopt_dead(NodeId node, SimTime now, Outcome& out) {
  if (node == self_ || node.value() >= node_count_ || is_dead(node)) return;
  dead_.insert(std::upper_bound(dead_.begin(), dead_.end(), node), node);
  ++counters_.suspicions;

  trace::TraceEvent event;
  event.at = now;
  event.kind = trace::EventKind::kNodeDead;
  event.node = self_;
  event.peer = node;
  event.epoch = max_epoch_seen_;
  out.events.push_back(std::move(event));

  // Gossip once per adoption so a single node's timeout converges the
  // cluster; peers that already suspect `node` ignore the duplicate.
  for (NodeId peer : live_peers()) {
    out.messages.push_back(make_message(peer, proto::LockId{0},
                                        Suspect{node}));
  }

  if (!halted_) {
    halted_ = true;
    halt_started_ = now;
  }
  // The dead set is the campaign identity: growing it starts a fresh
  // campaign, so all gathering state restarts from scratch. halt_started_
  // is kept — the recovery latency metric measures the whole outage.
  reports_.clear();
  fences_received_.clear();
  fences_expected_ = UINT32_MAX;
  send_reports(now, out);
}

void Manager::send_reports(SimTime now, Outcome& out) {
  const NodeId coord = coordinator();
  const std::vector<proto::LockId> locks = host_->recovery_locks();
  std::vector<std::pair<proto::LockId, ElectToken>> reports;
  if (locks.empty()) {
    // Lockless report: announces "I have no per-lock state" so the
    // coordinator's completeness check still covers this node.
    ElectToken report;
    report.dead = dead_;
    reports.emplace_back(proto::LockId{0}, std::move(report));
  } else {
    for (std::size_t i = 0; i < locks.size(); ++i) {
      ElectToken report = host_->report(locks[i]);
      report.dead = dead_;
      report.lock_count = static_cast<std::uint32_t>(locks.size());
      report.lock_index = static_cast<std::uint32_t>(i);
      reports.emplace_back(locks[i], std::move(report));
    }
  }
  if (coord == self_) {
    // The coordinator ingests its own reports synchronously (runtimes need
    // not support self-delivery).
    for (auto& [lock, report] : reports) {
      ingest_report(self_, lock, report);
    }
    maybe_mint(now, out);
  } else {
    for (auto& [lock, report] : reports) {
      out.messages.push_back(make_message(coord, lock, std::move(report)));
    }
  }
}

void Manager::ingest_report(NodeId from, proto::LockId lock,
                            const ElectToken& report) {
  PeerReports& peer = reports_[from.value()];
  peer.expected = report.lock_count;
  if (report.lock_count > 0) peer.locks[lock.value()] = report;
  max_epoch_seen_ = std::max(max_epoch_seen_, report.epoch);
}

void Manager::maybe_mint(SimTime now, Outcome& out) {
  if (!halted_ || coordinator() != self_) return;
  for (std::uint32_t i = 0; i < node_count_; ++i) {
    const NodeId node{i};
    if (is_dead(node)) continue;
    auto it = reports_.find(i);
    if (it == reports_.end() || !it->second.complete()) return;
  }

  // Campaign epoch: strictly greater than every epoch any report has seen,
  // and ≡ self (mod n) — two coordinators of concurrent diverged campaigns
  // can therefore never mint the same epoch.
  const auto n = static_cast<std::uint32_t>(node_count_);
  const std::uint32_t epoch =
      (max_epoch_seen_ / n + 1) * n + self_.value();
  max_epoch_seen_ = epoch;
  ++counters_.campaigns_led;

  // Union of reported locks, ascending (std::map keys).
  std::map<std::uint32_t, std::vector<std::pair<NodeId, ElectToken>>> by_lock;
  for (const auto& [node_value, peer] : reports_) {
    for (const auto& [lock_value, report] : peer.locks) {
      by_lock[lock_value].emplace_back(NodeId{node_value}, report);
    }
  }

  const std::vector<NodeId> peers = live_peers();
  std::vector<std::pair<proto::LockId, EpochFence>> fences;
  const auto count = static_cast<std::uint32_t>(by_lock.size());
  for (const auto& [lock_value, entries] : by_lock) {
    EpochFence fence;
    fence.dead = dead_;
    fence.epoch = epoch;
    fence.fence_index = static_cast<std::uint32_t>(fences.size());
    fence.fence_count = count;

    // New root: the surviving token reporter; with the token lost (holder
    // crashed, or in flight toward a crashed node), the token is minted
    // fresh at the lowest live node. Reports are gathered per node, so at
    // most one can claim the token per lock — but a doctored or byzantine
    // history could produce two; lowest id wins deterministically and the
    // loser is demoted by its fence.
    fence.new_root = NodeId::none();
    for (const auto& [node, report] : entries) {
      if (report.has_token &&
          (fence.new_root.is_none() || node < fence.new_root)) {
        fence.new_root = node;
      }
    }
    if (fence.new_root.is_none()) fence.new_root = coordinator();

    // Root copyset: every surviving holder, by self-reported held mode.
    for (const auto& [node, report] : entries) {
      if (report.held != proto::LockMode::kNL && node != fence.new_root) {
        fence.holders.push_back(FenceHolder{node, report.held});
      }
    }
    // Root queue: every surviving waiter — including the new root's own
    // (the hierarchical root serves itself through its queue; the Naimi
    // install filters root entries out). Priority first, then FIFO by seq,
    // node id as the cross-node tiebreaker. Upgraders report
    // waiting=false: their pending W is preserved as an in-flight Rule 7
    // upgrade at the root, not re-queued.
    for (const auto& [node, report] : entries) {
      if (report.waiting) {
        fence.queue.push_back(QueuedRequest{node, report.wait_mode,
                                            report.wait_seq,
                                            report.wait_priority});
      }
    }
    std::sort(fence.queue.begin(), fence.queue.end(),
              [](const QueuedRequest& a, const QueuedRequest& b) {
                if (a.priority != b.priority) return a.priority > b.priority;
                if (a.seq != b.seq) return a.seq < b.seq;
                return a.requester < b.requester;
              });
    fences.emplace_back(proto::LockId{lock_value}, std::move(fence));
  }
  if (fences.empty()) {
    // No per-lock state anywhere: one placeholder fence carries the unhalt
    // signal and the epoch bump.
    EpochFence fence;
    fence.dead = dead_;
    fence.epoch = epoch;
    fence.new_root = coordinator();
    fence.fence_index = 0;
    fence.fence_count = 0;
    fences.emplace_back(proto::LockId{0}, std::move(fence));
  }

  // Fault injection (model checker expect-violation run): appoint a second
  // root for the first lock at the same epoch on every other peer — the
  // double-regeneration bug per-epoch token conservation must catch.
  NodeId doctored_root = NodeId::none();
  if (options_.doctor_double_fence && !fences.empty()) {
    for (NodeId peer : peers) {
      if (peer != fences.front().second.new_root) {
        doctored_root = peer;
        break;
      }
    }
  }

  for (std::size_t p = 0; p < peers.size(); ++p) {
    for (const auto& [lock, fence] : fences) {
      EpochFence copy = fence;
      // Odd-index peers get the conflicting root; with a single peer the
      // bug would otherwise never fire (a 3-node cluster minus one victim),
      // so that lone peer is always a target.
      if (!doctored_root.is_none() && (p % 2 == 1 || peers.size() == 1) &&
          fence.fence_index == 0) {
        copy.new_root = doctored_root;
      }
      out.messages.push_back(make_message(peers[p], lock, std::move(copy)));
    }
  }
  for (const auto& [lock, fence] : fences) {
    apply_fence(lock, fence, now, out);
  }
}

void Manager::apply_fence(proto::LockId lock, const EpochFence& fence,
                          SimTime now, Outcome& out) {
  fences_expected_ = fence.fence_count;
  const bool fresh = fences_received_.insert(fence.fence_index).second;
  if (fence.fence_count > 0 && fresh) {
    core::Effects fx = host_->install_fence(lock, fence);
    ++counters_.fences_installed;
    out.fence_effects.emplace_back(lock, std::move(fx));
  }
  max_epoch_seen_ = std::max(max_epoch_seen_, fence.epoch);
  // Locks first touched after this recovery must root at a live node and
  // start in the new epoch (the pre-crash default root may be dead).
  host_->set_default_origin(coordinator(), fence.epoch);

  if (halted_ &&
      (fences_expected_ == 0 ||
       fences_received_.size() >= fences_expected_)) {
    unhalt(now, out);
  }
}

void Manager::unhalt(SimTime now, Outcome& out) {
  halted_ = false;
  ++counters_.recoveries;
  recovery_ms_.push_back((now - halt_started_).to_ms());
  out.unhalted = true;
}

std::string Manager::fingerprint() const {
  std::ostringstream os;
  os << (halted_ ? 'H' : 'h') << max_epoch_seen_ << 'd';
  for (NodeId d : dead_) os << d.value() << ',';
  os << 'r';
  for (const auto& [node, peer] : reports_) {
    os << node << '=' << peer.expected << ':';
    for (const auto& [lock, report] : peer.locks) {
      os << lock << '(' << report.epoch << (report.has_token ? 'T' : 't')
         << static_cast<int>(report.held) << (report.waiting ? 'W' : 'w')
         << static_cast<int>(report.wait_mode) << report.wait_seq << '/'
         << static_cast<int>(report.wait_priority)
         << (report.upgrading ? 'U' : 'u') << ')';
    }
    os << ';';
  }
  os << 'f' << fences_expected_ << ':';
  for (std::uint32_t i : fences_received_) os << i << ',';
  return os.str();
}

}  // namespace hlock::recovery
