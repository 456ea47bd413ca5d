#include "core/hier_automaton.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "util/check.hpp"
#include "util/log.hpp"

namespace hlock::core {

using proto::HierFreeze;
using proto::HierGrant;
using proto::HierRelease;
using proto::HierRequest;
using proto::HierToken;
using proto::Message;
using proto::Payload;
using proto::QueuedRequest;

namespace {

/// The subset of `modes` a node whose owned mode is `owned` could grant as
/// a non-token copyset member; FREEZE messages are filtered down to this so
/// the protocol matches the paper's "transitively extended to the copyset
/// where required by modes" (Fig. 5 sends FREEZE(IR), not FREEZE(IR,R,U)).
ModeSet grantable_subset(LockMode owned, ModeSet modes) {
  ModeSet out;
  for (LockMode m : proto::kRealModes) {
    if (modes.contains(m) && non_token_can_grant(owned, m)) out.insert(m);
  }
  return out;
}

/// True if `extra` contains a mode not in `base`.
bool adds_modes(ModeSet extra, ModeSet base) {
  return (extra | base) != base;
}

}  // namespace

HierAutomaton::HierAutomaton(NodeId self, LockId lock, bool initially_token,
                             NodeId initial_parent, HierConfig config,
                             std::uint32_t initial_epoch)
    : self_(self), lock_(lock), config_(config), token_(initially_token),
      parent_(initial_parent), recovery_epoch_(initial_epoch) {
  if (token_) {
    HLOCK_REQUIRE(initial_parent.is_none(),
                  "the initial token node must have no parent");
  } else {
    HLOCK_REQUIRE(!initial_parent.is_none() && initial_parent != self,
                  "non-token nodes need an initial parent other than self");
  }
}

LockMode HierAutomaton::owned() const {
  // Definition 3: strongest mode held by any node in the subtree rooted
  // here. Children report their subtree aggregates, so one level suffices.
  LockMode strongest = held_;
  for (const CopysetEntry& entry : copyset_) {
    strongest = stronger_of(strongest, entry.mode);
  }
  return strongest;
}

// ---------------------------------------------------------------------------
// Application API
// ---------------------------------------------------------------------------

Effects HierAutomaton::request(LockMode mode, std::uint8_t priority) {
  HLOCK_REQUIRE(mode != LockMode::kNL, "cannot request the empty mode");
  HLOCK_REQUIRE(held_ == LockMode::kNL,
                "node already holds the lock; release or upgrade instead");
  HLOCK_REQUIRE(pending_ == LockMode::kNL,
                "a request is already outstanding on this node");
  return step_request(mode, priority);
}

void HierAutomaton::enqueue(const QueuedRequest& entry) {
  auto position = queue_.begin();
  while (position != queue_.end() && position->priority >= entry.priority) {
    ++position;
  }
  queue_.insert(position, entry);
}

Effects HierAutomaton::step_request(LockMode mode, std::uint8_t priority) {
  Effects fx;
  const std::uint64_t seq = next_seq_++;
  pending_priority_ = priority;
  const LockMode owned_mode = owned();
  if (config_.trace_events) {
    auto event = make_event(trace::EventKind::kRequest);
    event.mode = mode;
    event.ctx = owned_mode;
    event.seq = seq;
    event.priority = priority;
    emit(fx, std::move(event));
  }

  if (token_) {
    // Rule 3.2 applied to the token's own request: compatibility with the
    // owned mode is sufficient — no transfer is needed because the token is
    // already here. Rule 6 blocks modes frozen by queued requests.
    if (!frozen_.contains(mode) && token_can_grant(owned_mode, mode)) {
      held_ = mode;
      fx.entered_cs = true;
      emit_self_grant(fx, mode, owned_mode, seq);
    } else {
      // Rule 4.2: the token node queues ungrantable requests locally.
      pending_ = mode;
      enqueue(QueuedRequest{self_, mode, seq, priority});
      if (config_.trace_events) {
        auto event = make_event(trace::EventKind::kQueue);
        event.peer = self_;
        event.mode = mode;
        event.ctx = owned_mode;
        event.seq = seq;
        event.priority = priority;
        emit(fx, std::move(event));
      }
      refresh_frozen(fx);
    }
    return fx;
  }

  // Rule 2: no message is needed when this node already owns a mode at
  // least as strong and compatible — enter the critical section locally.
  // (Covered by the same predicate as Rule 3.1 grants; Rule 6 applies.)
  if (config_.child_grants && !frozen_.contains(mode) &&
      non_token_can_grant(owned_mode, mode)) {
    held_ = mode;
    fx.entered_cs = true;
    emit_self_grant(fx, mode, owned_mode, seq);
    return fx;
  }

  pending_ = mode;
  send(route(), HierRequest{self_, mode, seq, priority}, fx,
       proto::RequestId{self_, seq});
  // We are now the most recent requester we know of; while pending we
  // absorb (queue) incoming requests, exactly like the root of Naimi's
  // probable-owner tree.
  hint_ = NodeId::none();
  return fx;
}

Effects HierAutomaton::release() {
  HLOCK_REQUIRE(held_ != LockMode::kNL, "release without holding the lock");
  HLOCK_REQUIRE(!upgrading_, "cannot release while an upgrade is in flight");
  Effects fx;
  if (config_.trace_events) {
    auto event = make_event(trace::EventKind::kExitCs);
    event.mode = held_;
    emit(fx, std::move(event));
  }
  held_ = LockMode::kNL;

  if (token_) {
    // Rule 5.1: the token services its local queue on every release.
    service_token_queue(fx);
    return fx;
  }

  // Non-token queues drain whenever the pending request resolves, so they
  // are empty for the whole critical section (Rule 4 operational spec).
  HLOCK_INVARIANT(queue_.empty(),
                  "non-token node had queued requests while inside its CS");
  propagate_weakening(fx);
  return fx;
}

Effects HierAutomaton::upgrade() {
  HLOCK_REQUIRE(held_ == LockMode::kU, "upgrade is only legal from mode U");
  HLOCK_REQUIRE(pending_ == LockMode::kNL,
                "a request is already outstanding on this node");
  // U conflicts with U/IW/W and the token transfers on any stronger grant,
  // so a U holder is always the token node (§3.4).
  HLOCK_INVARIANT(token_, "a U holder must be the token node");

  Effects fx;
  upgrading_ = true;
  pending_ = LockMode::kW;
  pending_priority_ = 0;
  if (config_.trace_events) {
    auto event = make_event(trace::EventKind::kUpgradeBegin);
    event.mode = LockMode::kW;
    event.ctx = LockMode::kU;
    emit(fx, std::move(event));
  }
  if (copyset_.empty()) {
    // Nobody else holds the lock: Rule 7 completes immediately.
    maybe_complete_upgrade(fx);
  } else {
    // Children may hold IR/R; freeze those modes (Table 1(d) row U, col W)
    // so the upgrade cannot starve, then wait for releases.
    refresh_frozen(fx);
  }
  return fx;
}

Effects HierAutomaton::on_message(const Message& message) {
  HLOCK_REQUIRE(message.to == self_, "message delivered to the wrong node");
  HLOCK_REQUIRE(message.lock == lock_,
                "message delivered to the wrong lock instance");
  Effects fx;
  if (message.epoch != recovery_epoch_) {
    // Stale-drop rule (docs/recovery.md): the message was minted under
    // protocol state a crash fence has regenerated. Acting on it could
    // resurrect a pre-crash grant or token; dropping is always safe because
    // the fence reconstructed every surviving hold and waiter from reports.
    fx.stale_drop = true;
    return fx;
  }
  if (const auto* request = std::get_if<HierRequest>(&message.payload)) {
    handle_request(*request, fx);
  } else if (const auto* grant = std::get_if<HierGrant>(&message.payload)) {
    handle_grant(message.from, *grant, own_pending_seq(message.request), fx);
  } else if (const auto* token = std::get_if<HierToken>(&message.payload)) {
    handle_token(message.from, *token, own_pending_seq(message.request), fx);
  } else if (const auto* release =
                 std::get_if<HierRelease>(&message.payload)) {
    handle_release(message.from, *release, fx);
  } else if (const auto* freeze = std::get_if<HierFreeze>(&message.payload)) {
    handle_freeze(*freeze, fx);
  } else {
    HLOCK_INVARIANT(false,
                    "non-hierarchical payload delivered to a HierAutomaton");
  }
  return fx;
}

proto::ElectToken HierAutomaton::recovery_report() const {
  proto::ElectToken report;
  report.epoch = recovery_epoch_;
  report.has_token = token_;
  report.held = held_;
  report.upgrading = upgrading_;
  report.waiting = !upgrading_ && pending_ != LockMode::kNL;
  if (report.waiting) {
    report.wait_mode = pending_;
    report.wait_seq = pending_seq();
    report.wait_priority = pending_priority_;
  }
  return report;
}

Effects HierAutomaton::install_fence(const proto::EpochFence& fence) {
  Effects fx;
  if (fence.epoch <= recovery_epoch_) return fx;  // duplicate/stale fence
  recovery_epoch_ = fence.epoch;

  // Pre-crash routing hints, freezes and re-issue budgets are meaningless
  // under the regenerated tree; the new root recomputes freeze sets from
  // its rebuilt queue below.
  hint_ = NodeId::none();
  reissue_count_ = 0;
  const ModeSet was_frozen = frozen_;
  frozen_.clear();
  emit_frozen_change(fx, was_frozen);
  // Every copyset relationship is re-established by the fence (the star
  // topology below); queued requests are dropped everywhere because every
  // surviving waiter reported its own request and reappears in the new
  // root's queue.
  copyset_.clear();
  queue_.clear();

  if (config_.trace_events) {
    auto event = make_event(trace::EventKind::kFence);
    event.peer = fence.new_root;
    event.token = self_ == fence.new_root;
    emit(fx, std::move(event));
  }

  if (self_ == fence.new_root) {
    token_ = true;
    parent_ = NodeId::none();
    reported_owned_ = LockMode::kNL;
    parent_epoch_ = 0;
    // Rebuilt copyset entries and their children's parent_epoch_ mirrors
    // are all stamped with the fence epoch, so post-fence releases match;
    // future grants must mint strictly larger grant epochs.
    for (const proto::FenceHolder& holder : fence.holders) {
      if (holder.node == self_) continue;
      copyset_add(holder.node, holder.mode, fence.epoch);
      if (config_.trace_events) {
        auto join = make_event(trace::EventKind::kCopysetJoin);
        join.peer = holder.node;
        join.mode = holder.mode;
        emit(fx, std::move(join));
      }
    }
    epoch_counter_ = std::max(epoch_counter_, fence.epoch);
    for (const proto::QueuedRequest& entry : fence.queue) enqueue(entry);
    // An in-flight Rule 7 upgrade survives at the root (a U holder is
    // always the token node, and a live token holder is always re-elected
    // root); its conflicting children may all have died, completing it.
    maybe_complete_upgrade(fx);
    service_token_queue(fx);
    return fx;
  }

  // Survivor under the new star: re-parent to the root, mirroring the
  // root's rebuilt entry for us (fence epoch, our held mode) when we hold.
  // A held mode and a pending request survive untouched — the pending
  // request reappears in the root's queue via our own report. Demoting
  // token_ here only happens when this node was fenced out while believing
  // it held the token (a false suspicion of a live node, or a doctored
  // double fence); it must stop arbitrating either way.
  token_ = false;
  if (upgrading_) {
    upgrading_ = false;
    pending_ = LockMode::kNL;
  }
  parent_ = fence.new_root;
  parent_epoch_ = fence.epoch;
  reported_owned_ = LockMode::kNL;
  for (const proto::FenceHolder& holder : fence.holders) {
    if (holder.node == self_) reported_owned_ = holder.mode;
  }
  return fx;
}

// ---------------------------------------------------------------------------
// Message handlers
// ---------------------------------------------------------------------------

void HierAutomaton::handle_request(const HierRequest& request, Effects& fx) {
  if (request.requester == self_) {
    // Our own request came back: a routing hint somewhere still pointed at
    // us from an earlier request of ours. Every node on the loop has just
    // re-pointed its hint here, so re-issuing along the granter link takes
    // a different (token-rooted) path. A spin budget guards liveness.
    HLOCK_INVARIANT(pending_ != LockMode::kNL,
                    "own request returned but nothing is pending");
    HLOCK_INVARIANT(++reissue_count_ < 64,
                    "request routing is spinning (probable hint cycle)");
    send(parent_, request, fx, proto::RequestId{self_, request.seq});
    return;
  }
  const QueuedRequest entry{request.requester, request.mode, request.seq,
                            request.priority};

  if (token_) {
    handle_request_as_token(entry, fx);
    refresh_frozen(fx);
    return;
  }

  // Rule 3.1: grant locally when this copyset member's owned mode is
  // compatible and at least as strong (Table 1(b)), unless frozen (Rule 6).
  if (config_.child_grants && !frozen_.contains(request.mode) &&
      non_token_can_grant(owned(), request.mode)) {
    copy_grant(entry, fx);
    return;
  }

  // Rule 4.1: queue locally when Table 1(c) permits it for our own pending
  // mode. With path compression enabled, a pending node queues every
  // request — it must be absorbing or reversal hints pointing at it could
  // route requests in cycles (see HierConfig::path_compression).
  if (pending_ != LockMode::kNL &&
      (config_.path_compression ||
       (config_.local_queueing &&
        queue_or_forward(pending_, request.mode) ==
            QueueOrForward::kQueue))) {
    enqueue(entry);
    if (config_.trace_events) {
      auto event = make_event(trace::EventKind::kQueue);
      event.peer = entry.requester;
      event.mode = entry.mode;
      event.ctx = pending_;  // the Table 1(c) decision context
      event.seq = entry.seq;
      event.priority = entry.priority;
      emit(fx, std::move(event));
    }
    return;
  }

  // Forward along the routing hint (falling back to the granter link),
  // then reverse the hint to the requester (path compression). Preferring
  // parent_ when the hint already points at the requester avoids the
  // trivial one-hop bounce; if even parent_ is the requester, the bounce is
  // handled by the requester's own-request-return re-issue path.
  const NodeId target =
      route() == request.requester ? parent_ : route();
  send(target, request, fx,
       proto::RequestId{request.requester, request.seq});
  if (config_.trace_events) {
    auto event = make_event(trace::EventKind::kForward);
    event.peer = request.requester;
    event.mode = request.mode;
    event.ctx = pending_;  // kNL when forwarding without a pending request
    event.seq = request.seq;
    event.priority = request.priority;
    event.detail = to_string(target);
    emit(fx, std::move(event));
  }
  if (config_.path_compression) hint_ = request.requester;
}

void HierAutomaton::handle_request_as_token(const QueuedRequest& request,
                                            Effects& fx) {
  const LockMode owned_mode = owned();
  if (!frozen_.contains(request.mode) &&
      token_can_grant(owned_mode, request.mode)) {
    if (token_grant_transfers(owned_mode, request.mode)) {
      transfer_token(request, fx);
    } else {
      copy_grant(request, fx);
    }
    return;
  }
  // Rule 4.2: the token queues what it cannot grant, regardless of its own
  // pending state; refresh_frozen() (run by the caller) installs Table 1(d)
  // freeze sets for the queued mode.
  enqueue(request);
  if (config_.trace_events) {
    auto event = make_event(trace::EventKind::kQueue);
    event.peer = request.requester;
    event.mode = request.mode;
    event.ctx = owned_mode;  // the token's Table 1(d) freeze context
    event.seq = request.seq;
    event.priority = request.priority;
    emit(fx, std::move(event));
  }
}

void HierAutomaton::handle_grant(NodeId from, const HierGrant& grant,
                                 std::uint64_t seq, Effects& fx) {
  HLOCK_INVARIANT(pending_ != LockMode::kNL && grant.mode == pending_,
                  "grant does not match this node's pending request");
  HLOCK_INVARIANT(!token_, "the token node cannot receive a copy grant");
  detach_from_old_parent(from, fx);
  // The grant carries the granter's resulting copyset entry and its epoch;
  // mirror both so later releases are stamped and filtered correctly.
  reported_owned_ = grant.entry_mode;
  parent_epoch_ = grant.epoch;
  held_ = grant.mode;
  pending_ = LockMode::kNL;
  parent_ = from;  // the granter admitted us into its copyset
  hint_ = NodeId::none();  // the granter link is the freshest route we have
  reissue_count_ = 0;
  const ModeSet was_frozen = frozen_;
  frozen_.clear();
  emit_frozen_change(fx, was_frozen);
  fx.entered_cs = true;
  if (config_.trace_events) {
    auto event = make_event(trace::EventKind::kEnterCs);
    event.peer = from;  // the granter
    event.mode = grant.mode;
    event.seq = seq;
    emit(fx, std::move(event));
  }
  drain_local_queue(fx);
}

void HierAutomaton::handle_token(NodeId from, const HierToken& token,
                                 std::uint64_t seq, Effects& fx) {
  HLOCK_INVARIANT(!token_, "token transferred to the current token node");
  HLOCK_INVARIANT(pending_ != LockMode::kNL &&
                      token.granted_mode == pending_,
                  "token does not match this node's pending request");
  detach_from_old_parent(from, fx);
  token_ = true;
  parent_ = NodeId::none();
  hint_ = NodeId::none();
  reissue_count_ = 0;
  reported_owned_ = LockMode::kNL;  // the token node has no parent
  held_ = token.granted_mode;
  pending_ = LockMode::kNL;
  const ModeSet was_frozen = frozen_;
  frozen_.clear();
  emit_frozen_change(fx, was_frozen);
  if (token.sender_owned != LockMode::kNL) {
    // Epoch 0 is reserved for transfer-created entries; the old token
    // symmetrically resets its parent_epoch_ to 0 in transfer_token().
    copyset_add(from, token.sender_owned, 0);
    if (config_.trace_events) {
      auto event = make_event(trace::EventKind::kCopysetJoin);
      event.peer = from;
      event.mode = token.sender_owned;
      emit(fx, std::move(event));
    }
  }
  // Responsibility for the old token's queue moves here; our own locally
  // queued requests (logged while our request was pending) are younger and
  // merge behind the shipped entries of equal priority, preserving the
  // logical distributed FIFO within each priority level.
  std::deque<QueuedRequest> local;
  local.swap(queue_);
  queue_.assign(token.queue.begin(), token.queue.end());
  for (const QueuedRequest& entry : local) enqueue(entry);
  fx.entered_cs = true;
  if (config_.trace_events) {
    auto event = make_event(trace::EventKind::kEnterCs);
    event.peer = from;  // the old token node
    event.mode = token.granted_mode;
    event.seq = seq;
    emit(fx, std::move(event));
  }
  service_token_queue(fx);
}

void HierAutomaton::handle_release(NodeId from, const HierRelease& release,
                                   Effects& fx) {
  CopysetEntry* entry = copyset_find(from);
  if (entry == nullptr || entry->epoch != release.epoch) {
    // Stale: generated by the child before it saw our latest grant (or
    // before a token transfer that already removed the entry). The grant
    // path has re-synchronized the relationship; this message is obsolete.
    return;
  }
  if (release.new_owned == LockMode::kNL) {
    std::erase_if(copyset_,
                  [&](const CopysetEntry& e) { return e.node == from; });
    if (config_.trace_events) {
      auto event = make_event(trace::EventKind::kCopysetLeave);
      event.peer = from;
      emit(fx, std::move(event));
    }
  } else {
    entry->mode = release.new_owned;
    if (config_.trace_events) {
      // Re-reported at a weaker mode: emitted as a join-style update so
      // trace consumers can mirror the copyset exactly.
      auto event = make_event(trace::EventKind::kCopysetJoin);
      event.peer = from;
      event.mode = release.new_owned;
      emit(fx, std::move(event));
    }
  }

  if (token_) {
    // Rule 5.1: a release may unblock queued requests or a waiting upgrade.
    maybe_complete_upgrade(fx);
    service_token_queue(fx);
    return;
  }
  // Rule 5.2: releases only ever weaken owned modes, which can never enable
  // a Rule 3.1 grant at a non-token node, so the local queue needs no scan;
  // only the weakening propagates.
  propagate_weakening(fx);
}

void HierAutomaton::handle_freeze(const HierFreeze& freeze, Effects& fx) {
  if (!config_.freezing) return;
  if (token_) {
    // A freeze from a previous parent that raced with a token transfer to
    // this node; the token's own queue now governs its frozen set.
    return;
  }
  const ModeSet was_frozen = frozen_;
  frozen_ |= freeze.modes;
  emit_frozen_change(fx, was_frozen);
  notify_frozen_children(fx);
}

void HierAutomaton::detach_from_old_parent(NodeId granter, Effects& fx) {
  // A node may be granted by a node other than its current parent (the
  // first capable granter on the propagation path, or the token). If the
  // old parent still records this node in its copyset (reported_owned_ is
  // the mirror of that entry), the whole subtree moves under the granter,
  // so the old parent must drop the entry or its owned-mode aggregate (and
  // release routing) goes stale. Same-parent grants just strengthen the
  // existing entry on the granter's side, and a parent transferring the
  // token removes the entry itself.
  if (granter != parent_ && reported_owned_ != LockMode::kNL) {
    send(parent_, HierRelease{LockMode::kNL, parent_epoch_}, fx);
  }
}

// ---------------------------------------------------------------------------
// Grants
// ---------------------------------------------------------------------------

void HierAutomaton::copy_grant(const QueuedRequest& request, Effects& fx) {
  // The Table 1(b) authority for this grant is the owned mode *before* the
  // requester is admitted — record it as the grant's decision context.
  const LockMode granter_owned = owned();
  const std::uint32_t epoch = ++epoch_counter_;
  const LockMode entry_mode =
      copyset_add(request.requester, request.mode, epoch);
  if (config_.trace_events) {
    auto event = make_event(trace::EventKind::kGrant);
    event.peer = request.requester;
    event.mode = request.mode;
    event.ctx = granter_owned;
    event.seq = request.seq;
    event.priority = request.priority;
    emit(fx, std::move(event));
    auto join = make_event(trace::EventKind::kCopysetJoin);
    join.peer = request.requester;
    join.mode = entry_mode;
    emit(fx, std::move(join));
  }
  send(request.requester, HierGrant{request.mode, entry_mode, epoch}, fx,
       proto::RequestId{request.requester, request.seq});
  // A freshly admitted child able to grant a currently frozen mode must be
  // frozen immediately or it could hand out bypass grants (Rule 6).
  notify_frozen_children(fx);
}

void HierAutomaton::transfer_token(const QueuedRequest& request, Effects& fx) {
  HLOCK_INVARIANT(token_, "only the token node can transfer the token");
  // If the requester was a copyset child, it leaves our subtree: we are
  // about to become *its* child, and its contribution must not be counted
  // in the residual owned mode we report (that would create a cycle).
  const bool was_child = copyset_find(request.requester) != nullptr;
  std::erase_if(copyset_,
                [&](const CopysetEntry& e) { return e.node == request.requester; });
  if (config_.trace_events && was_child) {
    auto leave = make_event(trace::EventKind::kCopysetLeave);
    leave.peer = request.requester;
    emit(fx, std::move(leave));
  }

  HierToken token;
  token.granted_mode = request.mode;
  token.sender_owned = owned();
  token.queue.assign(queue_.begin(), queue_.end());
  if (config_.trace_events) {
    // Emitted while token_ is still true: the event records the sender as
    // the authority that moved the token.
    auto event = make_event(trace::EventKind::kTokenTransfer);
    event.peer = request.requester;
    event.mode = request.mode;
    event.ctx = token.sender_owned;  // residual owned mode shipped along
    event.seq = request.seq;
    event.priority = request.priority;
    event.detail = std::to_string(token.queue.size()) + " queued shipped";
    emit(fx, std::move(event));
  }
  queue_.clear();
  const ModeSet was_frozen = frozen_;
  frozen_.clear();
  token_ = false;
  emit_frozen_change(fx, was_frozen);
  parent_ = request.requester;
  hint_ = NodeId::none();  // the new token is also the best route
  // The new token node records us at the residual mode we ship, under the
  // reserved transfer epoch 0 (see handle_token).
  reported_owned_ = token.sender_owned;
  parent_epoch_ = 0;
  send(request.requester, std::move(token), fx,
       proto::RequestId{request.requester, request.seq});
}

// ---------------------------------------------------------------------------
// Queue service
// ---------------------------------------------------------------------------

void HierAutomaton::service_token_queue(Effects& fx) {
  HLOCK_INVARIANT(token_, "queue service ran on a non-token node");
  // Rule 5.1 + Rule 6: walk the FIFO queue; grant every entry whose mode is
  // non-frozen and compatible with the current owned mode. Entries that
  // stay re-install their freeze sets via refresh_frozen() below, so a
  // compatible entry granted past an earlier incompatible one can never
  // conflict with it (its mode would be frozen).
  for (auto it = queue_.begin(); it != queue_.end();) {
    const QueuedRequest entry = *it;
    const LockMode owned_mode = owned();
    const bool blocked = (config_.freezing && frozen_.contains(entry.mode)) ||
                         !token_can_grant(owned_mode, entry.mode) ||
                         upgrading_;
    if (blocked) {
      ++it;
      continue;
    }
    if (entry.requester == self_) {
      // Our own queued request: no transfer needed, simply start holding.
      it = queue_.erase(it);
      held_ = entry.mode;
      pending_ = LockMode::kNL;
      fx.entered_cs = true;
      emit_self_grant(fx, entry.mode, owned_mode, entry.seq);
      continue;
    }
    if (token_grant_transfers(owned_mode, entry.mode)) {
      // The token itself moves: every remaining queued request ships with
      // it (FIFO order intact) and this node's duty as arbiter ends.
      it = queue_.erase(it);
      transfer_token(entry, fx);
      return;
    }
    it = queue_.erase(it);
    copy_grant(entry, fx);
  }
  refresh_frozen(fx);
}

void HierAutomaton::drain_local_queue(Effects& fx) {
  // Rule 4 operational spec: requests queued while our own request was
  // pending are reconsidered once it resolves — granted where Rule 3.1 now
  // allows, forwarded toward the token otherwise (we no longer have a
  // pending mode to justify holding them).
  HLOCK_INVARIANT(!token_, "token nodes service their queue, not drain it");
  std::deque<QueuedRequest> work;
  work.swap(queue_);
  for (const QueuedRequest& entry : work) {
    if (config_.child_grants && !frozen_.contains(entry.mode) &&
        non_token_can_grant(owned(), entry.mode)) {
      copy_grant(entry, fx);
    } else {
      send(parent_,
           HierRequest{entry.requester, entry.mode, entry.seq,
                       entry.priority},
           fx, proto::RequestId{entry.requester, entry.seq});
      if (config_.trace_events) {
        auto event = make_event(trace::EventKind::kForward);
        event.peer = entry.requester;
        event.mode = entry.mode;
        // ctx stays kNL: our pending request just resolved, so Table 1(c)
        // no longer applies — forwarding is the unconditional default.
        event.seq = entry.seq;
        event.priority = entry.priority;
        event.detail = to_string(parent_);
        emit(fx, std::move(event));
      }
    }
  }
}

void HierAutomaton::maybe_complete_upgrade(Effects& fx) {
  if (!upgrading_ || !copyset_.empty()) return;
  // Rule 7: all children released; atomically strengthen U -> W. The U hold
  // was never released, so no other writer can have intervened.
  HLOCK_INVARIANT(held_ == LockMode::kU, "upgrade completing without U held");
  held_ = LockMode::kW;
  pending_ = LockMode::kNL;
  upgrading_ = false;
  fx.upgraded = true;
  if (config_.trace_events) {
    auto event = make_event(trace::EventKind::kUpgraded);
    event.mode = LockMode::kW;
    event.ctx = LockMode::kU;
    emit(fx, std::move(event));
  }
}

// ---------------------------------------------------------------------------
// Freezing (Rule 6)
// ---------------------------------------------------------------------------

void HierAutomaton::refresh_frozen(Effects& fx) {
  if (!config_.freezing) return;
  if (!token_) return;
  const LockMode owned_mode = owned();
  ModeSet frozen;
  for (const QueuedRequest& entry : queue_) {
    frozen |= freeze_set(owned_mode, entry.mode);
  }
  if (upgrading_) frozen |= freeze_set(owned_mode, LockMode::kW);
  const ModeSet before = frozen_;
  frozen_ = frozen;
  emit_frozen_change(fx, before);
  notify_frozen_children(fx);
}

void HierAutomaton::notify_frozen_children(Effects& fx) {
  if (!config_.freezing || frozen_.empty()) return;
  for (CopysetEntry& child : copyset_) {
    const ModeSet relevant = grantable_subset(child.mode, frozen_);
    if (relevant.empty() || !adds_modes(relevant, child.freeze_sent)) {
      continue;
    }
    child.freeze_sent |= relevant;
    send(child.node, HierFreeze{relevant}, fx);
  }
}

// ---------------------------------------------------------------------------
// Copyset maintenance
// ---------------------------------------------------------------------------

LockMode HierAutomaton::copyset_add(NodeId node, LockMode mode,
                                    std::uint32_t epoch) {
  HLOCK_INVARIANT(node != self_, "a node cannot be its own copyset child");
  if (CopysetEntry* entry = copyset_find(node)) {
    entry->mode = stronger_of(entry->mode, mode);
    entry->epoch = epoch;
    return entry->mode;
  }
  copyset_.push_back(CopysetEntry{node, mode, epoch, ModeSet{}});
  return mode;
}

CopysetEntry* HierAutomaton::copyset_find(NodeId node) {
  auto it = std::find_if(copyset_.begin(), copyset_.end(),
                         [&](const CopysetEntry& e) { return e.node == node; });
  return it == copyset_.end() ? nullptr : &*it;
}

void HierAutomaton::propagate_weakening(Effects& fx) {
  HLOCK_INVARIANT(!token_, "the token node has no parent to notify");
  const LockMode owned_now = owned();
  // Rule 5.2: notify only on weakening — i.e. when the parent's recorded
  // entry (mirrored in reported_owned_) overestimates the actual state.
  if (!stronger(reported_owned_, owned_now)) return;
  reported_owned_ = owned_now;
  send(parent_, HierRelease{owned_now, parent_epoch_}, fx);
  if (owned_now == LockMode::kNL) {
    // We left every copyset; any freeze episode we took part in is over
    // (a future grant re-delivers FREEZE if still needed).
    const ModeSet was_frozen = frozen_;
    frozen_.clear();
    emit_frozen_change(fx, was_frozen);
  }
}

void HierAutomaton::send(NodeId to, Payload payload, Effects& fx,
                         proto::RequestId request) const {
  HLOCK_INVARIANT(!to.is_none(), "attempted to send to the null node");
  Message message{self_, to, lock_, std::move(payload)};
  message.request = request;
  message.epoch = recovery_epoch_;
  fx.messages.push_back(std::move(message));
}

// ---------------------------------------------------------------------------
// Trace event emission
// ---------------------------------------------------------------------------

trace::TraceEvent HierAutomaton::make_event(trace::EventKind kind) const {
  trace::TraceEvent event;
  event.kind = kind;
  event.node = self_;
  event.lock = lock_;
  event.token = token_;
  event.epoch = recovery_epoch_;
  return event;
}

void HierAutomaton::emit(Effects& fx, trace::TraceEvent event) const {
  if (config_.trace_events) fx.events.push_back(std::move(event));
}

void HierAutomaton::emit_frozen_change(Effects& fx, ModeSet before) const {
  if (!config_.trace_events || frozen_ == before) return;
  auto event = make_event(adds_modes(frozen_, before)
                              ? trace::EventKind::kFreeze
                              : trace::EventKind::kUnfreeze);
  event.modes = frozen_;
  fx.events.push_back(std::move(event));
}

void HierAutomaton::emit_self_grant(Effects& fx, LockMode mode,
                                    LockMode owned_before,
                                    std::uint64_t seq) const {
  if (!config_.trace_events) return;
  auto grant = make_event(trace::EventKind::kLocalGrant);
  grant.mode = mode;
  grant.ctx = owned_before;
  grant.seq = seq;
  fx.events.push_back(std::move(grant));
  auto enter = make_event(trace::EventKind::kEnterCs);
  enter.mode = mode;
  enter.seq = seq;
  fx.events.push_back(std::move(enter));
}

std::string HierAutomaton::fingerprint() const {
  // Every behavior-relevant member, in a fixed order. next_seq_ is
  // included: it is carried in future request messages and therefore part
  // of observable behavior (it keeps fingerprints honest even though seq
  // values never influence protocol decisions).
  std::ostringstream os;
  os << (token_ ? 'T' : 't') << parent_.value() << '/' << hint_.value()
     << '/' << mode_index(held_) << mode_index(pending_)
     << 'p' << static_cast<int>(pending_priority_)
     << (upgrading_ ? 'U' : 'u') << static_cast<int>(frozen_.bits());
  os << 'r' << mode_index(reported_owned_) << 'e' << parent_epoch_ << 'c'
     << epoch_counter_ << 's' << next_seq_ << 'i' << reissue_count_ << 'E'
     << recovery_epoch_;
  os << "|cs";
  for (const CopysetEntry& entry : copyset_) {
    os << '(' << entry.node.value() << ',' << mode_index(entry.mode) << ','
       << entry.epoch << ',' << static_cast<int>(entry.freeze_sent.bits())
       << ')';
  }
  os << "|q";
  for (const proto::QueuedRequest& entry : queue_) {
    os << '(' << entry.requester.value() << ',' << mode_index(entry.mode)
       << ',' << entry.seq << ',' << static_cast<int>(entry.priority)
       << ')';
  }
  return os.str();
}

std::string HierAutomaton::fingerprint(
    std::span<const std::uint32_t> relabel) const {
  const auto mapped = [relabel](NodeId id) {
    if (id.is_none() || id.value() >= relabel.size()) return id.value();
    return relabel[id.value()];
  };
  std::ostringstream os;
  os << (token_ ? 'T' : 't') << mapped(parent_) << '/' << mapped(hint_)
     << '/' << mode_index(held_) << mode_index(pending_)
     << 'p' << static_cast<int>(pending_priority_)
     << (upgrading_ ? 'U' : 'u') << static_cast<int>(frozen_.bits());
  os << 'r' << mode_index(reported_owned_) << 'e' << parent_epoch_ << 'c'
     << epoch_counter_ << 's' << next_seq_ << 'i' << reissue_count_ << 'E'
     << recovery_epoch_;
  // Copyset entries sorted by mapped id: the set, not its insertion order,
  // is what matters behaviorally (see header), and sorting makes renderings
  // of permuted-but-equivalent states compare equal.
  std::vector<std::tuple<std::uint32_t, const CopysetEntry*>> entries;
  entries.reserve(copyset_.size());
  for (const CopysetEntry& entry : copyset_) {
    entries.emplace_back(mapped(entry.node), &entry);
  }
  std::sort(entries.begin(), entries.end());
  os << "|cs";
  for (const auto& [id, entry] : entries) {
    os << '(' << id << ',' << mode_index(entry->mode) << ',' << entry->epoch
       << ',' << static_cast<int>(entry->freeze_sent.bits()) << ')';
  }
  // Queue order is FIFO-within-priority service order — real behavior —
  // so it is preserved verbatim.
  os << "|q";
  for (const proto::QueuedRequest& entry : queue_) {
    os << '(' << mapped(entry.requester) << ',' << mode_index(entry.mode)
       << ',' << entry.seq << ',' << static_cast<int>(entry.priority)
       << ')';
  }
  return os.str();
}

std::string HierAutomaton::describe() const {
  std::ostringstream os;
  os << to_string(self_) << " tok=" << (token_ ? 1 : 0)
     << " parent=" << to_string(parent_) << " held=" << to_string(held_)
     << " owned=" << to_string(owned()) << " pend=" << to_string(pending_)
     << (upgrading_ ? "(upg)" : "") << " frozen=" << to_string(frozen_)
     << " epoch=" << recovery_epoch_ << " q=" << queue_.size() << " cs={";
  for (std::size_t i = 0; i < copyset_.size(); ++i) {
    if (i > 0) os << ',';
    os << to_string(copyset_[i].node) << ':' << to_string(copyset_[i].mode);
  }
  os << '}';
  return os.str();
}

}  // namespace hlock::core
