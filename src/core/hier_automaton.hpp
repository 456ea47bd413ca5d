// The peer-to-peer hierarchical multi-mode locking automaton (paper §3).
//
// One HierAutomaton instance manages one node's view of one lock. All
// instances are symmetric; exactly one holds the token at any time. The
// automaton implements Rules 1-7 over the tables in mode_tables.hpp:
//
//  * Rule 2 — decide locally whether a request needs a message at all;
//  * Rule 3 — grants: copy grants by sufficiently-strong copyset members
//             and the token node, token transfer when the requested mode
//             exceeds the token's owned mode;
//  * Rule 4 — queue-or-forward for ungrantable requests (local queues at
//             nodes with pending requests, a FIFO queue at the token);
//  * Rule 5 — releases: local queue service at the token, owned-mode
//             weakening notifications along the copyset tree;
//  * Rule 6 — mode freezing for FIFO fairness / starvation avoidance;
//  * Rule 7 — atomic U -> W upgrade at the token.
//
// The class is a pure state machine: every entry point returns the Effects
// (messages + local grant events) the runtime must apply. It performs no
// I/O, holds no clock and is single-threaded by construction; the runtime
// serializes calls per node.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "core/effects.hpp"
#include "core/hier_config.hpp"
#include "core/mode_tables.hpp"
#include "proto/ids.hpp"
#include "proto/message.hpp"

namespace hlock::core {

using proto::LockId;
using proto::NodeId;

/// One copyset entry: a child node, the strongest mode it owns (as last
/// reported), the epoch of the grant that created/refreshed the
/// relationship (releases carrying an older epoch are stale and dropped),
/// and the freeze notifications already sent to it (to avoid redundant
/// FREEZE messages).
struct CopysetEntry {
  NodeId node;
  LockMode mode = LockMode::kNL;
  std::uint32_t epoch = 0;
  ModeSet freeze_sent;
};

/// Per-(node, lock) protocol state machine. See file comment.
class HierAutomaton {
 public:
  /// Constructs the automaton for `self` on `lock`. Exactly one node in the
  /// system must be created with `initially_token == true`; every other
  /// node's `initial_parent` chain must (transitively) reach it.
  /// `initial_epoch` is the recovery epoch the automaton starts in: 0 for a
  /// pristine cluster, the current campaign epoch when a lock is first
  /// touched after a crash recovery (recovery::Host::set_default_origin).
  HierAutomaton(NodeId self, LockId lock, bool initially_token,
                NodeId initial_parent, HierConfig config = {},
                std::uint32_t initial_epoch = 0);

  // ---- Application API ----

  /// Requests the lock in `mode` (Rule 2). Precondition: the node neither
  /// holds the lock nor has a request outstanding. If the effects report
  /// entered_cs the node is inside the critical section immediately;
  /// otherwise a later step will report it.
  ///
  /// `priority` orders waiting queues: higher priorities are served first,
  /// FIFO within a level (the prioritized extension of the paper's refs
  /// [15, 16]; all-zero priorities are the paper's pure FIFO protocol).
  /// Rule 6 freezing still applies unchanged — a high-priority request
  /// waits for current HOLDERS, it only overtakes queued waiters.
  Effects request(LockMode mode, std::uint8_t priority = 0);

  /// Releases the held lock (Rule 5). Precondition: holding, not upgrading.
  Effects release();

  /// Atomically upgrades U -> W without releasing (Rule 7). Precondition:
  /// holding kU (which implies this node is the token node). Completion is
  /// reported via Effects::upgraded, possibly in a later step.
  Effects upgrade();

  /// Delivers one protocol message addressed to this node. Messages whose
  /// envelope epoch differs from recovery_epoch() are dropped unprocessed
  /// (Effects::stale_drop) — they were minted under protocol state a crash
  /// fence has since regenerated. Runtimes buffer newer-epoch messages
  /// until the local fence arrives, so only genuinely stale ones reach
  /// this gate (docs/recovery.md).
  Effects on_message(const proto::Message& message);

  /// Applies one crash-recovery fence (docs/recovery.md): enters `epoch`,
  /// re-roots the lock's tree as a star at `new_root`, installs `holders`
  /// as the new root's copyset and `queue` as its waiting queue, and clears
  /// every pre-crash routing hint, freeze and queue elsewhere. Holds,
  /// pending requests and an in-flight upgrade survive. No-op when `epoch`
  /// is not newer than recovery_epoch() (duplicate/stale fences).
  Effects install_fence(const proto::EpochFence& fence);

  /// This node's crash-recovery report for the lock: the state fields of
  /// the ElectToken its recovery manager sends the coordinator (which
  /// stamps the campaign fields). An upgrader does not report as waiting:
  /// its pending W is preserved as an in-flight Rule 7 upgrade at the new
  /// root, not re-queued.
  proto::ElectToken recovery_report() const;

  // ---- Introspection (tests, invariant checks, tracing) ----

  NodeId self() const { return self_; }
  LockId lock() const { return lock_; }
  bool is_token() const { return token_; }
  /// Recovery epoch this automaton operates in (0 before any recovery).
  std::uint32_t recovery_epoch() const { return recovery_epoch_; }
  /// Parent (granter) link: the node whose copyset this node belongs to
  /// (or last belonged to); carries releases and freeze propagation.
  /// none iff this node is the token node.
  NodeId parent() const { return parent_; }
  /// Probable-owner routing hint (Naimi path reversal): where requests are
  /// forwarded when set; falls back to parent() when none. Reversed to the
  /// requester on every forward — this is the paper's "dynamic path
  /// compression for request propagation".
  NodeId route_hint() const { return hint_; }
  /// Mode currently held (kNL outside critical sections) — Definition 2.
  LockMode held() const { return held_; }
  /// Mode of the node's own outstanding request (kNL if none); kW while a
  /// Rule 7 upgrade is in flight.
  LockMode pending() const { return pending_; }
  /// Sequence number of the outstanding request (valid while pending() is
  /// not kNL; requests never overlap, so it is the last issued seq).
  std::uint64_t pending_seq() const { return next_seq_ - 1; }
  /// Strongest mode held/owned in the subtree rooted here — Definition 3.
  LockMode owned() const;
  /// True while a Rule 7 upgrade is waiting for children to release.
  bool upgrading() const { return upgrading_; }
  /// Children granted by this node and their reported owned modes.
  const std::vector<CopysetEntry>& copyset() const { return copyset_; }
  /// The owned mode this node's parent currently records for it (kNL when
  /// not a copyset member). Always at least as strong as owned(); it may
  /// briefly overestimate when a weakening notification raced a re-grant
  /// (the stale release is epoch-discarded; the next quiet release
  /// resynchronizes).
  LockMode reported_owned() const { return reported_owned_; }
  /// Locally queued requests in FIFO order.
  const std::deque<proto::QueuedRequest>& queue() const { return queue_; }
  /// Modes this node currently refuses to grant (Rule 6).
  ModeSet frozen() const { return frozen_; }
  /// One-line state dump: "node3 tok=1 held=R own=R pend=NL q=2 cs={...}".
  std::string describe() const;

  /// Complete, canonical serialization of the automaton state — two
  /// automatons behave identically from here on iff their fingerprints are
  /// equal. Used by the model checker for visited-state deduplication.
  std::string fingerprint() const;

  /// fingerprint() with every embedded node id (parent, routing hint,
  /// copyset entries, queue requesters) mapped through `relabel`
  /// (relabel[i] = new id for node i; ids beyond the span pass through).
  /// Copyset entries are emitted in sorted order — insertion order is
  /// behaviorally irrelevant (lookups are by id, messages go to distinct
  /// peers), so sorting makes the rendering permutation-independent. The
  /// queue's FIFO/priority order IS behavior and is preserved. Used by the
  /// model checker's symmetry canonicalization.
  std::string fingerprint(std::span<const std::uint32_t> relabel) const;

 private:
  Effects step_request(LockMode mode, std::uint8_t priority);
  /// Inserts into the local queue: after every entry with priority >= the
  /// new entry's (priority order, FIFO within a level).
  void enqueue(const proto::QueuedRequest& entry);
  void handle_request(const proto::HierRequest& request, Effects& fx);
  void handle_request_as_token(const proto::QueuedRequest& request,
                               Effects& fx);
  /// `seq` is the sequence number of this node's own pending request (from
  /// the message's RequestId when stamped); it tags the kEnterCs event.
  void handle_grant(NodeId from, const proto::HierGrant& grant,
                    std::uint64_t seq, Effects& fx);
  void handle_token(NodeId from, const proto::HierToken& token,
                    std::uint64_t seq, Effects& fx);
  void handle_release(NodeId from, const proto::HierRelease& release,
                      Effects& fx);
  void handle_freeze(const proto::HierFreeze& freeze, Effects& fx);

  /// On re-parenting under a granter that is not the current parent while
  /// still owning a mode: withdraw this subtree from the old parent's
  /// copyset (it moves under the granter).
  void detach_from_old_parent(NodeId granter, Effects& fx);

  /// Rule 3 grant paths (precondition: the grant is legal).
  void copy_grant(const proto::QueuedRequest& request, Effects& fx);
  void transfer_token(const proto::QueuedRequest& request, Effects& fx);

  /// Rule 5.1: walk the token's FIFO queue granting every non-frozen
  /// compatible entry; installs freeze sets for entries that stay.
  void service_token_queue(Effects& fx);
  /// Drain a non-token node's local queue once its pending request
  /// resolved: grant what Rule 3.1 allows, forward the rest.
  void drain_local_queue(Effects& fx);
  /// Completes a waiting Rule 7 upgrade once all children released.
  void maybe_complete_upgrade(Effects& fx);

  /// Recomputes the token's frozen set from its queue and notifies copyset
  /// children that could otherwise grant a frozen mode (Rule 6).
  void refresh_frozen(Effects& fx);
  /// Sends FREEZE to children able to grant newly frozen modes.
  void notify_frozen_children(Effects& fx);

  /// Adds or strengthens the entry for `node`, stamping `epoch`; returns
  /// the resulting entry mode.
  LockMode copyset_add(NodeId node, LockMode mode, std::uint32_t epoch);
  CopysetEntry* copyset_find(NodeId node);
  /// Weakening side of Rule 5.2: notify the parent when the owned mode it
  /// has on record (reported_owned_) overestimates the actual owned mode.
  /// Deferred while a request is pending to avoid RELEASE/GRANT crossings.
  void propagate_weakening(Effects& fx);

  /// `request` stamps the message's end-to-end RequestId (the request the
  /// message concerns); none for messages not tied to one application
  /// request (releases, freezes).
  void send(NodeId to, proto::Payload payload, Effects& fx,
            proto::RequestId request = proto::RequestId::none()) const;

  /// Builds a trace event stamped with this node's identity and current
  /// token status (capture before mutating token_ where it matters).
  trace::TraceEvent make_event(trace::EventKind kind) const;
  /// Appends `event` to fx.events iff config_.trace_events is on.
  void emit(Effects& fx, trace::TraceEvent event) const;
  /// Emits kFreeze/kUnfreeze if the frozen set changed from `before` to the
  /// current frozen_ (the event carries the full new set).
  void emit_frozen_change(Effects& fx, ModeSet before) const;
  /// Emits kLocalGrant + kEnterCs for a message-free self-grant (Rule 2,
  /// the token's Rule 3.2 self-grant, or token-queue self-service).
  void emit_self_grant(Effects& fx, LockMode mode, LockMode owned_before,
                       std::uint64_t seq) const;

  const NodeId self_;
  const LockId lock_;
  const HierConfig config_;

  /// Request-routing target: hint_ when set, else parent_.
  NodeId route() const { return hint_.is_none() ? parent_ : hint_; }

  /// The seq of this node's own pending request: the incoming grant/token
  /// message's RequestId when stamped, else the most recently issued seq
  /// (valid because request() forbids overlap, so the outstanding request
  /// is always the last one issued).
  std::uint64_t own_pending_seq(proto::RequestId request) const {
    return request.is_none() ? next_seq_ - 1 : request.seq;
  }

  bool token_ = false;
  NodeId parent_;           // granter link; none iff token_
  NodeId hint_;             // probable-owner routing hint (may be none)
  LockMode held_ = LockMode::kNL;
  LockMode pending_ = LockMode::kNL;
  /// Priority of the outstanding request; crash-recovery reports carry it
  /// so the rebuilt root queue preserves priority order (docs/recovery.md).
  std::uint8_t pending_priority_ = 0;
  bool upgrading_ = false;
  /// Sequence numbers start at 1: seq 0 is the "unset" value in trace
  /// events and RequestIds, so every real request must have a nonzero seq.
  std::uint64_t next_seq_ = 1;
  std::vector<CopysetEntry> copyset_;
  std::deque<proto::QueuedRequest> queue_;
  ModeSet frozen_;
  /// Mirror of the parent's copyset entry for this node (see
  /// reported_owned()); kNL while not a copyset member or when token.
  LockMode reported_owned_ = LockMode::kNL;
  /// Epoch of the last grant received from the current parent; stamps all
  /// RELEASE messages (see HierGrant::epoch).
  std::uint32_t parent_epoch_ = 0;
  /// Times our own pending request bounced back to us (stale hint loops);
  /// reset on every grant, bounded as a livelock guard.
  std::uint32_t reissue_count_ = 0;
  /// Source of grant epochs handed to children; 0 is reserved for entries
  /// created by token transfer.
  std::uint32_t epoch_counter_ = 0;
  /// Recovery epoch (docs/recovery.md): stamped onto every outgoing
  /// message; mismatched incoming messages are dropped. Advanced only by
  /// install_fence().
  std::uint32_t recovery_epoch_ = 0;
};

}  // namespace hlock::core
