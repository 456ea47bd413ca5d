// The Naimi-Tréhel-Arnold O(log n) token-based mutual exclusion protocol
// (paper §2), used as the non-hierarchical baseline in the evaluation.
//
// Two distributed structures are maintained:
//  * a dynamic logical tree of probable-owner links along which requests are
//    routed toward the last requester, with path reversal (every node on a
//    request's path re-points its link at the requester), which yields the
//    O(log n) average message complexity; and
//  * a distributed FIFO list of waiting requesters threaded through `next`
//    pointers, starting at the current token holder.
//
// The protocol has a single exclusive mode: lock modes are ignored, which is
// exactly the functional gap the paper's "same work" / "pure" workload
// variants explore.
#pragma once

#include <cstdint>
#include <string>

#include "core/effects.hpp"
#include "proto/ids.hpp"
#include "proto/message.hpp"

namespace hlock::naimi {

using core::Effects;
using proto::LockId;
using proto::NodeId;

/// Per-(node, lock) state machine of the Naimi-Tréhel protocol. Pure state
/// machine: all I/O is returned as Effects, exactly like HierAutomaton.
class NaimiAutomaton {
 public:
  /// Constructs the automaton for `self` on `lock`. Exactly one node is
  /// created with the token (`initially_token`); the probable-owner links of
  /// all other nodes must transitively reach it.
  /// `initial_epoch` is the recovery epoch the automaton starts in (see
  /// HierAutomaton; nonzero when a lock is first touched post-recovery).
  NaimiAutomaton(NodeId self, LockId lock, bool initially_token,
                 NodeId initial_owner, std::uint32_t initial_epoch = 0);

  // ---- Application API ----

  /// Requests the (exclusive) lock. Precondition: not holding, not waiting.
  /// Effects::entered_cs reports immediate entry (token already here).
  Effects request();

  /// Releases the lock; passes the token to `next` if somebody waits.
  Effects release();

  /// Delivers one protocol message addressed to this node. Messages whose
  /// envelope epoch differs from recovery_epoch() are dropped unprocessed
  /// (Effects::stale_drop) — see HierAutomaton::on_message.
  Effects on_message(const proto::Message& message);

  /// Applies one crash-recovery fence (docs/recovery.md): enters
  /// fence.epoch, seats the token at fence.new_root and rebuilds the
  /// distributed FIFO waiting list from fence.queue (the surviving
  /// requesters, in grant order). The pre-crash probable-owner tree and
  /// next pointers are discarded. Note the runtime must transmit the
  /// resulting messages: an idle re-elected root immediately passes the
  /// regenerated token to the first waiter. No-op when fence.epoch is not
  /// newer than recovery_epoch().
  Effects install_fence(const proto::EpochFence& fence);

  /// This node's crash-recovery report for the lock (see
  /// HierAutomaton::recovery_report). The single exclusive mode maps onto
  /// kW: inside the critical section the node holds kW, and a waiting
  /// request waits for kW.
  proto::ElectToken recovery_report() const;

  // ---- Introspection ----

  NodeId self() const { return self_; }
  /// Recovery epoch this automaton operates in (0 before any recovery).
  std::uint32_t recovery_epoch() const { return recovery_epoch_; }
  /// True if the token currently rests at this node.
  bool has_token() const { return has_token_; }
  /// True while inside the critical section.
  bool in_cs() const { return in_cs_; }
  /// True while waiting for the token.
  bool requesting() const { return requesting_; }
  /// Sequence number of the outstanding request (valid while requesting();
  /// requests never overlap, so it is the last issued seq).
  std::uint64_t pending_seq() const { return next_seq_ - 1; }
  /// Probable owner link; none when this node believes itself the root
  /// (i.e. it was the last requester it knows of).
  NodeId probable_owner() const { return owner_; }
  /// Successor in the distributed waiting list; none if no one queued here.
  NodeId next() const { return next_; }
  /// One-line state dump for traces and test diagnostics.
  std::string describe() const;

  /// Complete canonical state serialization (model-checker dedup).
  std::string fingerprint() const;

 private:
  void handle_request(const proto::NaimiRequest& request, Effects& fx);
  void handle_token(Effects& fx);
  /// `request` stamps the message's end-to-end RequestId, carried for
  /// observability (spans join token hand-offs to the requests they serve).
  void send(NodeId to, proto::Payload payload, Effects& fx,
            proto::RequestId request = proto::RequestId::none()) const;

  const NodeId self_;
  const LockId lock_;

  NodeId owner_;  ///< probable owner; none iff this node is the tree root
  NodeId next_;   ///< successor in the distributed FIFO list
  /// seq of the request that made next_ our successor; stamps the RequestId
  /// on the token hand-off so the transfer is attributable to that request.
  std::uint64_t next_req_seq_ = 0;
  bool has_token_ = false;
  bool in_cs_ = false;
  bool requesting_ = false;
  /// Starts at 1: seq 0 is the "unset" value in RequestIds (mirrors
  /// HierAutomaton's convention).
  std::uint64_t next_seq_ = 1;
  /// Recovery epoch (docs/recovery.md): stamped onto every outgoing
  /// message; mismatched incoming messages are dropped. Advanced only by
  /// install_fence().
  std::uint32_t recovery_epoch_ = 0;
};

}  // namespace hlock::naimi
