#include "naimi/naimi_automaton.hpp"

#include <sstream>

#include "util/check.hpp"

namespace hlock::naimi {

using proto::Message;
using proto::NaimiRequest;
using proto::NaimiToken;
using proto::Payload;

NaimiAutomaton::NaimiAutomaton(NodeId self, LockId lock, bool initially_token,
                               NodeId initial_owner,
                               std::uint32_t initial_epoch)
    : self_(self), lock_(lock), owner_(initial_owner),
      next_(NodeId::none()), has_token_(initially_token),
      recovery_epoch_(initial_epoch) {
  if (initially_token) {
    HLOCK_REQUIRE(initial_owner.is_none(),
                  "the initial token node must be the tree root");
  } else {
    HLOCK_REQUIRE(!initial_owner.is_none() && initial_owner != self,
                  "non-token nodes need a probable owner other than self");
  }
}

Effects NaimiAutomaton::request() {
  HLOCK_REQUIRE(!in_cs_, "node is already inside the critical section");
  HLOCK_REQUIRE(!requesting_, "a request is already outstanding");
  Effects fx;
  if (owner_.is_none()) {
    // We are the root: the token is here and idle (if it were in use or
    // promised, a previous request would have re-rooted the tree away).
    HLOCK_INVARIANT(has_token_, "tree root without the token");
    in_cs_ = true;
    fx.entered_cs = true;
    return fx;
  }
  requesting_ = true;
  const std::uint64_t seq = next_seq_++;
  send(owner_, NaimiRequest{self_, seq}, fx, proto::RequestId{self_, seq});
  // Path reversal: we are the new last requester, hence the new root.
  owner_ = NodeId::none();
  return fx;
}

Effects NaimiAutomaton::release() {
  HLOCK_REQUIRE(in_cs_, "release without holding the lock");
  Effects fx;
  in_cs_ = false;
  if (!next_.is_none()) {
    has_token_ = false;
    send(next_, NaimiToken{}, fx, proto::RequestId{next_, next_req_seq_});
    next_ = NodeId::none();
    next_req_seq_ = 0;
  }
  return fx;
}

Effects NaimiAutomaton::on_message(const Message& message) {
  HLOCK_REQUIRE(message.to == self_, "message delivered to the wrong node");
  HLOCK_REQUIRE(message.lock == lock_,
                "message delivered to the wrong lock instance");
  Effects fx;
  if (message.epoch != recovery_epoch_) {
    // Stale-drop rule (docs/recovery.md): see HierAutomaton::on_message.
    fx.stale_drop = true;
    return fx;
  }
  if (const auto* request = std::get_if<NaimiRequest>(&message.payload)) {
    handle_request(*request, fx);
  } else if (std::get_if<NaimiToken>(&message.payload)) {
    handle_token(fx);
  } else {
    HLOCK_INVARIANT(false,
                    "non-Naimi payload delivered to a NaimiAutomaton");
  }
  return fx;
}

proto::ElectToken NaimiAutomaton::recovery_report() const {
  proto::ElectToken report;
  report.epoch = recovery_epoch_;
  report.has_token = has_token_;
  report.held = in_cs_ ? proto::LockMode::kW : proto::LockMode::kNL;
  report.waiting = requesting_;
  if (report.waiting) {
    report.wait_mode = proto::LockMode::kW;
    report.wait_seq = pending_seq();
  }
  return report;
}

Effects NaimiAutomaton::install_fence(const proto::EpochFence& fence) {
  Effects fx;
  if (fence.epoch <= recovery_epoch_) return fx;  // duplicate/stale fence
  recovery_epoch_ = fence.epoch;

  // The coordinator includes the new root's own waiting entry in the queue
  // (the hierarchical protocol serves it through its mode-aware queue);
  // here the root is served by seating the token directly, so every node
  // drops root entries before threading the FIFO list. All nodes filter
  // identically, so the resulting chain is consistent cluster-wide.
  std::vector<proto::QueuedRequest> queue;
  queue.reserve(fence.queue.size());
  for (const proto::QueuedRequest& entry : fence.queue) {
    if (entry.requester != fence.new_root) queue.push_back(entry);
  }

  // Rebuild the two distributed structures from scratch: the FIFO list
  // becomes new_root -> queue[0] -> ... -> queue[k-1], and the probable-
  // owner tree becomes a star around the list's tail (the logical "last
  // requester"). Pre-crash next pointers and owner links are discarded —
  // every surviving waiter reported its request and appears in the queue.
  next_ = NodeId::none();
  next_req_seq_ = 0;
  const NodeId tail =
      queue.empty() ? fence.new_root : queue.back().requester;
  owner_ = tail == self_ ? NodeId::none() : tail;

  if (self_ == fence.new_root) {
    has_token_ = true;
    if (requesting_) {
      // We were waiting when the holder crashed; the regenerated token
      // seats here first, so our own request is served on the spot.
      requesting_ = false;
      in_cs_ = true;
      fx.entered_cs = true;
    }
    if (!queue.empty()) {
      const proto::QueuedRequest& first = queue.front();
      if (in_cs_) {
        next_ = first.requester;
        next_req_seq_ = first.seq;
      } else {
        // Idle root: hand the regenerated token straight to the first
        // surviving waiter.
        has_token_ = false;
        send(first.requester, NaimiToken{}, fx,
             proto::RequestId{first.requester, first.seq});
      }
    }
    return fx;
  }

  // Demoting has_token_ below only happens when this node was fenced out
  // while believing it held the token (false suspicion or a doctored double
  // fence); it must stop arbitrating either way.
  has_token_ = false;
  in_cs_ = false;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    if (queue[i].requester != self_) continue;
    HLOCK_INVARIANT(requesting_,
                    "fence queued this node without an outstanding request");
    if (i + 1 < queue.size()) {
      next_ = queue[i + 1].requester;
      next_req_seq_ = queue[i + 1].seq;
    }
    break;
  }
  return fx;
}

void NaimiAutomaton::handle_request(const NaimiRequest& request, Effects& fx) {
  HLOCK_INVARIANT(request.requester != self_,
                  "a node's own request was routed back to it");
  if (owner_.is_none()) {
    // We are the root: the requester queues behind us — either it gets the
    // idle token immediately, or it becomes our successor.
    if (has_token_ && !in_cs_ && !requesting_) {
      has_token_ = false;
      send(request.requester, NaimiToken{}, fx,
           proto::RequestId{request.requester, request.seq});
    } else {
      HLOCK_INVARIANT(next_.is_none(),
                      "root already promised the token to a successor");
      next_ = request.requester;
      next_req_seq_ = request.seq;
    }
  } else {
    // Not the root: relay toward the probable owner.
    send(owner_, request, fx,
         proto::RequestId{request.requester, request.seq});
  }
  // Path reversal: the requester is the last requester we know of, so it
  // becomes our probable owner — this is what compresses future paths.
  owner_ = NodeId{request.requester};
}

void NaimiAutomaton::handle_token(Effects& fx) {
  HLOCK_INVARIANT(requesting_, "token arrived without an outstanding request");
  HLOCK_INVARIANT(!has_token_, "token arrived at the current token holder");
  has_token_ = true;
  requesting_ = false;
  in_cs_ = true;
  fx.entered_cs = true;
}

void NaimiAutomaton::send(NodeId to, Payload payload, Effects& fx,
                          proto::RequestId request) const {
  HLOCK_INVARIANT(!to.is_none(), "attempted to send to the null node");
  Message message{self_, to, lock_, std::move(payload)};
  message.request = request;
  message.epoch = recovery_epoch_;
  fx.messages.push_back(std::move(message));
}

std::string NaimiAutomaton::fingerprint() const {
  std::ostringstream os;
  os << owner_.value() << '/' << next_.value() << '/'
     << (has_token_ ? 'T' : 't') << (in_cs_ ? 'C' : 'c')
     << (requesting_ ? 'R' : 'r') << next_seq_ << 'n' << next_req_seq_
     << 'E' << recovery_epoch_;
  return os.str();
}

std::string NaimiAutomaton::describe() const {
  std::ostringstream os;
  os << to_string(self_) << " owner=" << to_string(owner_)
     << " next=" << to_string(next_) << " token=" << (has_token_ ? 1 : 0)
     << " cs=" << (in_cs_ ? 1 : 0) << " req=" << (requesting_ ? 1 : 0)
     << " epoch=" << recovery_epoch_;
  return os.str();
}

}  // namespace hlock::naimi
