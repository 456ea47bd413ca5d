#include "runtime/engine.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace hlock::runtime {

std::vector<LockId> LockEngine::recovery_locks() {
  throw UsageError("this protocol has no crash-recovery support");
}

recovery::LockReport LockEngine::report(LockId /*lock*/) {
  throw UsageError("this protocol has no crash-recovery support");
}

Effects LockEngine::install_fence(LockId /*lock*/,
                                  const proto::EpochFence& /*fence*/) {
  throw UsageError("this protocol has no crash-recovery support");
}

std::uint32_t LockEngine::recovery_epoch(LockId /*lock*/) {
  throw UsageError("this protocol has no crash-recovery support");
}

void LockEngine::set_default_origin(NodeId /*root*/, std::uint32_t /*epoch*/) {
  throw UsageError("this protocol has no crash-recovery support");
}

std::string to_string(Protocol protocol) {
  switch (protocol) {
    case Protocol::kHierarchical:
      return "hierarchical";
    case Protocol::kNaimi:
      return "naimi";
    case Protocol::kRaymond:
      return "raymond";
  }
  return "?";
}

std::unique_ptr<LockEngine> make_engine(Protocol protocol, NodeId self,
                                        std::size_t node_count,
                                        NodeId initial_root,
                                        const core::HierConfig& hier_config) {
  switch (protocol) {
    case Protocol::kHierarchical:
      return std::make_unique<HierEngine>(self, initial_root, hier_config);
    case Protocol::kNaimi:
      return std::make_unique<NaimiEngine>(self, initial_root);
    case Protocol::kRaymond:
      HLOCK_REQUIRE(initial_root == NodeId{0},
                    "the Raymond tree is rooted at node 0");
      return std::make_unique<RaymondEngine>(self, node_count);
  }
  throw UsageError("unknown protocol");
}

template <class Automaton>
RecoverableEngine<Automaton>::RecoverableEngine(NodeId self,
                                                NodeId initial_root,
                                                Config config)
    : self_(self), initial_root_(initial_root), config_(config) {
  HLOCK_REQUIRE(!initial_root.is_none(), "a cluster needs an initial root");
}

template <class Automaton>
Automaton& RecoverableEngine<Automaton>::automaton(LockId lock) {
  // Single hash lookup on the hot path: try_emplace forwards the
  // constructor arguments and only builds the automaton when the lock is
  // new.
  const bool is_root = self_ == initial_root_;
  const NodeId parent = is_root ? NodeId::none() : initial_root_;
  if constexpr (kHier) {
    return automatons_
        .try_emplace(lock, self_, lock, is_root, parent, config_,
                     initial_epoch_)
        .first->second;
  } else {
    return automatons_
        .try_emplace(lock, self_, lock, is_root, parent, initial_epoch_)
        .first->second;
  }
}

template <class Automaton>
Effects RecoverableEngine<Automaton>::request(LockId lock, LockMode mode,
                                              std::uint8_t priority) {
  if constexpr (kHier) {
    return automaton(lock).request(mode, priority);
  } else {
    return automaton(lock).request();
  }
}

template <class Automaton>
Effects RecoverableEngine<Automaton>::release(LockId lock) {
  return automaton(lock).release();
}

template <class Automaton>
Effects RecoverableEngine<Automaton>::upgrade(LockId lock) {
  if constexpr (kHier) {
    return automaton(lock).upgrade();
  } else {
    throw UsageError("the Naimi baseline has no upgrade operation");
  }
}

template <class Automaton>
Effects RecoverableEngine<Automaton>::deliver(const proto::Message& message) {
  return automaton(message.lock).on_message(message);
}

template <class Automaton>
bool RecoverableEngine<Automaton>::holds(LockId lock) const {
  auto it = automatons_.find(lock);
  if (it == automatons_.end()) return false;
  if constexpr (kHier) {
    return it->second.held() != proto::LockMode::kNL;
  } else {
    return it->second.in_cs();
  }
}

template <class Automaton>
std::size_t RecoverableEngine<Automaton>::queued_requests() const {
  std::size_t total = 0;
  for (const auto& [lock, automaton] : automatons_) {
    if constexpr (kHier) {
      total += automaton.queue().size();
    } else {
      // Naimi's waiting list is distributed: each node knows only its own
      // successor, so "queued here" = a non-none next pointer.
      total += automaton.next().is_none() ? 0u : 1u;
    }
  }
  return total;
}

template <class Automaton>
std::size_t RecoverableEngine<Automaton>::tokens_held() const {
  std::size_t total = 0;
  for (const auto& [lock, automaton] : automatons_) {
    if constexpr (kHier) {
      total += automaton.is_token() ? 1u : 0u;
    } else {
      total += automaton.has_token() ? 1u : 0u;
    }
  }
  return total;
}

template <class Automaton>
std::vector<LockId> RecoverableEngine<Automaton>::recovery_locks() {
  std::vector<LockId> locks;
  locks.reserve(automatons_.size());
  for (const auto& [lock, automaton] : automatons_) locks.push_back(lock);
  std::sort(locks.begin(), locks.end());
  return locks;
}

template <class Automaton>
recovery::LockReport RecoverableEngine<Automaton>::report(LockId lock) {
  return automaton(lock).recovery_report();
}

template <class Automaton>
Effects RecoverableEngine<Automaton>::install_fence(
    LockId lock, const proto::EpochFence& fence) {
  return automaton(lock).install_fence(fence);
}

template <class Automaton>
std::uint32_t RecoverableEngine<Automaton>::recovery_epoch(LockId lock) {
  // A lock this node has not touched would be lazily created at
  // initial_epoch_, so that is its effective epoch: reporting 0 here would
  // make the newer-epoch gate park the first post-recovery message for the
  // lock forever (the node is not halted, so parked messages are never
  // replayed).
  auto it = automatons_.find(lock);
  return it == automatons_.end() ? initial_epoch_
                                 : it->second.recovery_epoch();
}

template <class Automaton>
void RecoverableEngine<Automaton>::set_default_origin(NodeId root,
                                                      std::uint32_t epoch) {
  initial_root_ = root;
  initial_epoch_ = epoch;
}

template class RecoverableEngine<core::HierAutomaton>;
template class RecoverableEngine<naimi::NaimiAutomaton>;

RaymondEngine::RaymondEngine(NodeId self, std::size_t node_count)
    : self_(self) {
  HLOCK_REQUIRE(self.value() < node_count, "self must be within the tree");
  position_ = raymond::balanced_tree(node_count)[self.value()];
  // Non-root holders point toward node 0; the root holds the token.
  if (self.value() == 0) position_.holder = self;
}

raymond::RaymondAutomaton& RaymondEngine::automaton(LockId lock) {
  // Single hash lookup on the hot path (see RecoverableEngine::automaton).
  return automatons_
      .try_emplace(lock, self_, lock, position_.holder, position_.neighbors)
      .first->second;
}

Effects RaymondEngine::request(LockId lock, LockMode /*mode*/,
                               std::uint8_t /*priority*/) {
  return automaton(lock).request();
}

Effects RaymondEngine::release(LockId lock) {
  return automaton(lock).release();
}

Effects RaymondEngine::upgrade(LockId /*lock*/) {
  throw UsageError("Raymond's baseline has no upgrade operation");
}

Effects RaymondEngine::deliver(const proto::Message& message) {
  return automaton(message.lock).on_message(message);
}

bool RaymondEngine::holds(LockId lock) const {
  auto it = automatons_.find(lock);
  return it != automatons_.end() && it->second.in_cs();
}

std::size_t RaymondEngine::queued_requests() const {
  std::size_t total = 0;
  for (const auto& [lock, automaton] : automatons_) {
    total += automaton.request_queue().size();
  }
  return total;
}

std::size_t RaymondEngine::tokens_held() const {
  std::size_t total = 0;
  for (const auto& [lock, automaton] : automatons_) {
    total += automaton.has_token() ? 1u : 0u;
  }
  return total;
}

}  // namespace hlock::runtime
