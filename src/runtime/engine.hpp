// Per-node protocol engines.
//
// A LockEngine bundles all per-lock automatons of one node behind a
// protocol-agnostic interface, so cluster harnesses and workload drivers
// run identically over the hierarchical protocol and the Naimi baseline.
// Automatons are created lazily on first use of a lock id; every engine in
// a cluster must agree on the initial token holder (`initial_root`), which
// starts as the root of every lock's probable-owner tree (a star, as in the
// paper's "initially, the root is the token owner").
#pragma once

#include <memory>
#include <type_traits>
#include <unordered_map>
#include <variant>

#include "core/effects.hpp"
#include "core/hier_automaton.hpp"
#include "naimi/naimi_automaton.hpp"
#include "proto/ids.hpp"
#include "proto/message.hpp"
#include "raymond/raymond_automaton.hpp"
#include "recovery/host.hpp"

namespace hlock::runtime {

using core::Effects;
using proto::LockId;
using proto::LockMode;
using proto::NodeId;

/// Which protocol a cluster of engines runs.
enum class Protocol {
  kHierarchical,  ///< the paper's multi-mode protocol (src/core)
  kNaimi,         ///< the Naimi-Tréhel baseline (src/naimi)
  kRaymond,       ///< Raymond's static-tree baseline (src/raymond)
};

/// Returns "hierarchical", "naimi" or "raymond".
std::string to_string(Protocol protocol);

/// Protocol-agnostic face of one node: issue requests, releases, upgrades
/// and deliver incoming messages; every call returns the effects to apply.
///
/// Engines double as the recovery::Host of the node's recovery::Manager
/// (docs/recovery.md). The base implementations reject — a protocol
/// supports crash recovery only by overriding them (the hierarchical
/// protocol and the Naimi baseline do; Raymond's static tree cannot
/// re-root and does not).
class LockEngine : public recovery::Host {
 public:
  ~LockEngine() override = default;

  /// Requests `lock` in `mode` (mode and priority are ignored by mode-less
  /// protocols).
  virtual Effects request(LockId lock, LockMode mode,
                          std::uint8_t priority = 0) = 0;
  /// Releases the held lock.
  virtual Effects release(LockId lock) = 0;
  /// Upgrades U -> W (Rule 7); only meaningful for the hierarchical
  /// protocol — mode-less engines reject it.
  virtual Effects upgrade(LockId lock) = 0;
  /// Delivers one incoming message to the addressed lock's automaton.
  virtual Effects deliver(const proto::Message& message) = 0;
  /// True if this node currently holds `lock` (in any mode).
  virtual bool holds(LockId lock) const = 0;
  /// Requests queued locally at this node across all locks (telemetry;
  /// waiting lists threaded through remote nodes count at the node that
  /// queues them).
  virtual std::size_t queued_requests() const = 0;
  /// Locks whose token currently rests at this node (telemetry).
  virtual std::size_t tokens_held() const = 0;

  // ---- recovery::Host (overridden by recovery-capable protocols) ----
  std::vector<LockId> recovery_locks() override;
  recovery::LockReport report(LockId lock) override;
  Effects install_fence(LockId lock,
                        const proto::EpochFence& fence) override;
  std::uint32_t recovery_epoch(LockId lock) override;
  void set_default_origin(NodeId root, std::uint32_t epoch) override;
};

/// Engine of a protocol with crash recovery: one `Automaton` per lock id,
/// created on first use as a child of the cluster's initial root (or, after
/// a recovery, of the default origin the manager installed).
/// Instantiated as HierEngine and NaimiEngine below.
template <class Automaton>
class RecoverableEngine final : public LockEngine {
  static constexpr bool kHier = std::is_same_v<Automaton, core::HierAutomaton>;

 public:
  /// The automaton's feature flags: core::HierConfig for the hierarchical
  /// protocol, nothing for the Naimi baseline.
  using Config = std::conditional_t<kHier, core::HierConfig, std::monostate>;

  RecoverableEngine(NodeId self, NodeId initial_root, Config config = {});

  Effects request(LockId lock, LockMode mode,
                  std::uint8_t priority = 0) override;
  Effects release(LockId lock) override;
  Effects upgrade(LockId lock) override;
  Effects deliver(const proto::Message& message) override;
  bool holds(LockId lock) const override;
  std::size_t queued_requests() const override;
  std::size_t tokens_held() const override;

  std::vector<LockId> recovery_locks() override;
  recovery::LockReport report(LockId lock) override;
  Effects install_fence(LockId lock,
                        const proto::EpochFence& fence) override;
  std::uint32_t recovery_epoch(LockId lock) override;
  void set_default_origin(NodeId root, std::uint32_t epoch) override;

  /// Direct access for invariant checks and tests; creates the automaton
  /// if this node has not touched the lock yet.
  Automaton& automaton(LockId lock);

 private:
  const NodeId self_;
  /// Root/epoch of lazily created automatons; rebased by
  /// set_default_origin() after a crash recovery.
  NodeId initial_root_;
  std::uint32_t initial_epoch_ = 0;
  const Config config_;
  std::unordered_map<LockId, Automaton> automatons_;
};

/// Engine running the paper's hierarchical multi-mode protocol.
using HierEngine = RecoverableEngine<core::HierAutomaton>;
/// Engine running the Naimi-Tréhel baseline (single exclusive mode).
using NaimiEngine = RecoverableEngine<naimi::NaimiAutomaton>;
extern template class RecoverableEngine<core::HierAutomaton>;
extern template class RecoverableEngine<naimi::NaimiAutomaton>;

/// Engine running Raymond's static-tree baseline on a balanced binary
/// tree rooted at node 0 (the initial token holder of every lock).
class RaymondEngine final : public LockEngine {
 public:
  RaymondEngine(NodeId self, std::size_t node_count);

  Effects request(LockId lock, LockMode mode,
                  std::uint8_t priority = 0) override;
  Effects release(LockId lock) override;
  Effects upgrade(LockId lock) override;
  Effects deliver(const proto::Message& message) override;
  bool holds(LockId lock) const override;
  std::size_t queued_requests() const override;
  std::size_t tokens_held() const override;

  /// Direct access for invariant checks and tests.
  raymond::RaymondAutomaton& automaton(LockId lock);

 private:
  const NodeId self_;
  raymond::TreeNode position_;  // this node's place in the static tree
  std::unordered_map<LockId, raymond::RaymondAutomaton> automatons_;
};

/// The engine of node `self` running `protocol` in a `node_count`-node
/// cluster whose tokens all start at `initial_root` (Raymond's tree is
/// always rooted at node 0). `hier_config` applies to the hierarchical
/// protocol only.
std::unique_ptr<LockEngine> make_engine(Protocol protocol, NodeId self,
                                        std::size_t node_count,
                                        NodeId initial_root,
                                        const core::HierConfig& hier_config);

}  // namespace hlock::runtime
