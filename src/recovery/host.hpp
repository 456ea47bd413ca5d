// Engine-side interface of the crash-recovery layer.
//
// The recovery::Manager is protocol-agnostic: it gathers per-lock state
// reports, elects a new token root and broadcasts epoch fences without
// knowing whether the node runs the hierarchical protocol or the Naimi
// baseline. Everything protocol-specific happens behind this Host
// interface, implemented by the runtime around HierEngine / NaimiEngine
// (Raymond's static-tree baseline has no recovery story and rejects it).
// See docs/recovery.md for the full walkthrough.
#pragma once

#include <cstdint>
#include <vector>

#include "core/effects.hpp"
#include "proto/ids.hpp"
#include "proto/message.hpp"

namespace hlock::recovery {

using proto::LockId;
using proto::NodeId;

/// One lock's state as reported to the recovery coordinator: the per-lock
/// fields of the ElectToken the manager sends. Hosts fill the state fields
/// (each automaton's recovery_report()); the manager stamps the campaign
/// fields (`dead`, `lock_count`, `lock_index`). The reporting node has
/// halted protocol processing, so a report accounts for every old-epoch
/// message its node will ever act on; the coordinator reconstructs the
/// lock's global state purely from these reports.
using LockReport = proto::ElectToken;

/// What the Manager needs from the node's protocol engine. All calls are
/// made under whatever serialization the runtime already provides for the
/// engine (managers never synchronize themselves).
class Host {
 public:
  virtual ~Host() = default;

  /// Lock ids this node holds protocol state for, in ascending id order
  /// (determinism: report message sequences must be identical across runs).
  virtual std::vector<LockId> recovery_locks() = 0;

  /// This node's report for `lock`.
  virtual LockReport report(LockId lock) = 0;

  /// Applies a fence to `lock`'s automaton (creating it if this node never
  /// touched the lock); returns the automaton's effects, which the runtime
  /// applies exactly like any protocol step.
  virtual core::Effects install_fence(LockId lock,
                                      const proto::EpochFence& fence) = 0;

  /// `lock`'s current recovery epoch — for a lock this node has not
  /// touched, the epoch its lazily created automaton would start in (see
  /// set_default_origin). The receive-side gate (Manager::route) compares
  /// it with each incoming message's: older epoch = stale drop, newer epoch
  /// = park until the local fence arrives.
  virtual std::uint32_t recovery_epoch(LockId lock) = 0;

  /// Sets the origin for locks first touched after a recovery: their lazily
  /// created automatons root at `root` and start in `epoch` (the pre-crash
  /// default root may be dead).
  virtual void set_default_origin(NodeId root, std::uint32_t epoch) = 0;
};

}  // namespace hlock::recovery
