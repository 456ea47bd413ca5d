// Lockdep-style lock-order recorder over the SyncObserver hook.
//
// Records the global lock acquisition-order graph at runtime: whenever a
// thread acquires lock class B while holding lock class A, the edge A -> B
// is added (with the acquisition stack captured the first time the edge
// appears). A cycle in this graph is a *potential* deadlock — two code
// paths that take the same locks in opposite orders — and is reported the
// moment the closing edge is recorded, with the stacks of both directions,
// even when no deadlock manifests in the run. This is the runtime
// complement of the compile-time capability annotations (HLOCK_EXCLUDES
// documents intent; lockdep checks what actually happens) and of TSan
// (which needs the deadlock-prone interleaving to actually occur).
//
// Lock *classes*: locks are keyed by construction site (or explicit name),
// not by instance — see hlock::Mutex's constructor. All eight Shard::mutex
// instances of a node are one class, so an ordering observed on shard 3
// constrains shard 5 too.
//
// Enabled by default in every test binary (tests/support/sched_env.cpp)
// and in the debug builds of the tools; see docs/sched.md and the lock
// hierarchy it documents in docs/static-analysis.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/sync_observer.hpp"

namespace hlock::sched {

/// One potential deadlock: the cycle of lock classes plus the acquisition
/// stacks of the two edges that close it.
struct LockdepReport {
  /// Human-readable class names along the cycle, first repeated last:
  /// "A -> B -> A".
  std::vector<std::string> cycle;
  /// Symbolized stack of the edge recorded earlier (the A-then-B path).
  std::string forward_stack;
  /// Symbolized stack of the acquisition that closed the cycle (the
  /// B-then-A path).
  std::string inverse_stack;
  /// Rendered one-blob report (what the default callback prints).
  std::string render() const;
};

/// See file comment.
class Lockdep : public SyncObserver {
 public:
  /// `on_report` receives every detected inversion; the default prints the
  /// report to stderr. Reports are also counted and kept (capped) for
  /// programmatic inspection either way.
  explicit Lockdep(std::function<void(const LockdepReport&)> on_report = {});
  ~Lockdep() override;

  // SyncObserver:
  void acquiring(const SyncId& id) override;
  void acquired(const SyncId& id) override;
  void released(const SyncId& id) override;

  /// Inversions detected so far.
  std::size_t violation_count() const;
  /// The first few reports (bounded; one per distinct closing edge).
  std::vector<LockdepReport> reports() const;

  /// Forgets all edges and reports (not the per-thread held stacks, which
  /// empty themselves as locks are released).
  void reset();

 private:
  struct ClassInfo;
  struct Edge;

  /// Interns the lock class of `id` (site / name keyed). Steady state is
  /// a pointer-keyed map lookup with no allocation — the string class key
  /// is only built the first time a site is seen (the mailbox allocation
  /// tests run with lockdep installed and count every operator new).
  std::size_t class_of(const SyncId& id);
  /// True if `to` can reach `from` over recorded edges (cycle check for a
  /// prospective from -> to edge).
  bool reaches(std::size_t to, std::size_t from) const;

  mutable std::mutex mu_;  // raw std::mutex: hlock::Mutex would recurse
  std::vector<ClassInfo> classes_;
  std::map<std::string, std::size_t> class_index_;
  /// Allocation-free fast path for class_of: (file-or-name literal, line)
  /// -> class. Distinct literal pointers for the same site (separate TUs)
  /// get separate entries but dedupe onto one class via class_index_.
  std::map<std::pair<const void*, unsigned>, std::size_t> site_index_;
  std::map<std::pair<std::size_t, std::size_t>, Edge> edges_;
  std::vector<LockdepReport> reports_;
  std::size_t violations_ = 0;
  std::function<void(const LockdepReport&)> on_report_;
};

/// Installs a process-lifetime Lockdep as the global observer (idempotent;
/// no-op if any observer is already installed). Used by the test
/// environment and the debug builds of the tools. Returns the instance, or
/// nullptr if another observer was already installed.
Lockdep* install_global_lockdep();

}  // namespace hlock::sched
