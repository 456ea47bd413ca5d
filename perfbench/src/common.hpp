// Shared pieces of the lock benchmark: clocks and process probes, order
// statistics, the two access patterns every driver replays, the holder
// table that checks mutual exclusion on every grant, and the run report.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "proto/ids.hpp"
#include "proto/lock_mode.hpp"
#include "util/rng.hpp"
#include "workload/op_plan.hpp"

namespace perfbench {

using hlock::Rng;
using hlock::proto::LockId;
using hlock::proto::LockMode;
using hlock::proto::NodeId;
using hlock::workload::LockStep;

// ---- Clocks and process probes ----

/// Steady-clock nanoseconds since the first call in the process.
std::int64_t now_ns();

/// CPU time consumed so far by every thread of the process (ns).
std::int64_t process_cpu_ns();

/// Threads of this process (the entries of /proc/self/task).
int thread_count();

/// CPUs the process may run on.
int allowed_cpu_count();

/// Moves the calling thread over the CPUs it may run on, one per call to
/// pin(), so a single-threaded measurement samples every CPU instead of
/// the one the scheduler happened to pick (a co-tenant on a sibling
/// hardware thread slows one CPU for long stretches). unpin(), or the
/// destructor, restores the original mask.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation() { unpin(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the thread to the (turn mod n)-th allowed CPU.
  void pin(std::size_t turn);
  void unpin();

 private:
  std::vector<int> cpus_;
  bool pinned_ = false;
};

inline NodeId node_id(std::size_t index) {
  return NodeId{static_cast<std::uint32_t>(index)};
}

// ---- Order statistics ----

/// The q-quantile (0 <= q <= 1) of `values` by nearest rank; 0 when empty.
double quantile(std::vector<double> values, double q);

/// The median (mean of the two middle values for an even count); 0 when
/// empty.
double median(std::vector<double> values);

// ---- Access patterns ----

/// The two lock-access patterns the drivers replay.
enum class Pattern {
  /// The paper's §4.1 airline application: one table lock plus
  /// kAirlineEntries entry locks under the 80/10/4/5/1 IR/R/U/IW/W mix.
  kAirline,
  /// The turn-ordered ring: as many W-mode locks as nodes. At step k node
  /// i takes lock (i + k) mod n, and only once the previous node in that
  /// lock's turn order has been granted it, so every acquisition is one
  /// token transfer.
  kRing,
};

inline constexpr std::size_t kAirlineEntries = 6;

/// Locks a pattern touches on a cluster of `nodes` nodes.
std::size_t lock_count(Pattern pattern, std::size_t nodes);

/// The airline operation stream of `node`: the same operations in every
/// driver for one seed.
Rng airline_rng(std::uint64_t seed, std::size_t node);

/// Draws the lock plan of one airline operation.
std::vector<LockStep> draw_airline_op(Rng& rng);

/// The lock `node` takes at ring step `step` on `nodes` nodes.
inline LockId ring_lock(std::size_t node, std::uint64_t step,
                        std::size_t nodes) {
  return LockId{static_cast<std::uint32_t>((node + step) % nodes)};
}

// ---- Mutual exclusion check ----

/// The current holders of every lock. Each recorded grant is checked with
/// core::incompatible against the other holders; a conflict, a second
/// hold by the same node, or a release of a lock not held counts as a
/// violation. Thread-safe (one mutex per lock).
class HolderTable {
 public:
  explicit HolderTable(std::size_t locks);

  void acquire(NodeId node, LockId lock, LockMode mode);
  /// `node`'s U hold on `lock` became W.
  void upgrade(NodeId node, LockId lock);
  void release(NodeId node, LockId lock);

  std::uint64_t violations() const { return violations_.load(); }
  /// The first violation seen ("" when none).
  std::string first_violation() const;

 private:
  struct Slot {
    std::mutex mutex;
    std::vector<std::pair<NodeId, LockMode>> holders;
  };
  Slot* slot(LockId lock);
  void violate(const std::string& what);

  std::vector<std::unique_ptr<Slot>> slots_;
  std::atomic<std::uint64_t> violations_{0};
  mutable std::mutex first_mutex_;
  std::string first_;
};

// ---- Run parameters and report ----

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-check size: small clusters and short phases, every check on.
  bool small = false;
};

/// What one run measured and every correctness violation it saw.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Records a correctness violation; the run then reports correct=false.
  void fail(const std::string& why);
  /// Adds acquisitions attempted and failed (missed the deadline or hit a
  /// receiver error).
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  std::uint64_t attempted() const { return attempted_; }
  bool correct() const { return problems_.empty() && failed_ == 0; }

  /// Prints one line per metric and per violation, then the result object
  /// as the last line of standard output.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> problems_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
