// A closed-loop driver for the simulated cluster (runtime::SimCluster) on
// one OS thread. It replays the airline or the ring pattern under the
// paper's §4.1 timing (15 ms critical sections, 150 ms idle times between
// airline operations, both uniform ±50%; Linux-cluster latency preset),
// checks every grant against a holder table, and records the simulated
// latency of every acquisition (request() to grant) and the wall time of
// every request()/upgrade() call the driver makes into the cluster.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "proto/message.hpp"
#include "runtime/sim_cluster.hpp"

namespace perfbench {

struct SimConfig {
  Pattern pattern = Pattern::kAirline;
  std::size_t nodes = 64;
  /// Airline: operations per node. Ring: steps (one acquisition per node
  /// and step).
  std::uint64_t ops = 100;
  std::uint64_t seed = 1;
  /// HierConfig::path_compression; off is the paper's literal Table 1(c).
  bool path_compression = true;
  /// Traced pass: the automatons emit structured trace events (to the
  /// cluster's event observer) and every release() call is timed.
  bool traced = false;
};

/// What one simulated run produced.
struct SimResult {
  std::uint64_t acquisitions = 0;
  std::uint64_t messages = 0;
  std::array<std::uint64_t, hlock::proto::kMessageKindCount> by_kind{};
  std::uint64_t events = 0;
  /// Simulated request-to-grant latency of every acquisition (ms).
  std::vector<double> sim_latency_ms;
  /// Wall time of every request()/upgrade() call (µs).
  std::vector<double> call_us;
  /// Wall time of every release() call (µs; traced passes only).
  std::vector<double> release_us;
  /// Wall time of the whole event loop (s).
  double wall_s = 0;
  /// Operations (airline) or steps (ring) left unfinished at the end.
  std::uint64_t unfinished = 0;
  /// Why the run stopped early ("" when it ran to completion).
  std::string error;

  /// True when both runs did exactly the same protocol work: the same
  /// acquisitions, messages of each kind, simulator events and simulated
  /// latencies.
  bool same_work(const SimResult& other) const;
};

/// See file comment. A driver runs once.
class SimDriver {
 public:
  SimDriver(const SimConfig& config, HolderTable& holders);

  hlock::runtime::SimCluster& cluster() { return *cluster_; }

  SimResult run();

 private:
  struct Node {
    Rng ops_rng;
    Rng time_rng;
    std::uint64_t done = 0;  // operations or ring steps completed
    std::vector<LockStep> steps;
    std::size_t next = 0;  // index of the step being acquired
    hlock::SimTime step_start{};
    hlock::SimTime cs_left{};
    bool waiting = false;  // ring: blocked on its turn
  };

  void schedule_idle(std::size_t i);
  void begin_op(std::size_t i);
  void try_ring_step(std::size_t i);
  void issue(std::size_t i);
  void on_grant(NodeId node, LockId lock, bool upgraded);
  void enter_cs(std::size_t i);
  void start_upgrade(std::size_t i);
  void finish_cs(std::size_t i);

  const SimConfig config_;
  HolderTable& holders_;
  std::unique_ptr<hlock::runtime::SimCluster> cluster_;
  std::vector<Node> nodes_;
  /// Ring: grants of each lock so far (its turn counter).
  std::vector<std::uint64_t> grants_;
  SimResult result_;
};

/// Runs one pass with a fresh cluster and holder table; `prepare` may
/// install observers first. Reports an unfinished run or a mutual
/// exclusion violation to `report`, prefixed with `what`.
SimResult run_pass(const SimConfig& config, Report& report,
                   const std::string& what,
                   const std::function<void(SimDriver&)>& prepare = {});

/// A pass that also encodes every message it sends, counting wire bytes
/// and keeping the first messages as the proto layer's message mix.
struct Recording {
  SimResult result;
  std::uint64_t bytes = 0;
  std::vector<hlock::proto::Message> mix;
};
Recording record_pass(const SimConfig& config, Report& report,
                      const std::string& what);

}  // namespace perfbench
