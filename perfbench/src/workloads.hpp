// The benchmark's workloads. Each fills `report` with its end-to-end
// metrics (options.trace false) or its per-layer metrics (options.trace
// true) and records every correctness violation it sees.
#pragma once

#include "common.hpp"

namespace perfbench {

/// sim-airline: the paper's §4.1 airline workload on a 64-node SimCluster.
void run_sim_airline(const RunOptions& options, Report& report);

/// inproc-airline and tcp-ring: three ThreadCluster nodes with one client
/// thread each.
void run_threaded(const RunOptions& options, Report& report);

/// Client threads a threaded workload runs.
inline constexpr int kThreadedClients = 3;

}  // namespace perfbench
