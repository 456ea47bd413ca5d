// Umbrella header: the public face of hlock.
//
// Pulls in everything an application needs to use the hierarchical
// multi-mode locking protocol — the threaded runtime with its guards, the
// simulation harness, the workload/benchmark layer and the diagnostics.
// Individual components remain directly includable for faster builds;
// this header is for exploratory and application code.
//
//   #include "hlock.hpp"
//
//   hlock::runtime::ThreadClusterOptions options;
//   options.node_count = 8;
//   hlock::runtime::ThreadCluster cluster{options};
//   hlock::runtime::LockGuard guard{cluster, hlock::proto::NodeId{0},
//                                   hlock::proto::LockId{0},
//                                   hlock::proto::LockMode::kR};
#pragma once

// Wire vocabulary and protocol engines.
#include "core/hier_automaton.hpp"   // IWYU pragma: export
#include "core/hier_config.hpp"      // IWYU pragma: export
#include "core/mode_tables.hpp"      // IWYU pragma: export
#include "naimi/naimi_automaton.hpp" // IWYU pragma: export
#include "proto/codec.hpp"           // IWYU pragma: export
#include "raymond/raymond_automaton.hpp" // IWYU pragma: export
#include "proto/ids.hpp"             // IWYU pragma: export
#include "proto/lock_mode.hpp"       // IWYU pragma: export
#include "proto/message.hpp"         // IWYU pragma: export

// Runtimes and transports.
#include "runtime/engine.hpp"           // IWYU pragma: export
#include "runtime/invariants.hpp"       // IWYU pragma: export
#include "runtime/lock_guard.hpp"       // IWYU pragma: export
#include "runtime/multi_guard.hpp"      // IWYU pragma: export
#include "runtime/sim_cluster.hpp"      // IWYU pragma: export
#include "runtime/thread_cluster.hpp"   // IWYU pragma: export
#include "transport/inproc_transport.hpp" // IWYU pragma: export
#include "transport/tcp_transport.hpp"  // IWYU pragma: export

// Simulation, workload, analysis and diagnostics.
#include "analysis/response_model.hpp" // IWYU pragma: export
#include "sim/network_model.hpp"       // IWYU pragma: export
#include "sim/simulator.hpp"           // IWYU pragma: export
#include "stats/histogram.hpp"         // IWYU pragma: export
#include "stats/metrics.hpp"           // IWYU pragma: export
#include "stats/summary.hpp"           // IWYU pragma: export
#include "stats/table.hpp"             // IWYU pragma: export
#include "trace/recorder.hpp"          // IWYU pragma: export
#include "workload/mode_mix.hpp"       // IWYU pragma: export
#include "workload/op_plan.hpp"        // IWYU pragma: export
#include "workload/sim_driver.hpp"     // IWYU pragma: export
