// Batching transparency: each node's receiver drains every matured message
// in one transport call and dispatches same-shard runs under one shard
// lock, and none of that may be visible above the runtime. These tests run
// a multi-lock workload whose requests are known in advance and assert
// that the observability stack sees exactly those requests — the spec
// linter accepts the event stream and the span collector holds one
// completed span per issued request.
//
// Real-thread runs are not event-order deterministic, so the comparison is
// structural: which spans exist and that they all complete, not the order
// in which they ran.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <tuple>
#include <vector>

#include "lint/checker.hpp"
#include "obs/span.hpp"
#include "runtime/thread_cluster.hpp"

namespace hlock::runtime {
namespace {

using proto::LockId;
using proto::LockMode;
using proto::NodeId;

constexpr std::size_t kNodes = 4;
constexpr int kOpsPerNode = 12;
constexpr std::uint32_t kLocks = 3;

/// Node i's k-th operation walks the locks in a per-node stagger so
/// requests contend across nodes, alternating W/R so grants and tokens
/// both flow.
LockId op_lock(std::uint32_t node, int k) {
  return LockId{(node + static_cast<std::uint32_t>(k)) % kLocks};
}
LockMode op_mode(int k) { return k % 2 == 0 ? LockMode::kW : LockMode::kR; }

/// What a span looks like to an application: which request, for which lock,
/// in which mode, and whether it ran to completion. Timing and
/// interleaving, which differ from run to run, are excluded on purpose.
using SpanShape =
    std::tuple<std::uint32_t, std::uint32_t, std::uint64_t, int, bool>;

std::vector<SpanShape> span_shapes(const obs::SpanCollector& collector) {
  std::vector<SpanShape> shapes;
  for (const obs::RequestSpan& span : collector.spans()) {
    shapes.emplace_back(span.lock.value(), span.id.origin.value(),
                        span.id.seq, static_cast<int>(span.mode),
                        span.complete());
  }
  std::sort(shapes.begin(), shapes.end());
  return shapes;
}

/// The spans the workload issues, all complete. A request's seq is one
/// more than the number of its node's earlier requests on the same lock.
std::vector<SpanShape> issued_spans() {
  std::vector<SpanShape> shapes;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    std::vector<std::uint64_t> requests(kLocks, 0);
    for (int k = 0; k < kOpsPerNode; ++k) {
      const LockId lock = op_lock(i, k);
      shapes.emplace_back(lock.value(), i, ++requests[lock.value()],
                          static_cast<int>(op_mode(k)), true);
    }
  }
  std::sort(shapes.begin(), shapes.end());
  return shapes;
}

TEST(BatchingTransparency, LintCleanAndSpansMatchTheIssuedRequests) {
  ThreadClusterOptions options;
  options.node_count = kNodes;
  options.protocol = Protocol::kHierarchical;
  options.hier_config.trace_events = true;
  options.seed = 99;

  lint::LintOptions lint_options;
  lint_options.initial_token = ThreadCluster::kInitialRoot;
  lint::Checker checker{lint_options};
  obs::SpanCollector collector;
  {
    ThreadCluster cluster{options};
    cluster.set_event_sink([&](const trace::TraceEvent& event) {
      checker.add(event);
      collector.observe(event);
    });
    std::vector<std::thread> workers;
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      workers.emplace_back([&cluster, i] {
        for (int k = 0; k < kOpsPerNode; ++k) {
          cluster.lock(NodeId{i}, op_lock(i, k), op_mode(k));
          std::this_thread::yield();
          cluster.unlock(NodeId{i}, op_lock(i, k));
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    EXPECT_EQ(cluster.receiver_errors(), 0u);
    // Teardown joins the receivers; no event is in flight past this scope.
  }
  const lint::LintReport report = checker.finish();
  EXPECT_TRUE(report.ok()) << report.render();
  EXPECT_GT(report.events_checked, 0u);
  EXPECT_EQ(span_shapes(collector), issued_spans())
      << "the span collector did not see exactly the issued requests";
}

TEST(BatchingTransparency, HoldsUnderInjectedFaults) {
  // The acceptance bar: batching stays invisible even while the fault
  // layer drops and delays wire frames underneath it.
  ThreadClusterOptions options;
  options.node_count = kNodes;
  options.protocol = Protocol::kHierarchical;
  options.hier_config.trace_events = true;
  options.seed = 7;
  options.faults.seed = 7;
  options.faults.drop_probability = 0.08;
  options.faults.retransmit_delay = SimTime::ms(1);
  options.faults.delay_probability = 0.1;
  options.faults.delay = DurationDist::uniform(SimTime::ms(1), 0.5);

  lint::LintOptions lint_options;
  lint_options.initial_token = ThreadCluster::kInitialRoot;
  lint::Checker checker{lint_options};
  obs::SpanCollector collector;
  {
    ThreadCluster cluster{options};
    cluster.set_event_sink([&](const trace::TraceEvent& event) {
      checker.add(event);
      collector.observe(event);
    });
    std::vector<std::thread> workers;
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      workers.emplace_back([&cluster, i] {
        for (int k = 0; k < kOpsPerNode; ++k) {
          cluster.lock(NodeId{i}, LockId{static_cast<std::uint32_t>(k) % 2},
                       i % 2 == 0 ? LockMode::kW : LockMode::kR);
          cluster.unlock(NodeId{i}, LockId{static_cast<std::uint32_t>(k) % 2});
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    EXPECT_EQ(cluster.receiver_errors(), 0u);
  }
  const lint::LintReport report = checker.finish();
  EXPECT_TRUE(report.ok()) << report.render();
  EXPECT_EQ(collector.completed_count(), kNodes * kOpsPerNode);
}

}  // namespace
}  // namespace hlock::runtime
