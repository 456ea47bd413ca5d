// Tests of the Lamport clock: the tick/observe algebra, and the end-to-end
// causal-ordering guarantee on a threaded cluster whose transport drops
// (and retransmits) and delays messages, so messages on different channels
// overtake each other — the case wall-clock timestamps get wrong.
#include "obs/lamport.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/span.hpp"
#include "runtime/thread_cluster.hpp"

namespace hlock::obs {
namespace {

using proto::LockId;
using proto::LockMode;
using proto::NodeId;

TEST(LamportClock, TickAdvancesByOne) {
  AtomicLamportClock clock;
  EXPECT_EQ(clock.current(), 0u);
  EXPECT_EQ(clock.tick(), 1u);
  EXPECT_EQ(clock.tick(), 2u);
  EXPECT_EQ(clock.current(), 2u);
}

TEST(LamportClock, ObserveMergesToMaxPlusOne) {
  AtomicLamportClock clock;
  clock.tick();              // 1
  clock.observe(10);         // max(1, 10) + 1
  EXPECT_EQ(clock.current(), 11u);
  clock.observe(3);          // stale remote clock still advances locally
  EXPECT_EQ(clock.current(), 12u);
  EXPECT_EQ(clock.tick(), 13u);
}

// The protocol-level guarantee the runtimes' stamping discipline provides:
// along one request's lifecycle, every transition on a *different* node is
// separated by at least one message, so its Lamport stamp is strictly
// greater; same-node transitions may share a step (equal stamps). Run
// under a lossy, delaying transport where arrival order and wall order
// genuinely diverge.
TEST(LamportClock, SpanEventsAreCausallyOrderedUnderReorder) {
  runtime::ThreadClusterOptions options;
  options.node_count = 4;
  options.hier_config.trace_events = true;
  options.seed = 5;
  transport::FaultPlan plan;
  plan.seed = 5;
  plan.drop_probability = 0.3;
  plan.retransmit_delay = SimTime::us(300);
  plan.delay_probability = 0.2;
  plan.delay = DurationDist::uniform(SimTime::us(300), 0.5);
  options.faults = plan;

  SpanCollector collector;
  const int ops = 6;
  {
    runtime::ThreadCluster cluster{options};
    cluster.set_event_sink(
        [&collector](trace::TraceEvent event) { collector.observe(event); });
    std::vector<std::thread> workers;
    for (std::uint32_t i = 0; i < options.node_count; ++i) {
      workers.emplace_back([&cluster, i] {
        for (int k = 0; k < ops; ++k) {
          cluster.lock(NodeId{i}, LockId{0}, LockMode::kW);
          cluster.unlock(NodeId{i}, LockId{0});
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }

  const auto spans = collector.spans();
  ASSERT_EQ(spans.size(), options.node_count * static_cast<std::size_t>(ops));
  EXPECT_EQ(collector.completed_count(), spans.size());
  for (const RequestSpan& span : spans) {
    ASSERT_FALSE(span.events.empty());
    for (std::size_t k = 0; k < span.events.size(); ++k) {
      EXPECT_GT(span.events[k].lamport, 0u)
          << "unstamped event in span " << to_string(span.id);
      if (k == 0) continue;
      const SpanEvent& prev = span.events[k - 1];
      const SpanEvent& cur = span.events[k];
      if (cur.node == prev.node) {
        EXPECT_GE(cur.lamport, prev.lamport)
            << to_string(prev.phase) << " -> " << to_string(cur.phase)
            << " in span " << to_string(span.id);
      } else {
        EXPECT_GT(cur.lamport, prev.lamport)
            << to_string(prev.phase) << " -> " << to_string(cur.phase)
            << " crossed nodes without a clock merge in span "
            << to_string(span.id);
      }
    }
  }
}

}  // namespace
}  // namespace hlock::obs
