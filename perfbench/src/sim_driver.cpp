#include "sim_driver.hpp"

#include <exception>
#include <stdexcept>

#include "proto/codec.hpp"
#include "sim/network_model.hpp"
#include "util/distributions.hpp"

namespace perfbench {

using hlock::DurationDist;
using hlock::SimTime;

namespace {

const DurationDist kCsLength = DurationDist::uniform(SimTime::ms(15), 0.5);
const DurationDist kIdleTime = DurationDist::uniform(SimTime::ms(150), 0.5);

}  // namespace

bool SimResult::same_work(const SimResult& other) const {
  return acquisitions == other.acquisitions && messages == other.messages &&
         by_kind == other.by_kind && events == other.events &&
         sim_latency_ms == other.sim_latency_ms;
}

SimDriver::SimDriver(const SimConfig& config, HolderTable& holders)
    : config_(config),
      holders_(holders),
      grants_(lock_count(config.pattern, config.nodes), 0) {
  hlock::runtime::SimClusterOptions options;
  options.node_count = config.nodes;
  options.protocol = hlock::runtime::Protocol::kHierarchical;
  options.message_latency = hlock::sim::linux_cluster_preset().message_latency;
  options.seed = config.seed;
  options.hier_config.path_compression = config.path_compression;
  options.hier_config.trace_events = config.traced;
  cluster_ = std::make_unique<hlock::runtime::SimCluster>(options);
  cluster_->set_grant_handler([this](NodeId node, LockId lock, bool upgraded) {
    on_grant(node, lock, upgraded);
  });
  nodes_.resize(config.nodes);
  for (std::size_t i = 0; i < config.nodes; ++i) {
    nodes_[i].ops_rng = airline_rng(config.seed, i);
    nodes_[i].time_rng = Rng{config.seed}.split(0x71AE0000u + i);
  }
}

SimResult SimDriver::run() {
  hlock::sim::Simulator& sim = cluster_->simulator();
  if (config_.ops > 0) {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (config_.pattern == Pattern::kAirline) {
        schedule_idle(i);
      } else {
        sim.schedule_in(SimTime{}, [this, i] { try_ring_step(i); });
      }
    }
  }
  // Generous livelock bound: a few driver events plus O(nodes) protocol
  // messages per acquisition.
  const std::uint64_t budget =
      1'000'000 + config_.ops * nodes_.size() * (nodes_.size() + 16) * 8;
  const std::int64_t start = now_ns();
  try {
    while (sim.events_pending() > 0) {
      if (sim.events_executed() > budget) {
        throw std::runtime_error("event budget exceeded: livelock suspected");
      }
      sim.run_events(65536);
    }
  } catch (const std::exception& error) {
    result_.error = error.what();
  }
  result_.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  for (const Node& node : nodes_) result_.unfinished += config_.ops - node.done;
  if (result_.error.empty() && result_.unfinished > 0) {
    result_.error = "the simulation drained with " +
                    std::to_string(result_.unfinished) +
                    " operations unfinished";
  }
  const hlock::stats::MessageCounter& counter = cluster_->metrics().messages();
  result_.messages = counter.total();
  counter.for_each([this](hlock::proto::MessageKind kind, std::uint64_t n) {
    result_.by_kind[static_cast<std::size_t>(kind)] = n;
  });
  result_.events = sim.events_executed();
  return std::move(result_);
}

void SimDriver::schedule_idle(std::size_t i) {
  const SimTime idle = kIdleTime.sample(nodes_[i].time_rng);
  cluster_->simulator().schedule_in(idle, [this, i] { begin_op(i); });
}

void SimDriver::begin_op(std::size_t i) {
  Node& node = nodes_[i];
  node.steps = draw_airline_op(node.ops_rng);
  node.next = 0;
  issue(i);
}

void SimDriver::try_ring_step(std::size_t i) {
  Node& node = nodes_[i];
  const LockId lock = ring_lock(i, node.done, nodes_.size());
  // The ring's turn rule: step k may request its lock only after the k
  // earlier acquisitions of that lock were granted.
  if (grants_[lock.value()] < node.done) {
    node.waiting = true;
    return;
  }
  node.waiting = false;
  node.steps = {LockStep{lock, LockMode::kW, false}};
  node.next = 0;
  issue(i);
}

void SimDriver::issue(std::size_t i) {
  Node& node = nodes_[i];
  const LockStep& step = node.steps[node.next];
  ++result_.acquisitions;
  node.step_start = cluster_->simulator().now();
  const std::int64_t t0 = now_ns();
  cluster_->request(node_id(i), step.lock, step.mode);
  result_.call_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
}

void SimDriver::on_grant(NodeId id, LockId lock, bool upgraded) {
  const std::size_t i = id.value();
  Node& node = nodes_[i];
  hlock::sim::Simulator& sim = cluster_->simulator();
  if (upgraded) {
    holders_.upgrade(id, lock);
    sim.schedule_in(node.cs_left, [this, i] { finish_cs(i); });
    return;
  }
  if (node.next >= node.steps.size() || node.steps[node.next].lock != lock) {
    throw std::runtime_error("grant of an unexpected lock at node " +
                             std::to_string(i));
  }
  holders_.acquire(id, lock, node.steps[node.next].mode);
  result_.sim_latency_ms.push_back((sim.now() - node.step_start).to_ms());
  if (config_.pattern == Pattern::kRing) {
    ++grants_[lock.value()];
    for (std::size_t w = 0; w < nodes_.size(); ++w) {
      if (nodes_[w].waiting) {
        sim.schedule_in(SimTime{}, [this, w] { try_ring_step(w); });
        nodes_[w].waiting = false;
      }
    }
  }
  ++node.next;
  // Continue from the event loop, never from inside the cluster call that
  // delivered the grant.
  sim.schedule_in(SimTime{}, [this, i] {
    if (nodes_[i].next < nodes_[i].steps.size()) {
      issue(i);
    } else {
      enter_cs(i);
    }
  });
}

void SimDriver::enter_cs(std::size_t i) {
  Node& node = nodes_[i];
  hlock::sim::Simulator& sim = cluster_->simulator();
  const SimTime cs = kCsLength.sample(node.time_rng);
  bool upgrades = false;
  for (const LockStep& step : node.steps) upgrades |= step.upgrade_midway;
  if (upgrades) {
    // Read-then-upgrade: hold U for half the critical section, upgrade,
    // write for the other half (Rule 7).
    node.cs_left = SimTime::ns(cs.count_ns() / 2);
    sim.schedule_in(node.cs_left, [this, i] { start_upgrade(i); });
  } else {
    sim.schedule_in(cs, [this, i] { finish_cs(i); });
  }
}

void SimDriver::start_upgrade(std::size_t i) {
  for (const LockStep& step : nodes_[i].steps) {
    if (!step.upgrade_midway) continue;
    const std::int64_t t0 = now_ns();
    cluster_->upgrade(node_id(i), step.lock);
    result_.call_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    return;
  }
}

void SimDriver::finish_cs(std::size_t i) {
  Node& node = nodes_[i];
  for (std::size_t s = node.steps.size(); s-- > 0;) {
    const LockId lock = node.steps[s].lock;
    holders_.release(node_id(i), lock);
    if (config_.traced) {
      const std::int64_t t0 = now_ns();
      cluster_->release(node_id(i), lock);
      result_.release_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    } else {
      cluster_->release(node_id(i), lock);
    }
  }
  ++node.done;
  if (node.done >= config_.ops) return;
  if (config_.pattern == Pattern::kAirline) {
    schedule_idle(i);
  } else {
    try_ring_step(i);
  }
}

SimResult run_pass(const SimConfig& config, Report& report,
                   const std::string& what,
                   const std::function<void(SimDriver&)>& prepare) {
  HolderTable holders(lock_count(config.pattern, config.nodes));
  SimDriver driver(config, holders);
  if (prepare) prepare(driver);
  SimResult result = driver.run();
  if (!result.error.empty()) report.fail(what + ": " + result.error);
  if (holders.violations() > 0) {
    report.fail(what + ": " + holders.first_violation());
  }
  return result;
}

Recording record_pass(const SimConfig& config, Report& report,
                      const std::string& what) {
  constexpr std::size_t kMixCap = 20000;
  Recording recording;
  std::vector<std::byte> scratch;
  recording.result = run_pass(config, report, what, [&](SimDriver& driver) {
    driver.cluster().set_message_observer(
        [&](SimTime, const hlock::proto::Message& message) {
          scratch.clear();
          hlock::proto::encode_into(message, scratch);
          recording.bytes += scratch.size();
          if (recording.mix.size() < kMixCap) recording.mix.push_back(message);
        });
  });
  return recording;
}

}  // namespace perfbench
