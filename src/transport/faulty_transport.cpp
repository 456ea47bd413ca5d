#include "transport/faulty_transport.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/log.hpp"

namespace hlock::transport {

namespace {

std::chrono::nanoseconds chrono_ns(SimTime t) {
  return std::chrono::nanoseconds(t.count_ns());
}

std::uint64_t channel_key_of(std::uint32_t from, std::uint32_t to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

void require_probability(double p, const char* name) {
  HLOCK_REQUIRE(p >= 0.0 && p <= 1.0,
                std::string("fault plan: ") + name + " must be in [0, 1]");
}

}  // namespace

FaultyTransport::FaultyTransport(std::unique_ptr<Transport> inner,
                                 const FaultPlan& plan)
    : inner_(std::move(inner)), plan_(plan) {
  HLOCK_REQUIRE(inner_ != nullptr, "faulty transport needs an inner one");
  require_probability(plan_.drop_probability, "drop_probability");
  require_probability(plan_.delay_probability, "delay_probability");
  const Clock::time_point now = Clock::now();
  for (const FaultPlan::Partition& partition : plan_.partitions) {
    ActivePartition active;
    for (proto::NodeId node : partition.side_a) {
      active.side_a.insert(node.value());
    }
    active.heal_at = now + chrono_ns(partition.heal_after);
    partitions_.push_back(std::move(active));
  }
  pump_ = sched::Thread("faulty-pump", [this] { pump_loop(); });
}

FaultyTransport::~FaultyTransport() { shutdown(); }

FaultyTransport::ChannelState& FaultyTransport::channel_state(
    std::uint64_t key) {
  auto it = channels_.find(key);
  if (it == channels_.end()) {
    it = channels_.try_emplace(key).first;
    // Every channel gets its own split stream: fault decisions on one
    // channel are independent of the traffic on every other.
    it->second.rng = Rng(plan_.seed).split(key);
  }
  return it->second;
}

bool FaultyTransport::crosses_partition(std::uint32_t from, std::uint32_t to,
                                        Clock::time_point now,
                                        Clock::time_point* release_at) {
  bool crossed = false;
  auto it = partitions_.begin();
  while (it != partitions_.end()) {
    if (it->heal_at <= now) {
      it = partitions_.erase(it);  // healed
      continue;
    }
    const bool from_in_a = it->side_a.count(from) > 0;
    const bool to_in_a = it->side_a.count(to) > 0;
    if (from_in_a != to_in_a) {
      crossed = true;
      *release_at = std::max(*release_at, it->heal_at);
    }
    ++it;
  }
  return crossed;
}

void FaultyTransport::send(const proto::Message& message) {
  // Checked here: the pump thread's inner send would throw past its loop
  // and terminate the process.
  HLOCK_REQUIRE(message.from.value() < node_count(),
                "message without a known sender");
  HLOCK_REQUIRE(message.to.value() < node_count(), "unknown node id");
  {
    MutexLock lock(mutex_);
    if (stopping_) return;
    const std::uint64_t key =
        channel_key_of(message.from.value(), message.to.value());
    ChannelState& ch = channel_state(key);
    const Clock::time_point now = Clock::now();

    // Fault decisions are drawn in a fixed order, whatever the partitions
    // do, and a fault class with probability zero draws nothing: which
    // faults hit message k of a channel depends only on (plan, channel,
    // k) — never on wall-clock state such as partitions.
    const bool dropped = plan_.drop_probability > 0.0 &&
                         ch.rng.chance(plan_.drop_probability);
    const bool delayed = plan_.delay_probability > 0.0 &&
                         ch.rng.chance(plan_.delay_probability);
    const SimTime extra_delay =
        delayed ? plan_.delay.sample(ch.rng) : SimTime::ns(0);

    Clock::time_point deliver_at = now;
    Clock::time_point release_at = now;
    if (crosses_partition(message.from.value(), message.to.value(), now,
                          &release_at)) {
      // The partition dominates: the message waits for the heal.
      counters_.partition_drops.fetch_add(1, std::memory_order_relaxed);
      deliver_at = release_at;
    } else {
      if (dropped) {
        counters_.drops.fetch_add(1, std::memory_order_relaxed);
        deliver_at += chrono_ns(plan_.retransmit_delay);
      }
      if (delayed) {
        counters_.delays.fetch_add(1, std::memory_order_relaxed);
        deliver_at += chrono_ns(extra_delay);
      }
    }
    // Never due before the channel's previous message: its successors
    // queue behind a late message (head-of-line blocking), so the channel
    // stays FIFO.
    deliver_at = std::max(deliver_at, ch.fifo_floor);
    ch.fifo_floor = deliver_at;
    wire_.push(WireEntry{deliver_at, next_wire_seq_++, message});
  }
  sent_.fetch_add(1, std::memory_order_relaxed);
  cv_.notify_all();
}

bool FaultyTransport::collect_due(std::vector<proto::Message>& due) {
  for (;;) {
    if (stopping_) return false;  // undelivered wire entries are dropped
    if (wire_.empty()) {
      cv_.wait(mutex_);
      continue;
    }
    const Clock::time_point now = Clock::now();
    if (wire_.top().deliver_at > now) {
      cv_.wait_until(mutex_, wire_.top().deliver_at);
      continue;
    }
    do {
      due.push_back(wire_.top().message);
      wire_.pop();
    } while (!wire_.empty() && wire_.top().deliver_at <= now);
    return true;
  }
}

void FaultyTransport::pump_loop() {
  for (;;) {
    std::vector<proto::Message> due;
    {
      MutexLock lock(mutex_);
      if (!collect_due(due)) return;
    }
    // Forward with the lock dropped: the inner send may block (TCP
    // backoff), and senders must be able to keep depositing onto the wire
    // meanwhile — forwarding while holding `mutex_` is exactly the
    // lock-held-across-callback pattern the capability analysis exists to
    // keep out of this layer.
    sched::yield_point("faulty_transport.forward");
    for (const proto::Message& message : due) inner_->send(message);
  }
}

std::vector<proto::Message> FaultyTransport::recv_ready(
    proto::NodeId node, Clock::time_point deadline) {
  return inner_->recv_ready(node, deadline);
}

void FaultyTransport::shutdown() {
  if (!shutdown_done_.exchange(true)) {
    {
      MutexLock lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (pump_.joinable()) pump_.join();
    const auto snapshot = counters_.snapshot();
    if (snapshot.faults_injected() > 0) {
      HLOCK_LOG(kInfo, "faulty transport: " << stats::to_string(snapshot));
    }
    inner_->shutdown();
  }
}

}  // namespace hlock::transport
