// Fault-injecting transport decorator: a per-channel FIFO delay line.
//
// FaultyTransport wraps any Transport and puts a seeded, deterministic
// faulty wire on the send path of every ordered (from, to) channel. A
// message may be lost (and retransmitted after a timeout), given extra
// delay, or held back by a partition until it heals; the wire holds it
// until it is due and a pump thread forwards due messages to the inner
// transport in time order. A message is never due before its channel
// predecessor, so every channel stays the exactly-once FIFO channel the
// protocol engines assume (the paper's testbed ran over TCP): a fault
// costs what it costs in the real world — latency, a retransmit window,
// head-of-line blocking — and nothing else.
//
// Determinism: which messages are dropped or delayed, and by how much, is a
// pure function of (plan seed, channel, per-channel message index) —
// wall-clock scheduling jitter changes when messages move, never which
// faults hit them. Every decision is counted in a stats::FaultCounters
// readable while the transport runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <queue>
#include <unordered_set>
#include <vector>

#include "stats/metrics.hpp"
#include "transport/transport.hpp"
#include "util/distributions.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace hlock::transport {

/// Declarative description of the faults to inject. Probabilities are per
/// message; all default to zero so a default plan is a no-fault plan.
struct FaultPlan {
  /// Seeds the per-channel fault streams (each ordered channel gets an
  /// independent split so adding traffic on one channel never perturbs the
  /// fault decisions on another).
  std::uint64_t seed = 1;

  /// Probability a message is lost on the wire. A lost message arrives
  /// one `retransmit_delay` late, as its retransmission would.
  double drop_probability = 0.0;

  /// Probability a message is held for an extra `delay` sample.
  double delay_probability = 0.0;
  DurationDist delay = DurationDist::uniform(SimTime::ms(2), 0.5);

  /// Retransmission timeout for lost messages.
  SimTime retransmit_delay = SimTime::ms(2);

  /// A partition separates `side_a` from every other node starting at
  /// transport construction; messages crossing it are buffered and
  /// delivered when it heals, `heal_after` later.
  struct Partition {
    std::vector<proto::NodeId> side_a;
    SimTime heal_after = SimTime::ms(50);
  };
  std::vector<Partition> partitions;

  /// True if this plan injects any fault at all.
  bool any() const {
    return drop_probability > 0.0 || delay_probability > 0.0 ||
           !partitions.empty();
  }
};

/// See file comment.
class FaultyTransport final : public Transport {
 public:
  /// Takes ownership of `inner` and starts the wire-delivery thread.
  /// Throws UsageError if a probability lies outside [0, 1].
  FaultyTransport(std::unique_ptr<Transport> inner, const FaultPlan& plan);

  /// Stops the wire and shuts the inner transport down.
  ~FaultyTransport() override;

  /// Accepts a message onto the (possibly faulty) wire. Thread-safe.
  /// Throws UsageError, in the caller's thread, if the sender or the
  /// destination is not one of the inner transport's nodes.
  void send(const proto::Message& message) override
      HLOCK_EXCLUDES(mutex_);

  /// Delegated to the inner transport (fault decisions happen on the send
  /// side; by delivery time the batch is already fault-shaped).
  std::vector<proto::Message> recv_ready(
      proto::NodeId node,
      Clock::time_point deadline = Clock::time_point::max()) override;

  /// Drops undelivered wire entries, stops the delivery thread, and shuts
  /// the inner transport down.
  void shutdown() override HLOCK_EXCLUDES(mutex_);

  std::size_t node_count() const override { return inner_->node_count(); }

  /// Messages accepted by send().
  std::uint64_t messages_sent() const override {
    return sent_.load(std::memory_order_relaxed);
  }

  /// Encoded bytes shipped by the inner transport.
  std::uint64_t bytes_sent() const override { return inner_->bytes_sent(); }

  /// Inner-transport inbox depth (wire-resident messages are not counted —
  /// they have not been delivered anywhere yet).
  std::size_t inbox_depth(proto::NodeId node) const override {
    return inner_->inbox_depth(node);
  }

  /// Fault counters, live.
  const stats::FaultCounters& counters() const { return counters_; }

 private:
  /// A message travelling the simulated wire.
  struct WireEntry {
    Clock::time_point deliver_at;
    /// Global send order: breaks ties, so a channel pops in send order.
    std::uint64_t wire_seq = 0;
    proto::Message message;
    /// Min-heap by (deliver_at, wire_seq) via inverted comparison.
    bool operator<(const WireEntry& other) const {
      if (deliver_at != other.deliver_at) {
        return deliver_at > other.deliver_at;
      }
      return wire_seq > other.wire_seq;
    }
  };

  /// Wire state of one ordered channel.
  struct ChannelState {
    Rng rng;                         ///< fault-decision stream
    Clock::time_point fifo_floor{};  ///< due time of the last message sent
  };

  struct ActivePartition {
    std::unordered_set<std::uint32_t> side_a;
    Clock::time_point heal_at;
  };

  ChannelState& channel_state(std::uint64_t key) HLOCK_REQUIRES(mutex_);
  /// True if (from, to) crosses an unhealed partition; `release_at` gets
  /// the latest heal time among the partitions crossed.
  bool crosses_partition(std::uint32_t from, std::uint32_t to,
                         Clock::time_point now, Clock::time_point* release_at)
      HLOCK_REQUIRES(mutex_);
  /// Delivery thread: forwards due wire entries to the inner transport.
  void pump_loop() HLOCK_EXCLUDES(mutex_);
  /// Blocks (holding `mutex_`) until stopping or a wire entry is due, then
  /// moves every due message into `due`, in time order. False once the
  /// transport is stopping.
  bool collect_due(std::vector<proto::Message>& due) HLOCK_REQUIRES(mutex_);

  std::unique_ptr<Transport> inner_;
  FaultPlan plan_;
  stats::FaultCounters counters_;

  Mutex mutex_;
  CondVar cv_;
  std::priority_queue<WireEntry> wire_ HLOCK_GUARDED_BY(mutex_);
  std::map<std::uint64_t, ChannelState> channels_ HLOCK_GUARDED_BY(mutex_);
  std::vector<ActivePartition> partitions_ HLOCK_GUARDED_BY(mutex_);
  std::uint64_t next_wire_seq_ HLOCK_GUARDED_BY(mutex_) = 0;
  bool stopping_ HLOCK_GUARDED_BY(mutex_) = false;

  std::atomic<std::uint64_t> sent_{0};
  std::atomic<bool> shutdown_done_{false};
  /// sched::Thread so the schedule explorer controls the pump's
  /// interleaving with senders and the teardown (docs/sched.md).
  sched::Thread pump_;
};

}  // namespace hlock::transport
