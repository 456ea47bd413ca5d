// Lamport logical clocks for causal ordering of cross-node span events.
//
// Wall clocks on different nodes (and per-node simulated delivery times
// under reordering transports) do not agree, so the observability layer
// stamps every trace event and every wire message with a Lamport timestamp:
// ticked on each local protocol step and send, merged (max + 1) on each
// receive. Two events related by message flow then always compare in causal
// order, which is what the span collector and Chrome-trace export rely on
// when the faulty transport drops or delays messages. The runtimes own
// the clocks (one per node) because automatons are pure state machines that
// hold no clock of any kind; runtime::NodeCore does the stamping for both.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

namespace hlock::obs {

/// One node's Lamport clock. Lock-free, because ThreadCluster serializes
/// each lock's automaton under its shard's mutex while the node's single
/// clock is shared by all shards; the simulator uses the same type.
/// Relaxed ordering suffices because the clock value itself is the payload
/// (it travels inside messages and events, and those are published under
/// mutexes / through the transport).
class AtomicLamportClock {
 public:
  /// Advances for a local step or send; returns the new time (unique per
  /// call — concurrent tickers never observe the same value).
  std::uint64_t tick() {
    return now_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Merges a received message's timestamp and advances past it:
  /// now = max(now, received) + 1. Returns a time at least that large (a
  /// concurrent tick may advance the clock further before the caller reads
  /// it, which only strengthens the ordering).
  std::uint64_t observe(std::uint64_t received) {
    std::uint64_t prev = now_.load(std::memory_order_relaxed);
    std::uint64_t next;
    do {
      next = std::max(prev, received) + 1;
    } while (!now_.compare_exchange_weak(prev, next,
                                         std::memory_order_relaxed));
    return next;
  }

  /// The last returned time (0 before any tick).
  std::uint64_t current() const {
    return now_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> now_{0};
};

}  // namespace hlock::obs
