// Experiment metrics: message counts and request latencies.
//
// The paper's two headline metrics are (1) the average number of protocol
// messages per application-level lock request and (2) the request latency —
// "the time elapsed between issuing a request and entering the critical
// section". MetricsRegistry collects both across a run; harnesses read one
// registry per simulated cluster.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "proto/message.hpp"
#include "stats/summary.hpp"
#include "util/sim_time.hpp"

namespace hlock::stats {

/// The single source of truth for transport counter fields. Adding a
/// counter means adding ONE line here; the snapshot struct, the atomic
/// struct, snapshot(), for_each() and ThreadCluster's telemetry registry
/// fold (one callback series per field) all derive from this table.
///
///   X(field_name, "short description")
///
/// Grouping (kept for the human-readable to_string): faults put on the
/// wire first, then TCP send/receive recovery.
#define HLOCK_TRANSPORT_COUNTER_FIELDS(X)                                   \
  /* Faults put on the wire. */                                             \
  X(drops, "wire losses (later retransmitted)")                             \
  X(delays, "messages given extra latency")                                 \
  X(partition_drops, "messages blocked by a partition")                     \
  /* TCP send/receive recovery. */                                          \
  X(send_retries, "failed writes retried with backoff")                     \
  X(reconnects, "channels re-established after failure")                    \
  X(send_failures, "frames dropped after retry exhaustion")                 \
  X(misaddressed_frames, "frames discarded by routing")

/// Plain-value copy of TransportCounters, safe to compare and print.
struct TransportCounterSnapshot {
#define HLOCK_TC_FIELD(name, desc) std::uint64_t name = 0;  ///< desc
  HLOCK_TRANSPORT_COUNTER_FIELDS(HLOCK_TC_FIELD)
#undef HLOCK_TC_FIELD

  /// Total faults put on the wire.
  std::uint64_t faults_injected() const {
    return drops + delays + partition_drops;
  }

  /// Calls `fn(field_name, value)` for every counter, in table order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
#define HLOCK_TC_VISIT(name, desc) fn(#name, name);
    HLOCK_TRANSPORT_COUNTER_FIELDS(HLOCK_TC_VISIT)
#undef HLOCK_TC_VISIT
  }

  bool operator==(const TransportCounterSnapshot&) const = default;
};

/// One-line human-readable rendering of a counter snapshot.
std::string to_string(const TransportCounterSnapshot& snapshot);

/// Cumulative per-transport fault and recovery counters.
///
/// Shared by the fault-injecting transport decorator and the TCP transport's
/// retry path; counters are atomic because transports are touched from
/// receiver, client, and delivery threads concurrently. Relaxed ordering is
/// sufficient — these are statistics, not synchronization.
class TransportCounters {
 public:
#define HLOCK_TC_ATOMIC(name, desc) std::atomic<std::uint64_t> name{0};
  HLOCK_TRANSPORT_COUNTER_FIELDS(HLOCK_TC_ATOMIC)
#undef HLOCK_TC_ATOMIC

  /// Consistent-enough copy of all counters (each load is atomic; the set
  /// is not a cross-counter snapshot, which statistics do not need).
  TransportCounterSnapshot snapshot() const;

  /// Calls `fn(field_name, atomic_counter&)` for every counter, in table
  /// order. ThreadCluster uses this to register one telemetry callback
  /// series per field without naming them twice.
  template <typename Fn>
  void for_each(Fn&& fn) const {
#define HLOCK_TC_VISIT(name, desc) fn(#name, name);
    HLOCK_TRANSPORT_COUNTER_FIELDS(HLOCK_TC_VISIT)
#undef HLOCK_TC_VISIT
  }
};

/// Message counts broken down by protocol message kind.
///
/// Counters are atomic: harnesses read totals (progress displays, chaos
/// snapshots) while senders are still counting, and the previous plain
/// integers made every such snapshot read a data race. Relaxed ordering is
/// sufficient — statistics, not synchronization. Like TransportCounters,
/// reads are per-counter atomic, not a cross-counter snapshot.
class MessageCounter {
 public:
  /// Counts one sent message. Thread-safe.
  void add(proto::MessageKind kind);

  /// Messages of one kind. Thread-safe snapshot read.
  std::uint64_t count(proto::MessageKind kind) const;

  /// All messages. Thread-safe snapshot read.
  std::uint64_t total() const;

  /// Calls `fn(kind, count)` for every message kind, in enum order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < proto::kMessageKindCount; ++i) {
      fn(static_cast<proto::MessageKind>(i),
         counts_[i].load(std::memory_order_relaxed));
    }
  }

 private:
  std::array<std::atomic<std::uint64_t>, proto::kMessageKindCount> counts_{};
};

/// Latency samples of completed application-level requests.
class LatencyRecorder {
 public:
  /// Records one completed request's latency.
  void record(SimTime latency);

  /// Number of recorded requests.
  std::size_t count() const { return samples_ms_.size(); }

  /// Latency samples in milliseconds, in completion order.
  const std::vector<double>& samples_ms() const { return samples_ms_; }

  /// Exact summary over all samples (milliseconds).
  Summary summarize() const { return stats::summarize(samples_ms_); }

 private:
  std::vector<double> samples_ms_;
};

/// Everything one experiment run collects.
class MetricsRegistry {
 public:
  MessageCounter& messages() { return messages_; }
  const MessageCounter& messages() const { return messages_; }

  LatencyRecorder& latency() { return latency_; }
  const LatencyRecorder& latency() const { return latency_; }

  /// Messages per completed application-level request — the paper's
  /// Fig. 7/9 metric. Zero when no request completed.
  double messages_per_request() const;

 private:
  MessageCounter messages_;
  LatencyRecorder latency_;
};

}  // namespace hlock::stats
