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

/// The transports' counter tables, one per transport that counts: the
/// fault-injecting decorator counts the faults it put on the wire, the
/// TCP transport its send and receive recovery. Adding a counter means
/// adding ONE line to its table; the snapshot struct, the atomic struct,
/// snapshot(), for_each() and ThreadCluster's telemetry registry fold (one
/// callback series per field) all derive from it.
///
///   X(field_name, "short description")
#define HLOCK_FAULT_COUNTER_FIELDS(X)                                      \
  X(drops, "wire losses (each arrives one retransmit window late)")        \
  X(delays, "messages given extra latency")                                \
  X(partition_drops, "messages held until a partition healed")

#define HLOCK_TCP_COUNTER_FIELDS(X)                                        \
  X(send_retries, "failed writes retried with backoff")                    \
  X(reconnects, "channels re-established after failure")                   \
  X(send_failures, "frames dropped after retry exhaustion")                \
  X(misaddressed_frames, "frames discarded by routing")

// Expansions shared by both tables.
#define HLOCK_COUNTER_VALUE(name, desc) std::uint64_t name = 0;
#define HLOCK_COUNTER_ATOMIC(name, desc) std::atomic<std::uint64_t> name{0};
#define HLOCK_COUNTER_LOAD(name, desc) \
  out.name = name.load(std::memory_order_relaxed);
#define HLOCK_COUNTER_VISIT(name, desc) fn(#name, name);

/// Plain-value copy of FaultCounters, safe to compare and print.
struct FaultCounterSnapshot {
  HLOCK_FAULT_COUNTER_FIELDS(HLOCK_COUNTER_VALUE)

  /// Total faults put on the wire.
  std::uint64_t faults_injected() const {
    return drops + delays + partition_drops;
  }

  bool operator==(const FaultCounterSnapshot&) const = default;
};

/// Plain-value copy of TcpCounters, safe to print.
struct TcpCounterSnapshot {
  HLOCK_TCP_COUNTER_FIELDS(HLOCK_COUNTER_VALUE)
};

/// One-line renderings: `faults{drops=N delays=N partition_drops=N}` and
/// `tcp{send_retries=N reconnects=N send_failures=N misaddressed=N}`.
std::string to_string(const FaultCounterSnapshot& snapshot);
std::string to_string(const TcpCounterSnapshot& snapshot);

// Live counters. They are atomic because transports are touched from
// receiver, client, and delivery threads concurrently. Relaxed ordering is
// sufficient — these are statistics, not synchronization. snapshot() loads
// each counter atomically; the set is not a cross-counter snapshot, which
// statistics do not need. for_each(fn) calls `fn(field_name,
// atomic_counter&)` for every counter, in table order: ThreadCluster
// registers one telemetry callback series per field through it.

/// Faults a transport::FaultyTransport put on its wire.
class FaultCounters {
 public:
  HLOCK_FAULT_COUNTER_FIELDS(HLOCK_COUNTER_ATOMIC)

  FaultCounterSnapshot snapshot() const {
    FaultCounterSnapshot out;
    HLOCK_FAULT_COUNTER_FIELDS(HLOCK_COUNTER_LOAD)
    return out;
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    HLOCK_FAULT_COUNTER_FIELDS(HLOCK_COUNTER_VISIT)
  }
};

/// A transport::TcpTransport's send and receive recovery.
class TcpCounters {
 public:
  HLOCK_TCP_COUNTER_FIELDS(HLOCK_COUNTER_ATOMIC)

  TcpCounterSnapshot snapshot() const {
    TcpCounterSnapshot out;
    HLOCK_TCP_COUNTER_FIELDS(HLOCK_COUNTER_LOAD)
    return out;
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    HLOCK_TCP_COUNTER_FIELDS(HLOCK_COUNTER_VISIT)
  }
};

#undef HLOCK_COUNTER_VALUE
#undef HLOCK_COUNTER_ATOMIC
#undef HLOCK_COUNTER_LOAD
#undef HLOCK_COUNTER_VISIT

/// Message counts broken down by protocol message kind.
///
/// Counters are atomic: harnesses read totals (progress displays, chaos
/// snapshots) while senders are still counting, and the previous plain
/// integers made every such snapshot read a data race. Relaxed ordering is
/// sufficient — statistics, not synchronization. Like the transport
/// counters, reads are per-counter atomic, not a cross-counter snapshot.
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
