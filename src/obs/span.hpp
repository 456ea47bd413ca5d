// Per-request causal spans.
//
// Every application-level lock request becomes one RequestSpan: an ordered
// list of phase transitions (issued → queued-local → frozen → forwarded →
// granted → cs-enter → cs-exit) assembled from the structured trace-event
// stream the hierarchical automaton already emits. The SpanCollector is a
// pure consumer — it adds no instrumentation of its own; it joins events
// across nodes by RequestId (the requester/seq pair that the protocol
// already uses to identify requests) and attributes each transition to the
// node that performed it, with the runtime-stamped Lamport timestamp (see
// obs/lamport.hpp) preserving causal order even when transports reorder.
//
// Downstream consumers: the phase-latency breakdown table (p50/p95/max per
// phase interval), the Chrome-trace exporter (obs/chrome_trace.hpp) and the
// flight record (obs/run_artifacts.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "proto/ids.hpp"
#include "proto/lock_mode.hpp"
#include "stats/summary.hpp"
#include "trace/event.hpp"
#include "util/sim_time.hpp"
#include "util/sync.hpp"

namespace hlock::obs {

/// Lifecycle phase of a lock request, in nominal order. A request may skip
/// phases (a local grant never queues), and kQueuedLocal/kForwarded may
/// repeat as a request travels the hierarchy; the other phases are recorded
/// once per span (kFrozen on the first freeze only).
enum class Phase : std::uint8_t {
  kIssued = 0,   ///< the requester called request()
  kQueuedLocal,  ///< some node queued the request locally (Rule 4, Q)
  kFrozen,       ///< the queueing node froze the request's mode (Rule 5)
  kForwarded,    ///< some node forwarded the request up/down (Rule 4.1, F)
  kGranted,      ///< a grant/token/local decision granted the mode
  kCsEntered,    ///< the requester entered its critical section
  kCsExited,     ///< the requester released the mode
};

/// Number of distinct Phase values.
inline constexpr std::size_t kPhaseCount = 7;

/// "issued", "queued-local", "frozen", "forwarded", "granted", "cs-enter"
/// or "cs-exit".
std::string to_string(Phase phase);

/// One phase transition, attributed to the node that performed it.
struct SpanEvent {
  Phase phase = Phase::kIssued;
  /// Runtime timestamp of the underlying trace event (simulated or
  /// wall-since-start, depending on the runtime).
  SimTime at{};
  /// Lamport timestamp of the acting node at the transition (0 when the
  /// runtime ran no Lamport clock).
  std::uint64_t lamport = 0;
  /// The node that performed the transition (the queueing node for
  /// kQueuedLocal, the granter for kGranted, the requester for the rest).
  proto::NodeId node;
  bool operator==(const SpanEvent&) const = default;
};

/// The full observed lifecycle of one application-level lock request.
struct RequestSpan {
  proto::RequestId id;
  proto::LockId lock{};
  proto::LockMode mode = proto::LockMode::kNL;
  std::uint8_t priority = 0;
  /// Phase transitions in observation order.
  std::vector<SpanEvent> events;

  /// First event of `phase`, or nullptr if the span never reached it.
  const SpanEvent* find(Phase phase) const;
  /// True once the request released (reached kCsExited).
  bool complete() const { return find(Phase::kCsExited) != nullptr; }
};

/// One row of the phase-latency breakdown: an interval between two
/// successive observed phases ("issued->granted") and its exact summary
/// statistics in milliseconds.
struct PhaseStats {
  std::string interval;
  stats::Summary summary_ms;
};

/// Assembles RequestSpans from a structured trace-event stream.
///
/// Internally synchronized (same contract as trace::TraceRecorder):
/// collectors are wired as ThreadCluster event sinks and queried by driver
/// threads, so every observe/query takes the collector's mutex.
class SpanCollector {
 public:
  /// Consumes one structured event. Events that do not concern a request's
  /// lifecycle (messages, copyset changes, notes) are ignored.
  void observe(const trace::TraceEvent& event);

  /// Snapshot of all spans, in first-observation order.
  std::vector<RequestSpan> spans() const;

  /// Number of spans observed so far.
  std::size_t span_count() const;

  /// Number of spans that reached kCsExited.
  std::size_t completed_count() const;

  /// issued → cs-enter latency in milliseconds for every span that entered
  /// its critical section, in issue order. Definitionally the same quantity
  /// as stats::LatencyRecorder's "request latency" samples, which makes the
  /// two reconcilable run-for-run.
  std::vector<double> acquire_latencies_ms() const;

  /// Summary statistics per observed phase interval, plus a synthetic
  /// "acquire (issued->cs-enter)" total row. Rows are ordered by nominal
  /// phase order of the interval start.
  std::vector<PhaseStats> phase_breakdown() const;

 private:
  /// Per-span bookkeeping that is not part of the exported span.
  struct Aux {
    /// Node currently holding the request in its local queue (none until a
    /// kQueue event names one).
    proto::NodeId queued_at;
    bool granted = false;
  };

  /// Span identity. RequestIds are only unique per lock (each per-lock
  /// automaton runs its own sequence counter), so the lock is part of the
  /// key — keying by RequestId alone would splice unrelated requests from
  /// different locks into one span.
  using SpanKey = std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>;

  std::size_t ensure(proto::RequestId id, const trace::TraceEvent& event)
      HLOCK_REQUIRES(mutex_);
  void append(std::size_t index, Phase phase, const trace::TraceEvent& event)
      HLOCK_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::vector<RequestSpan> spans_ HLOCK_GUARDED_BY(mutex_);
  std::vector<Aux> aux_ HLOCK_GUARDED_BY(mutex_);
  std::map<SpanKey, std::size_t> index_ HLOCK_GUARDED_BY(mutex_);
  /// (node, lock) -> span currently in its critical section there;
  /// attributes the seq-less kExitCs events.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::size_t>
      holder_ HLOCK_GUARDED_BY(mutex_);
};

/// Renders the breakdown as an aligned table (count/mean/p50/p95/p99/max in
/// milliseconds), one interval per row — the hlock_sim "--spans" output.
std::string render_phase_table(const std::vector<PhaseStats>& rows);

}  // namespace hlock::obs
