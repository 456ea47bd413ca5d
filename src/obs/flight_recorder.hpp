// Post-mortem flight recorder.
//
// When a run dies — an invariant fires, the conformance linter reports a
// violation, or a chaos run shuts down on a crash path — the in-memory
// observability state (trace ring buffer, request spans, metrics) is
// exactly the evidence a post-mortem needs, and exactly what evaporates
// with the process. dump_flight_record() writes it all to a timestamped
// report under a chosen directory: the triggering reason, the run's
// telemetry exposition, the phase-latency breakdown, the rendered event
// ring (with its drop count, so truncated history is never mistaken for
// complete history) and a sibling Chrome-trace JSON file when spans are
// available.
//
// The dump path is crash-adjacent by design: it never throws — any I/O
// failure is logged and reported through the empty return value.
#pragma once

#include <cstddef>
#include <string>

#include "obs/span.hpp"
#include "trace/recorder.hpp"

namespace hlock::obs {

/// What to include in a flight-record dump. Null or empty members are
/// skipped.
struct FlightRecordSources {
  const trace::TraceRecorder* recorder = nullptr;
  const SpanCollector* spans = nullptr;
  /// The run's metrics as Prometheus text exposition (render_prometheus of
  /// its telemetry registry's snapshot).
  std::string metrics;
  /// Node tracks for the Chrome-trace sibling file (0 = infer from spans).
  std::size_t node_count = 0;
};

/// Writes `<dir>/flight-<UTC timestamp>-<n>.txt` (creating `dir` if
/// needed) plus, when spans are present, the sibling
/// `flight-<timestamp>-<n>.trace.json` Chrome trace. Returns the report
/// path, or an empty string if writing failed (already logged; never
/// throws — this runs on crash paths).
std::string dump_flight_record(const std::string& dir,
                               const std::string& reason,
                               const FlightRecordSources& sources);

}  // namespace hlock::obs
