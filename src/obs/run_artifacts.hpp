// The one consumer of a run's event stream and the one writer of the
// artifacts it leaves. A simulated experiment, a live ThreadCluster run or
// a model-checker counterexample feeds every protocol event to observe();
// the spans (phase table, Chrome trace), the flight record's trace ring and
// the `--trace-dump` capture for hlock_lint all come from that one stream.
//
// A flight record is a failed run's post-mortem: the reason, the telemetry
// exposition, the phase breakdown, the rendered ring (with its drop count,
// so truncated history is never mistaken for complete history) and a
// sibling Chrome trace. Writing one never throws — it runs on crash paths.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "obs/span.hpp"
#include "trace/event.hpp"
#include "trace/recorder.hpp"

namespace hlock::obs {

/// Which artifacts a run leaves. Empty or false members leave none.
struct ArtifactOptions {
  /// Print the phase-latency table when the run finishes (--spans).
  bool spans = false;
  /// Directory for the Chrome trace and flight records (--obs-out).
  std::string obs_out = {};
  /// File for hlock_lint: every event as a format_event line (--trace-dump).
  std::string trace_dump = {};
  /// Node tracks of the Chrome traces (0 = infer from the spans).
  std::size_t node_count = 0;
};

/// See file comment.
class RunArtifacts {
 public:
  /// `metrics` renders the run's Prometheus exposition when a flight
  /// record is written (a stall hook needs it at stall time).
  explicit RunArtifacts(ArtifactOptions options,
                        std::function<std::string()> metrics = {})
      : options_(std::move(options)), metrics_(std::move(metrics)) {}

  /// True when some artifact needs the event stream.
  bool collecting() const {
    return options_.spans || !options_.obs_out.empty() ||
           !options_.trace_dump.empty();
  }

  /// Feeds one event to the spans, the ring and the dump. Calls must not
  /// overlap (no cluster overlaps them); flight_record() may run alongside.
  void observe(const trace::TraceEvent& event);

  /// Writes `<obs_out>/flight-<UTC stamp>-<pid>-<n>.txt`, creating the
  /// directory, plus its `.trace.json` Chrome-trace sibling when spans
  /// exist. Returns the report's path, or "" without --obs-out or when
  /// writing failed (already logged). Never throws.
  std::string flight_record(const std::string& reason) const;

  /// The run's last step: the --spans table, the Chrome trace
  /// `<obs_out>/<trace_name>`, the --trace-dump file and, if `failures` is
  /// not empty, a flight record naming them. `width` aligns the labels with
  /// the run's summary. Throws UsageError if a file cannot be written.
  void finish(const std::string& trace_name, const std::string& failures,
              int width) const;

 private:
  ArtifactOptions options_;
  std::function<std::string()> metrics_;
  SpanCollector spans_;
  trace::TraceRecorder ring_;
  std::vector<trace::TraceEvent> dump_;
};

}  // namespace hlock::obs
