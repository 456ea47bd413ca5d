// Chrome trace_event JSON export of request spans.
//
// Emits the Trace Event Format consumed by chrome://tracing and Perfetto:
// one track (pid) per node, one async span ("b"/"e" events keyed by the
// request id) per application-level lock request on its origin node's
// track, an instant event on the acting node's track for every phase
// transition, and an "X" duration slice for each critical section.
// Timestamps are microseconds (the format's unit) converted from the
// runtime's nanosecond SimTime stamps; Lamport timestamps ride in each
// event's args so causal order stays inspectable in the UI.
//
// The exporter writes JSON by hand — the repo takes no dependencies — so
// validate_json() provides an exact structural check, which
// write_chrome_trace() applies to every trace a tool or flight record
// writes (CI additionally round-trips the artifact through
// `python3 -m json.tool`).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "obs/span.hpp"

namespace hlock::obs {

/// Renders `spans` as a complete Chrome trace_event JSON document
/// ({"traceEvents": [...], "displayTimeUnit": "ms"}) with a track for each
/// of nodes 0..node_count-1 and for every node the spans touch.
std::string chrome_trace_json(const std::vector<RequestSpan>& spans,
                              std::size_t node_count = 0);

/// Writes chrome_trace_json(spans, node_count) to `path` once
/// validate_json() accepts it. Throws InvariantError, writing nothing, if
/// the exporter produced invalid JSON, and UsageError if `path` cannot be
/// written.
void write_chrome_trace(const std::string& path,
                        const std::vector<RequestSpan>& spans,
                        std::size_t node_count);

/// Strict structural JSON validator (RFC 8259 grammar, no extensions; UTF-8
/// passthrough). True iff `text` is exactly one valid JSON value.
bool validate_json(std::string_view text);

}  // namespace hlock::obs
