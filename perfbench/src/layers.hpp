// Per-layer measurements for the traced output. The core automaton steps,
// the wire codec and both transports are driven directly from here; span
// and counter data collected by the workload drivers are turned into
// per-layer metrics by the helpers below.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common.hpp"
#include "obs/span.hpp"
#include "proto/message.hpp"

namespace perfbench {

/// core.request_ns / core.deliver_ns / core.release_ns: the median wall
/// time of one runtime::HierEngine call, with `nodes` engines replaying
/// `pattern` back to back and every Effects::messages entry handed to the
/// addressee's deliver() in FIFO order, with the workload's
/// `path_compression` setting. Runs for about `seconds`.
void measure_core(Pattern pattern, std::size_t nodes, std::uint64_t seed,
                  bool path_compression, double seconds, Report& report);

/// proto.*: encode_batch_into / decode_batch over `mix`, one message per
/// batch as a single-message automaton step ships it. Runs for about
/// `seconds`.
void measure_proto(const std::vector<hlock::proto::Message>& mix,
                   double seconds, Report& report);

/// transport.{inproc,tcp}.*: one message at a time from node 0 to node 1
/// of a two-node transport, timing send_batch() and the one-way trip to
/// the return of recv_ready() on the receiving thread.
void measure_transports(bool small, Report& report);

/// core.msgs_per_acquire.<kind>: protocol messages of each hierarchical
/// kind per acquisition.
void report_message_kinds(
    const std::array<std::uint64_t, hlock::proto::kMessageKindCount>& sent,
    std::uint64_t acquisitions, Report& report);

/// Request and token paths of the spans that another node granted, in µs
/// of the spans' clock: issued -> queued or granted at the holder, and
/// granted -> cs-enter at the requester.
struct SpanPaths {
  std::vector<double> request_us;
  std::vector<double> token_us;
};
SpanPaths span_paths(const std::vector<hlock::obs::RequestSpan>& spans);

}  // namespace perfbench
