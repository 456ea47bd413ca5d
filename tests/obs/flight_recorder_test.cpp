// Tests of the post-mortem flight recorder: a dump carries every wired
// source (the telemetry exposition among them), the sibling Chrome trace is
// valid JSON, and the crash-adjacent path degrades (empty sources,
// unwritable directory) instead of throwing.
#include "obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/chrome_trace.hpp"
#include "obs/span.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/registry.hpp"
#include "trace/recorder.hpp"

namespace hlock::obs {
namespace {

using proto::LockId;
using proto::LockMode;
using proto::NodeId;

std::string read_file(const std::string& path) {
  std::ifstream in{path};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void observe_complete_request(SpanCollector& collector) {
  trace::TraceEvent event;
  event.lock = LockId{0};
  event.mode = LockMode::kW;
  event.node = NodeId{1};
  event.seq = 1;
  event.kind = trace::EventKind::kRequest;
  event.at = SimTime::ms(1);
  collector.observe(event);
  event.kind = trace::EventKind::kLocalGrant;
  event.at = SimTime::ms(2);
  collector.observe(event);
  event.kind = trace::EventKind::kEnterCs;
  collector.observe(event);
  event.kind = trace::EventKind::kExitCs;
  event.at = SimTime::ms(3);
  collector.observe(event);
}

TEST(FlightRecorder, DumpsAllSourcesAndChromeSibling) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "flight_all").string();

  trace::TraceRecorder recorder;
  recorder.note(SimTime::ms(1), NodeId{0}, "before the failure");
  SpanCollector collector;
  observe_complete_request(collector);
  telemetry::Registry registry;
  registry.counter("hlock_stalled_requests_total").inc(3);
  const std::string exposition =
      telemetry::render_prometheus(registry.snapshot());

  FlightRecordSources sources;
  sources.recorder = &recorder;
  sources.spans = &collector;
  sources.metrics = exposition;
  sources.node_count = 2;
  const std::string path =
      dump_flight_record(dir, "invariant violated: test reason", sources);

  ASSERT_FALSE(path.empty());
  ASSERT_TRUE(std::filesystem::exists(path));
  const std::string report = read_file(path);
  EXPECT_NE(report.find("reason: invariant violated: test reason"),
            std::string::npos);
  EXPECT_NE(report.find("== metrics snapshot =="), std::string::npos);
  EXPECT_NE(report.find(exposition), std::string::npos);
  EXPECT_NE(report.find("hlock_stalled_requests_total 3"), std::string::npos);
  EXPECT_NE(report.find("== request spans =="), std::string::npos);
  EXPECT_NE(report.find("spans: 1 (1 complete)"), std::string::npos);
  EXPECT_NE(report.find("== trace ring =="), std::string::npos);
  EXPECT_NE(report.find("before the failure"), std::string::npos);

  // The sibling Chrome trace exists, is referenced, and parses.
  const std::string trace_path =
      path.substr(0, path.size() - 4) + ".trace.json";
  EXPECT_NE(report.find(trace_path), std::string::npos);
  ASSERT_TRUE(std::filesystem::exists(trace_path));
  EXPECT_TRUE(validate_json(read_file(trace_path)));
}

TEST(FlightRecorder, ConsecutiveDumpsGetDistinctPaths) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "flight_two").string();
  const std::string first = dump_flight_record(dir, "first", {});
  const std::string second = dump_flight_record(dir, "second", {});
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());
  EXPECT_NE(first, second);
}

TEST(FlightRecorder, EmptySourcesStillWriteAReport) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "flight_empty").string();
  const std::string path = dump_flight_record(dir, "shutdown", {});
  ASSERT_FALSE(path.empty());
  const std::string report = read_file(path);
  EXPECT_NE(report.find("reason: shutdown"), std::string::npos);
  EXPECT_EQ(report.find("== metrics snapshot =="), std::string::npos);
  // No spans → no sibling trace file next to the report.
  EXPECT_EQ(report.find("chrome trace:"), std::string::npos);
}

TEST(FlightRecorder, UnwritableDirectoryReturnsEmptyWithoutThrowing) {
  // A path under a regular file cannot be created as a directory.
  const std::string blocker =
      (std::filesystem::path(::testing::TempDir()) / "flight_blocker")
          .string();
  std::ofstream{blocker} << "not a directory";
  const std::string path =
      dump_flight_record(blocker + "/sub", "reason", {});
  EXPECT_TRUE(path.empty());
}

}  // namespace
}  // namespace hlock::obs
