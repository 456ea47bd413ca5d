// Tests of the flight records obs::RunArtifacts writes: a record carries
// everything the run observed plus the telemetry exposition, the sibling
// Chrome trace is valid JSON, and the crash-adjacent path degrades (nothing
// observed, unwritable directory) instead of throwing.
#include "obs/run_artifacts.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/registry.hpp"

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

void observe_complete_request(RunArtifacts& artifacts) {
  trace::TraceEvent event;
  event.lock = LockId{0};
  event.mode = LockMode::kW;
  event.node = NodeId{1};
  event.seq = 1;
  event.kind = trace::EventKind::kRequest;
  event.at = SimTime::ms(1);
  artifacts.observe(event);
  event.kind = trace::EventKind::kLocalGrant;
  event.at = SimTime::ms(2);
  artifacts.observe(event);
  event.kind = trace::EventKind::kEnterCs;
  artifacts.observe(event);
  event.kind = trace::EventKind::kExitCs;
  event.at = SimTime::ms(3);
  artifacts.observe(event);
}

/// Records under `dir` with nothing observed and no metrics.
std::string empty_record(const std::string& dir, const std::string& reason) {
  return RunArtifacts{{.obs_out = dir}}.flight_record(reason);
}

TEST(FlightRecorder, DumpsAllSourcesAndChromeSibling) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "flight_all").string();

  telemetry::Registry registry;
  registry.counter("hlock_stalled_requests_total").inc(3);
  const std::string exposition =
      telemetry::render_prometheus(registry.snapshot());
  RunArtifacts artifacts{{.obs_out = dir, .node_count = 2},
                         [&exposition] { return exposition; }};
  trace::TraceEvent note;
  note.at = SimTime::ms(1);
  note.kind = trace::EventKind::kNote;
  note.node = NodeId{0};
  note.detail = "before the failure";
  artifacts.observe(note);
  observe_complete_request(artifacts);
  const std::string path =
      artifacts.flight_record("invariant violated: test reason");

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
  const std::string first = empty_record(dir, "first");
  const std::string second = empty_record(dir, "second");
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());
  EXPECT_NE(first, second);
}

TEST(FlightRecorder, EmptySourcesStillWriteAReport) {
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "flight_empty").string();
  const std::string path = empty_record(dir, "shutdown");
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
  const std::string path = empty_record(blocker + "/sub", "reason");
  EXPECT_TRUE(path.empty());
}

TEST(RunArtifacts, FinishWritesEveryArtifactFromTheOneStream) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "run_finish";
  std::filesystem::remove_all(dir);
  // The dump goes inside the --obs-out directory, which finish() creates.
  const std::string dump = (dir / "run.trace").string();
  RunArtifacts artifacts{{.spans = true,
                          .obs_out = dir.string(),
                          .trace_dump = dump,
                          .node_count = 2}};
  ASSERT_TRUE(artifacts.collecting());
  observe_complete_request(artifacts);

  ::testing::internal::CaptureStdout();
  artifacts.finish("run-trace.json", "lost mutual exclusion", 14);
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("phase-latency breakdown (1 spans, 1 complete)"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("trace dump    : 4 events -> " + dump), std::string::npos)
      << out;

  // Every observed event, in order, as a line hlock_lint parses.
  std::istringstream lines{read_file(dump)};
  std::vector<trace::EventKind> kinds;
  for (std::string line; std::getline(lines, line);) {
    const auto event = trace::parse_event(line);
    ASSERT_TRUE(event.has_value()) << line;
    kinds.push_back(event->kind);
  }
  using trace::EventKind;
  EXPECT_EQ(kinds, (std::vector<EventKind>{
                       EventKind::kRequest, EventKind::kLocalGrant,
                       EventKind::kEnterCs, EventKind::kExitCs}));
  EXPECT_TRUE(validate_json(read_file((dir / "run-trace.json").string())));

  // A failed run ends with a record naming its failures.
  const std::size_t at = out.find("flight record : ");
  ASSERT_NE(at, std::string::npos) << out;
  const std::size_t begin = at + std::string{"flight record : "}.size();
  const std::string record = out.substr(begin, out.find('\n', begin) - begin);
  EXPECT_NE(read_file(record).find("reason: lost mutual exclusion"),
            std::string::npos);
}

}  // namespace
}  // namespace hlock::obs
