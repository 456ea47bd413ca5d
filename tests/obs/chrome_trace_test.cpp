// Tests of the Chrome trace_event exporter and the strict JSON validator
// that guards it (the exporter writes JSON by hand — the repo takes no
// dependencies — so the validator is the structural safety net).
#include "obs/chrome_trace.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/span.hpp"
#include "util/check.hpp"

namespace hlock::obs {
namespace {

using proto::LockId;
using proto::LockMode;
using proto::NodeId;
using proto::RequestId;

RequestSpan sample_span() {
  RequestSpan span;
  span.id = RequestId{NodeId{0}, 1};
  span.lock = LockId{0};
  span.mode = LockMode::kW;
  span.events = {
      SpanEvent{Phase::kIssued, SimTime::ms(1), 1, NodeId{0}},
      SpanEvent{Phase::kGranted, SimTime::ms(2), 4, NodeId{1}},
      SpanEvent{Phase::kCsEntered, SimTime::us(2500), 5, NodeId{0}},
      SpanEvent{Phase::kCsExited, SimTime::ms(3), 7, NodeId{0}},
  };
  return span;
}

// The exporter's exact output is pinned golden-file style: the trace
// format has no schema to validate against beyond "Chrome loads it", so
// any drift in field names, units or event shapes must be a conscious
// choice.
TEST(ChromeTrace, GoldenDocument) {
  const std::string json =
      chrome_trace_json({sample_span()}, 2);
  EXPECT_EQ(json,
            "{\"traceEvents\": [\n"
            "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
            "\"tid\": 0, \"args\": {\"name\": \"node0\"}},\n"
            "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
            "\"tid\": 0, \"args\": {\"name\": \"node1\"}},\n"
            "{\"name\": \"lock0 W node0#1\", \"cat\": \"request\", "
            "\"ph\": \"b\", \"id\": \"lock0/node0#1\", \"pid\": 0, "
            "\"tid\": 0, \"ts\": 1000.000, \"args\": {\"mode\": \"W\", "
            "\"priority\": 0}},\n"
            "{\"name\": \"lock0 W node0#1\", \"cat\": \"request\", "
            "\"ph\": \"e\", \"id\": \"lock0/node0#1\", \"pid\": 0, "
            "\"tid\": 0, \"ts\": 3000.000, \"args\": {\"complete\": "
            "true}},\n"
            "{\"name\": \"issued\", \"cat\": \"phase\", \"ph\": \"i\", "
            "\"s\": \"t\", \"pid\": 0, \"tid\": 0, \"ts\": 1000.000, "
            "\"args\": {\"request\": \"lock0/node0#1\", \"lamport\": 1}},\n"
            "{\"name\": \"granted\", \"cat\": \"phase\", \"ph\": \"i\", "
            "\"s\": \"t\", \"pid\": 1, \"tid\": 0, \"ts\": 2000.000, "
            "\"args\": {\"request\": \"lock0/node0#1\", \"lamport\": 4}},\n"
            "{\"name\": \"cs-enter\", \"cat\": \"phase\", \"ph\": \"i\", "
            "\"s\": \"t\", \"pid\": 0, \"tid\": 0, \"ts\": 2500.000, "
            "\"args\": {\"request\": \"lock0/node0#1\", \"lamport\": 5}},\n"
            "{\"name\": \"cs-exit\", \"cat\": \"phase\", \"ph\": \"i\", "
            "\"s\": \"t\", \"pid\": 0, \"tid\": 0, \"ts\": 3000.000, "
            "\"args\": {\"request\": \"lock0/node0#1\", \"lamport\": 7}},\n"
            "{\"name\": \"CS lock0 W\", \"cat\": \"cs\", \"ph\": \"X\", "
            "\"pid\": 0, \"tid\": 0, \"ts\": 2500.000, \"dur\": 500.000, "
            "\"args\": {\"request\": \"lock0/node0#1\"}}\n"
            "], \"displayTimeUnit\": \"ms\"}\n");
  EXPECT_TRUE(validate_json(json));
}

TEST(ChromeTrace, EmptySpanListIsStillValidJson) {
  const std::string json = chrome_trace_json({});
  EXPECT_TRUE(validate_json(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(ChromeTrace, InfersUndeclaredNodesFromSpans) {
  RequestSpan span = sample_span();
  const std::string json = chrome_trace_json({span}, 0);
  // Both the origin (node0) and the granter (node1) get named tracks even
  // though no node count was declared.
  EXPECT_NE(json.find("\"name\": \"node0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"node1\""), std::string::npos);
  EXPECT_TRUE(validate_json(json));
}

TEST(ChromeTrace, IncompleteSpanExportsWithoutCsSlice) {
  RequestSpan span = sample_span();
  span.events.resize(2);  // never entered its critical section
  const std::string json = chrome_trace_json({span});
  EXPECT_TRUE(validate_json(json));
  EXPECT_EQ(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"complete\": false"), std::string::npos);
}

TEST(ChromeTrace, WriterWritesTheDocumentOrThrowsUsageError) {
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "written-trace.json";
  write_chrome_trace(path.string(), {sample_span()}, 2);
  std::ifstream in{path};
  std::ostringstream written;
  written << in.rdbuf();
  EXPECT_EQ(written.str(), chrome_trace_json({sample_span()}, 2));
  // A path under a regular file cannot be opened.
  EXPECT_THROW(
      write_chrome_trace((path / "sub.json").string(), {sample_span()}, 2),
      UsageError);
}

TEST(JsonValidator, AcceptsValidDocuments) {
  EXPECT_TRUE(validate_json("{}"));
  EXPECT_TRUE(validate_json("[]"));
  EXPECT_TRUE(validate_json("null"));
  EXPECT_TRUE(validate_json("true"));
  EXPECT_TRUE(validate_json("-12.5e+3"));
  EXPECT_TRUE(validate_json("\"esc \\\" \\\\ \\n \\u00fc\""));
  EXPECT_TRUE(validate_json("  {\"a\": [1, 2.0, {\"b\": null}]}  "));
}

TEST(JsonValidator, RejectsInvalidDocuments) {
  EXPECT_FALSE(validate_json(""));
  EXPECT_FALSE(validate_json("{"));
  EXPECT_FALSE(validate_json("{\"a\": }"));
  EXPECT_FALSE(validate_json("{'a': 1}"));          // wrong quotes
  EXPECT_FALSE(validate_json("{\"a\": 1,}"));       // trailing comma
  EXPECT_FALSE(validate_json("[1, 2] x"));          // trailing garbage
  EXPECT_FALSE(validate_json("01"));                // leading zero
  EXPECT_FALSE(validate_json("1."));                // bare decimal point
  EXPECT_FALSE(validate_json("\"unterminated"));
  EXPECT_FALSE(validate_json("\"bad \\q escape\""));
  EXPECT_FALSE(validate_json("\"raw \n newline\""));
  EXPECT_FALSE(validate_json("nul"));
  // Nesting past the validator's depth cap is rejected, not stack-crashed.
  std::string deep(300, '[');
  deep += std::string(300, ']');
  EXPECT_FALSE(validate_json(deep));
}

}  // namespace
}  // namespace hlock::obs
