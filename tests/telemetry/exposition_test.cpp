// Exposition round-trip tests: render a registry snapshot to Prometheus
// text, parse it back, and prove the checker accepts the real thing while
// flagging every doctored violation it exists to catch.
#include "telemetry/exposition.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "telemetry/http_exporter.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/text_parse.hpp"
#include "util/check.hpp"

namespace hlock::telemetry {
namespace {

void populate(Registry& registry) {
  registry.counter(labeled("hlock_requests_total", {{"node", "0"}})).inc(5);
  registry.counter(labeled("hlock_requests_total", {{"node", "1"}})).inc(7);
  registry.gauge("hlock_queue_depth").set(3.0);
  Histogram& wait =
      registry.histogram("hlock_wait_ms", linear_bounds(1.0, 1.0, 4));
  wait.record(0.5);
  wait.record(2.5);
  wait.record(50.0);
}

TEST(Exposition, RenderParseRoundTripIsClean) {
  Registry registry;
  populate(registry);
  const std::string text = render_prometheus(registry.snapshot());

  const ParsedExposition parsed = parse_exposition(text);
  EXPECT_TRUE(parsed.errors.empty());
  EXPECT_TRUE(check_exposition(parsed).empty())
      << check_exposition(parsed).front();

  EXPECT_EQ(parsed.types.at("hlock_requests_total"), "counter");
  EXPECT_EQ(parsed.types.at("hlock_queue_depth"), "gauge");
  EXPECT_EQ(parsed.types.at("hlock_wait_ms"), "histogram");

  const ParsedSeries* node0 =
      parsed.find("hlock_requests_total{node=\"0\"}");
  ASSERT_NE(node0, nullptr);
  EXPECT_EQ(node0->value, 5.0);
  EXPECT_EQ(node0->family, "hlock_requests_total");
  EXPECT_EQ(parsed.prefixed_sum("hlock_requests_total"), 12.0);

  // Histogram expansion: cumulative buckets ending in +Inf, sum, count.
  const ParsedSeries* inf = parsed.find("hlock_wait_ms_bucket{le=\"+Inf\"}");
  ASSERT_NE(inf, nullptr);
  EXPECT_EQ(inf->value, 3.0);
  const ParsedSeries* count = parsed.find("hlock_wait_ms_count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->value, 3.0);
  const ParsedSeries* sum = parsed.find("hlock_wait_ms_sum");
  ASSERT_NE(sum, nullptr);
  EXPECT_DOUBLE_EQ(sum->value, 53.0);
}

TEST(Exposition, TypeLinesAppearOncePerFamily) {
  Registry registry;
  populate(registry);
  const std::string text = render_prometheus(registry.snapshot());
  std::size_t count = 0;
  std::size_t at = 0;
  while ((at = text.find("# TYPE hlock_requests_total ", at)) !=
         std::string::npos) {
    ++count;
    ++at;
  }
  EXPECT_EQ(count, 1u);
}

TEST(Exposition, RenderingIsByteDeterministic) {
  Registry registry;
  populate(registry);
  EXPECT_EQ(render_prometheus(registry.snapshot()),
            render_prometheus(registry.snapshot()));
}

std::vector<std::string> violations_of(const std::string& text) {
  return check_exposition(parse_exposition(text));
}

bool mentions(const std::vector<std::string>& violations,
              const std::string& needle) {
  for (const std::string& v : violations) {
    if (v.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(ExpositionChecker, FlagsDuplicateSeries) {
  const std::string text =
      "# TYPE hlock_x_total counter\n"
      "hlock_x_total 1\n"
      "hlock_x_total 2\n";
  EXPECT_TRUE(mentions(violations_of(text), "duplicate series"));
}

TEST(ExpositionChecker, FlagsMissingTypeLine) {
  EXPECT_TRUE(mentions(violations_of("hlock_untyped_total 1\n"),
                       "without TYPE line"));
}

TEST(ExpositionChecker, FlagsNegativeCounters) {
  const std::string text =
      "# TYPE hlock_x_total counter\n"
      "hlock_x_total -3\n";
  EXPECT_TRUE(mentions(violations_of(text), "negative counter"));
  // A negative gauge is fine.
  EXPECT_TRUE(violations_of("# TYPE hlock_g gauge\nhlock_g -3\n").empty());
}

TEST(ExpositionChecker, FlagsNonCumulativeBuckets) {
  const std::string text =
      "# TYPE hlock_ms histogram\n"
      "hlock_ms_bucket{le=\"1\"} 5\n"
      "hlock_ms_bucket{le=\"2\"} 3\n"
      "hlock_ms_bucket{le=\"+Inf\"} 5\n"
      "hlock_ms_sum 9\n"
      "hlock_ms_count 5\n";
  EXPECT_TRUE(mentions(violations_of(text), "not cumulative"));
}

TEST(ExpositionChecker, FlagsBucketsOutOfOrder) {
  const std::string text =
      "# TYPE hlock_ms histogram\n"
      "hlock_ms_bucket{le=\"2\"} 3\n"
      "hlock_ms_bucket{le=\"1\"} 3\n"
      "hlock_ms_bucket{le=\"+Inf\"} 3\n"
      "hlock_ms_sum 6\n"
      "hlock_ms_count 3\n";
  EXPECT_TRUE(mentions(violations_of(text), "out of order"));
}

TEST(ExpositionChecker, FlagsMissingInfBucket) {
  const std::string text =
      "# TYPE hlock_ms histogram\n"
      "hlock_ms_bucket{le=\"1\"} 2\n"
      "hlock_ms_sum 2\n"
      "hlock_ms_count 2\n";
  EXPECT_TRUE(mentions(violations_of(text), "missing +Inf"));
}

TEST(ExpositionChecker, FlagsCountInfMismatch) {
  const std::string text =
      "# TYPE hlock_ms histogram\n"
      "hlock_ms_bucket{le=\"1\"} 2\n"
      "hlock_ms_bucket{le=\"+Inf\"} 2\n"
      "hlock_ms_sum 2\n"
      "hlock_ms_count 7\n";
  EXPECT_TRUE(mentions(violations_of(text), "_count != +Inf"));
}

TEST(ExpositionChecker, LabeledHistogramsAreKeyedPerLabelSet) {
  // Two nodes' histograms must not be conflated into one bucket run.
  const std::string text =
      "# TYPE hlock_ms histogram\n"
      "hlock_ms_bucket{node=\"0\",le=\"1\"} 2\n"
      "hlock_ms_bucket{node=\"0\",le=\"+Inf\"} 2\n"
      "hlock_ms_sum{node=\"0\"} 2\n"
      "hlock_ms_count{node=\"0\"} 2\n"
      "hlock_ms_bucket{node=\"1\",le=\"1\"} 9\n"
      "hlock_ms_bucket{node=\"1\",le=\"+Inf\"} 9\n"
      "hlock_ms_sum{node=\"1\"} 9\n"
      "hlock_ms_count{node=\"1\"} 9\n";
  EXPECT_TRUE(violations_of(text).empty());
}

TEST(ExpositionChecker, ReportsParseErrors) {
  EXPECT_TRUE(mentions(violations_of("# TYPE broken\n"), "malformed TYPE"));
  EXPECT_TRUE(mentions(violations_of("hlock_x_total\n"),
                       "no value separator"));
  EXPECT_TRUE(mentions(
      violations_of("# TYPE hlock_x gauge\nhlock_x potato\n"),
      "unparseable value"));
}

TEST(ExpositionChecker, MonotoneComparesCountersAcrossScrapes) {
  const std::string earlier =
      "# TYPE hlock_x_total counter\n"
      "# TYPE hlock_g gauge\n"
      "hlock_x_total 10\n"
      "hlock_g 10\n";
  const std::string later_ok =
      "# TYPE hlock_x_total counter\n"
      "# TYPE hlock_g gauge\n"
      "hlock_x_total 12\n"
      "hlock_g 1\n";  // gauges may fall freely
  const std::string later_bad =
      "# TYPE hlock_x_total counter\n"
      "hlock_x_total 4\n";
  EXPECT_TRUE(check_monotone(parse_exposition(earlier),
                             parse_exposition(later_ok))
                  .empty());
  const std::vector<std::string> decreases = check_monotone(
      parse_exposition(earlier), parse_exposition(later_bad));
  ASSERT_EQ(decreases.size(), 1u);
  EXPECT_NE(decreases[0].find("counter decreased"), std::string::npos);
  EXPECT_NE(decreases[0].find("hlock_x_total"), std::string::npos);
}

TEST(Exposition, ScrapeReadsWhatTheExporterServes) {
  Registry registry;
  populate(registry);
  HttpExporter exporter{registry, 0};
  const std::string body = scrape(exporter.port());
  EXPECT_EQ(body, render_prometheus(registry.snapshot()));
  EXPECT_TRUE(check_exposition(parse_exposition(body)).empty());
  EXPECT_EQ(exporter.scrapes_served(), 1u);
  const std::uint16_t port = exporter.port();
  exporter.stop();
  EXPECT_THROW(scrape(port), UsageError);  // nobody listens any more
}

}  // namespace
}  // namespace hlock::telemetry
