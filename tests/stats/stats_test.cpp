#include <gtest/gtest.h>

#include "stats/metrics.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "util/check.hpp"

namespace hlock::stats {
namespace {

using proto::MessageKind;

TEST(Summary, EmptyIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.max, 0.0);
}

TEST(Summary, SingleSample) {
  const Summary s = summarize({4.5});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 4.5);
  EXPECT_DOUBLE_EQ(s.min, 4.5);
  EXPECT_DOUBLE_EQ(s.max, 4.5);
  EXPECT_DOUBLE_EQ(s.p50, 4.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Summary, KnownPopulation) {
  const Summary s = summarize({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_EQ(s.count, 10u);
  EXPECT_DOUBLE_EQ(s.mean, 5.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
  EXPECT_DOUBLE_EQ(s.p50, 5.5);
  EXPECT_NEAR(s.p90, 9.1, 1e-9);
  EXPECT_NEAR(s.p95, 9.55, 1e-9);
  EXPECT_NEAR(s.stddev, 3.02765, 1e-4);
}

TEST(Summary, OrderIndependent) {
  const Summary a = summarize({3, 1, 2});
  const Summary b = summarize({1, 2, 3});
  EXPECT_DOUBLE_EQ(a.p50, b.p50);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
}

TEST(Summary, ToStringPrintsEveryReportedQuantile) {
  Summary s;
  s.count = 4;
  s.mean = 1.5;
  s.p50 = 1.0;
  s.p90 = 2.0;
  s.p95 = 2.5;
  s.p99 = 3.0;
  s.p999 = 3.5;
  s.max = 4.0;
  EXPECT_EQ(to_string(s),
            "n=4 mean=1.5 p50=1 p90=2 p95=2.5 p99=3 p999=3.5 max=4");
}

TEST(Summary, P999TracksExtremeTail) {
  // Twenty huge outliers in ten thousand samples: p99 stays small while
  // p999 lands inside the outlier cluster — the tail story p99 misses.
  std::vector<double> samples(9980, 1.0);
  samples.insert(samples.end(), 20, 1000.0);
  const Summary s = summarize(samples);
  EXPECT_LT(s.p99, 2.0);
  EXPECT_GT(s.p999, 900.0);
  EXPECT_LE(s.p999, 1000.0);
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> sorted{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.25), 2.5);
}

TEST(Quantile, RejectsOutOfRange) {
  EXPECT_THROW(quantile_sorted({1.0}, -0.1), hlock::UsageError);
  EXPECT_THROW(quantile_sorted({1.0}, 1.1), hlock::UsageError);
}

TEST(MessageCounter, CountsPerKindAndTotal) {
  MessageCounter counter;
  counter.add(MessageKind::kHierRequest);
  counter.add(MessageKind::kHierRequest);
  counter.add(MessageKind::kHierGrant);
  EXPECT_EQ(counter.count(MessageKind::kHierRequest), 2u);
  EXPECT_EQ(counter.count(MessageKind::kHierGrant), 1u);
  EXPECT_EQ(counter.count(MessageKind::kNaimiToken), 0u);
  EXPECT_EQ(counter.total(), 3u);
}

TEST(LatencyRecorder, RecordsMilliseconds) {
  LatencyRecorder recorder;
  recorder.record(SimTime::ms(2));
  recorder.record(SimTime::us(500));
  EXPECT_EQ(recorder.count(), 2u);
  EXPECT_DOUBLE_EQ(recorder.samples_ms()[0], 2.0);
  EXPECT_DOUBLE_EQ(recorder.samples_ms()[1], 0.5);
  EXPECT_DOUBLE_EQ(recorder.summarize().mean, 1.25);
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable table;
  table.set_header({"nodes", "msgs"});
  table.add_row({"2", "3.10"});
  table.add_row({"100", "3.25"});
  const std::string out = table.render();
  EXPECT_NE(out.find("nodes  msgs"), std::string::npos);
  EXPECT_NE(out.find("  2"), std::string::npos);
  EXPECT_NE(out.find("100"), std::string::npos);
}

TEST(TextTable, CsvEscapesSpecialCharacters) {
  TextTable table;
  table.set_header({"name", "value"});
  table.add_row({"a,b", "he said \"hi\""});
  const std::string csv = table.render_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(TextTable, RowWidthValidated) {
  TextTable table;
  table.set_header({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), hlock::UsageError);
}

TEST(TextTable, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
  EXPECT_EQ(TextTable::num(1.5, 3), "1.500");
}

}  // namespace
}  // namespace hlock::stats
