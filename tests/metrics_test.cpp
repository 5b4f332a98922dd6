// Unit tests for the measurement instruments: MessageStats and Histogram.
#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "metrics/histogram.hpp"
#include "metrics/message_stats.hpp"

namespace tbr {
namespace {

// ---- MessageStats ---------------------------------------------------------------

TEST(MessageStatsTest, StartsEmpty) {
  const MessageStats s;
  EXPECT_EQ(s.total_sent(), 0u);
  EXPECT_EQ(s.total_dropped(), 0u);
  EXPECT_EQ(s.total_control_bits(), 0u);
  EXPECT_EQ(s.total_data_bits(), 0u);
  EXPECT_EQ(s.max_control_bits_per_msg(), 0u);
}

TEST(MessageStatsTest, RecordsSendsByType) {
  MessageStats s;
  s.record_send(0, {2, 64});
  s.record_send(0, {2, 64});
  s.record_send(3, {2, 0});
  EXPECT_EQ(s.total_sent(), 3u);
  EXPECT_EQ(s.sent_of_type(0), 2u);
  EXPECT_EQ(s.sent_of_type(3), 1u);
  EXPECT_EQ(s.sent_of_type(7), 0u);
  EXPECT_EQ(s.total_control_bits(), 6u);
  EXPECT_EQ(s.total_data_bits(), 128u);
}

TEST(MessageStatsTest, TracksMaxControlBits) {
  MessageStats s;
  s.record_send(0, {2, 0});
  s.record_send(1, {970299, 0});  // an O(n^5)-style label frame
  s.record_send(2, {35, 0});
  EXPECT_EQ(s.max_control_bits_per_msg(), 970299u);
}

TEST(MessageStatsTest, RecordsDrops) {
  MessageStats s;
  s.record_drop();
  s.record_drop();
  EXPECT_EQ(s.total_dropped(), 2u);
  EXPECT_EQ(s.total_sent(), 0u);
}

TEST(MessageStatsTest, DiffSinceSnapshot) {
  MessageStats s;
  s.record_send(0, {2, 10});
  const auto snap = s.snapshot();
  s.record_send(0, {2, 10});
  s.record_send(1, {3, 0});
  const auto delta = s.diff_since(snap);
  EXPECT_EQ(delta.total_sent(), 2u);
  EXPECT_EQ(delta.sent_of_type(0), 1u);
  EXPECT_EQ(delta.sent_of_type(1), 1u);
  EXPECT_EQ(delta.total_control_bits(), 5u);
}

TEST(MessageStatsTest, DiffRequiresEarlierSnapshot) {
  MessageStats a, b;
  b.record_send(0, {2, 0});
  EXPECT_THROW((void)a.diff_since(b), ContractViolation);
}

TEST(MessageStatsTest, TypeIdRangeChecked) {
  MessageStats s;
  EXPECT_THROW(s.record_send(16, {1, 0}), ContractViolation);
  EXPECT_THROW((void)s.sent_of_type(16), ContractViolation);
}

TEST(MessageStatsTest, ResetClearsEverything) {
  MessageStats s;
  s.record_send(0, {2, 10});
  s.reset();
  EXPECT_EQ(s.total_sent(), 0u);
  EXPECT_EQ(s.max_control_bits_per_msg(), 0u);
}

// ---- Histogram -----------------------------------------------------------------

TEST(HistogramTest, EmptyBehaviour) {
  const Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_THROW((void)h.min(), ContractViolation);
  EXPECT_EQ(h.summary(), "(no samples)");
}

TEST(HistogramTest, MinMeanMax) {
  Histogram h;
  for (const auto v : {5, 1, 9, 3}) h.add(v);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 9);
  EXPECT_DOUBLE_EQ(h.mean(), 4.5);
}

TEST(HistogramTest, PercentileNearestRank) {
  Histogram h;
  for (int v = 1; v <= 100; ++v) h.add(v);
  EXPECT_EQ(h.percentile(50), 50);
  EXPECT_EQ(h.percentile(99), 99);
  EXPECT_EQ(h.percentile(100), 100);
  EXPECT_EQ(h.percentile(0), 1);
}

TEST(HistogramTest, PercentileRangeChecked) {
  Histogram h;
  h.add(1);
  EXPECT_THROW((void)h.percentile(-1), ContractViolation);
  EXPECT_THROW((void)h.percentile(101), ContractViolation);
}

TEST(HistogramTest, SingleSample) {
  Histogram h;
  h.add(7);
  EXPECT_EQ(h.percentile(50), 7);
  EXPECT_EQ(h.min(), 7);
  EXPECT_EQ(h.max(), 7);
}

TEST(HistogramTest, SummaryScalesByUnit) {
  Histogram h;
  h.add(2000);
  h.add(4000);
  EXPECT_EQ(h.summary(1000.0, 1), "2.0/2.0/4.0/4.0");
}

TEST(HistogramTest, AddAfterQueryStaysSorted) {
  Histogram h;
  h.add(10);
  EXPECT_EQ(h.max(), 10);
  h.add(5);
  EXPECT_EQ(h.min(), 5);
  EXPECT_EQ(h.max(), 10);
}

}  // namespace
}  // namespace tbr
