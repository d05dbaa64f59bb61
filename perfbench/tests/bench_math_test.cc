// Tests for the benchmark's own arithmetic (src/bench_math.h): which tail
// percentile a sample supports, open-loop due-time accounting, error-rate
// counting, and span self time.
#include "bench_math.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace perfbench {
namespace {

using std::chrono::microseconds;

std::vector<double> Iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(OrderStats, MedianOddEvenAndUnsorted) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7}), 7.0);
  EXPECT_THROW(Median({}), std::invalid_argument);
}

TEST(OrderStats, NearestRank) {
  const std::vector<double> v = Iota(100);
  EXPECT_DOUBLE_EQ(NearestRankPercentile(v, 99), 99.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile(v, 50), 50.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile(v, 100), 100.0);
  EXPECT_DOUBLE_EQ(NearestRankPercentile(Iota(3), 1), 1.0);
}

TEST(SupportedTail, P99NeedsTenSamplesBeyond) {
  // 1000 samples: rank 990, ten beyond -> p99 is supported as asked.
  const auto full = SupportedTail(Iota(1000));
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->percentile, 99);
  EXPECT_EQ(full->beyond, 10u);
  EXPECT_DOUBLE_EQ(full->value, 990.0);
  EXPECT_EQ(full->Label(), "p99");

  // 999 samples: p99's rank is 990, only nine beyond -> fall back to p98.
  const auto short_by_one = SupportedTail(Iota(999));
  ASSERT_TRUE(short_by_one.has_value());
  EXPECT_EQ(short_by_one->percentile, 98);
  EXPECT_GE(short_by_one->beyond, 10u);
  EXPECT_EQ(short_by_one->Label(), "p98 (p99 unsupported)");
}

TEST(SupportedTail, SmallSamplesReportTheHighestSupported) {
  // 100 samples: p90 has exactly ten beyond; p91 has nine.
  const auto tail = SupportedTail(Iota(100));
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->percentile, 90);
  EXPECT_EQ(tail->beyond, 10u);
  EXPECT_DOUBLE_EQ(tail->value, 90.0);
  // Too few samples for any tail above the median.
  EXPECT_FALSE(SupportedTail(Iota(20)).has_value());
  EXPECT_FALSE(SupportedTail({}).has_value());
}

TEST(SupportedTail, EveryReportedPercentileHasItsTenSamples) {
  for (std::size_t n = 0; n < 3000; n += 7) {
    const auto tail = SupportedTail(Iota(n));
    if (!tail) continue;
    const std::vector<double> v = Iota(n);
    std::size_t above = 0;
    for (double x : v) above += x > tail->value ? 1 : 0;
    EXPECT_GE(above, 10u) << "n=" << n;
    if (tail->percentile < 99) {
      EXPECT_LT(SamplesBeyond(n, tail->percentile + 1), 10u) << "n=" << n;
    }
  }
}

TEST(OpenLoop, ScheduleIsFixedRate) {
  const Clock::time_point t0{};
  const OpenLoopSchedule schedule(t0, 1000.0);  // one request per ms
  EXPECT_EQ(schedule.Due(0), t0);
  EXPECT_NEAR(MicrosBetween(t0, schedule.Due(5)), 5000.0, 1e-3);
  EXPECT_NEAR(MicrosBetween(t0, schedule.Due(1000000)), 1e9, 1.0);
  EXPECT_THROW(OpenLoopSchedule(t0, 0.0), std::invalid_argument);
}

TEST(OpenLoop, LatencyRunsFromDueTimeNotSendTime) {
  const Clock::time_point t0{};
  const OpenLoopSchedule schedule(t0, 1000.0);
  OpenLoopStats stats;
  // Request 0 goes out on time and is answered 100 us later.
  stats.RecordSend(schedule.Due(0), schedule.Due(0));
  stats.RecordAnswer(schedule.Due(0), schedule.Due(0) + microseconds(100));
  // The generator stalls: request 1 (due at 1 ms) leaves at 3 ms and is
  // answered 100 us after that. Its latency includes the 2 ms stall.
  const Clock::time_point due1 = schedule.Due(1);
  stats.RecordSend(due1, due1 + microseconds(2000));
  stats.RecordAnswer(due1, due1 + microseconds(2100));
  ASSERT_EQ(stats.latency_us().size(), 2u);
  EXPECT_NEAR(stats.latency_us()[0], 100.0, 1e-6);
  EXPECT_NEAR(stats.latency_us()[1], 2100.0, 1e-6);
  EXPECT_EQ(stats.sent(), 2u);
  EXPECT_NEAR(stats.lateness_us()[0], 0.0, 1e-9);
  EXPECT_NEAR(stats.lateness_us()[1], 2000.0, 1e-6);
}

TEST(OpenLoop, EarlySendIsNotNegativeLateness) {
  const Clock::time_point t0{};
  OpenLoopStats stats;
  stats.RecordSend(t0 + microseconds(50), t0);
  EXPECT_DOUBLE_EQ(stats.lateness_us()[0], 0.0);
  OpenLoopStats other;
  other.RecordSend(t0, t0 + microseconds(7));
  other.RecordAnswer(t0, t0 + microseconds(9));
  stats.Merge(other);
  EXPECT_EQ(stats.sent(), 2u);
  EXPECT_EQ(stats.latency_us().size(), 1u);
}

TEST(Outcomes, RefusedAndWrongBitsAreErrors) {
  const std::vector<double> a = {0.25, -1.5, 3.0};
  const std::vector<double> b = {0.25, -1.5, 3.5};
  std::vector<double> near_a = a;
  near_a[2] = std::nextafter(3.0, 4.0);  // one ulp off
  std::vector<double> signed_zero = {0.0};
  const std::vector<double> zero = {0.0};
  signed_zero[0] = -0.0;

  EXPECT_EQ(ClassifyAnswer(false, a, {&a}), Outcome::kOk);
  EXPECT_EQ(ClassifyAnswer(false, b, {&a, &b}), Outcome::kOk);
  EXPECT_EQ(ClassifyAnswer(false, near_a, {&a, &b}), Outcome::kWrongBits);
  EXPECT_EQ(ClassifyAnswer(false, signed_zero, {&zero}), Outcome::kWrongBits);
  EXPECT_EQ(ClassifyAnswer(false, {0.25, -1.5}, {&a}), Outcome::kWrongBits);
  EXPECT_EQ(ClassifyAnswer(true, a, {&a}), Outcome::kRefused);

  OutcomeCounts counts;
  for (int i = 0; i < 6; ++i) counts.Add(Outcome::kOk);
  counts.Add(ClassifyAnswer(true, a, {&a}));
  counts.Add(ClassifyAnswer(false, near_a, {&a}));
  EXPECT_EQ(counts.attempted(), 8u);
  EXPECT_EQ(counts.refused(), 1u);
  EXPECT_EQ(counts.wrong_bits(), 1u);
  EXPECT_EQ(counts.errors(), 2u);
  EXPECT_DOUBLE_EQ(counts.ErrorRate(), 0.25);

  OutcomeCounts more;
  more.Add(Outcome::kFailed);
  counts.Merge(more);
  EXPECT_EQ(counts.attempted(), 9u);
  EXPECT_EQ(counts.errors(), 3u);
  EXPECT_DOUBLE_EQ(OutcomeCounts().ErrorRate(), 0.0);
}

Span MakeSpan(int parent, double start, double end) {
  Span s;
  s.name = "x";
  s.parent = parent;
  s.start_us = start;
  s.end_us = end;
  return s;
}

TEST(Spans, SelfTimeSubtractsChildren) {
  // root [0,100] with children [10,30] and [50,60]; grandchild [12,20].
  const std::vector<Span> spans = {MakeSpan(-1, 0, 100), MakeSpan(0, 10, 30),
                                   MakeSpan(0, 50, 60), MakeSpan(1, 12, 20)};
  const std::vector<double> self = SelfTimesUs(spans);
  EXPECT_DOUBLE_EQ(self[0], 70.0);
  EXPECT_DOUBLE_EQ(self[1], 12.0);
  EXPECT_DOUBLE_EQ(self[2], 10.0);
  EXPECT_DOUBLE_EQ(self[3], 8.0);
}

TEST(Spans, OverlappingAndOverhangingChildrenCountOnce) {
  // Pipelined children overlap each other; one runs past the parent's end.
  const std::vector<Span> spans = {MakeSpan(-1, 0, 100), MakeSpan(0, 10, 40),
                                   MakeSpan(0, 20, 50), MakeSpan(0, 90, 130),
                                   MakeSpan(0, -5, 5)};
  const std::vector<double> self = SelfTimesUs(spans);
  // covered: [0,5] + [10,50] + [90,100] = 5 + 40 + 10 = 55
  EXPECT_DOUBLE_EQ(self[0], 45.0);
  // A parent fully covered by children has zero self time.
  const std::vector<Span> full = {MakeSpan(-1, 0, 10), MakeSpan(0, 0, 6),
                                  MakeSpan(0, 4, 10)};
  EXPECT_DOUBLE_EQ(SelfTimesUs(full)[0], 0.0);
}

TEST(Spans, RecorderNestsAndMerges) {
  const Clock::time_point epoch = Clock::now();
  SpanRecorder a(true, epoch);
  {
    ScopedSpan outer(&a, "outer", 1);
    ScopedSpan inner(&a, "inner", 1);
  }
  ASSERT_EQ(a.spans().size(), 2u);
  EXPECT_EQ(a.spans()[0].parent, -1);
  EXPECT_EQ(a.spans()[1].parent, 0);
  EXPECT_GE(a.spans()[0].end_us, a.spans()[1].end_us);

  SpanRecorder b(true, epoch + microseconds(10));
  {
    ScopedSpan outer(&b, "outer", 2);
    b.Add("inner", 2, epoch + microseconds(10), epoch + microseconds(12));
  }
  a.Merge(b);
  ASSERT_EQ(a.spans().size(), 4u);
  EXPECT_EQ(a.spans()[3].parent, 2);  // rebased onto the merged list
  EXPECT_NEAR(a.spans()[3].start_us, 10.0, 1e-6);
  EXPECT_NEAR(a.spans()[3].duration_us(), 2.0, 1e-6);

  // The merged child covers at most its 2 us of the merged parent.
  const std::vector<double> self = SelfTimesUs(a.spans());
  EXPECT_LE(self[2], a.spans()[2].duration_us());
  EXPECT_GE(self[2], a.spans()[2].duration_us() - 2.0 - 1e-6);

  SpanRecorder off(false, epoch);
  { ScopedSpan s(&off, "ignored", 3); }
  off.Add("ignored", 3, epoch, epoch);
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace perfbench
