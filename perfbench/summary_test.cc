// Tests of the benchmark's summary math, its clocks and result formatting.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "perfbench/calibrate.h"
#include "perfbench/metrics.h"
#include "perfbench/summary.h"
#include "perfbench/trace.h"

namespace perfbench {
namespace {

TEST(PercentileTest, InterpolatesBetweenRanks) {
  const std::vector<double> v = {4, 1, 3, 2, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5);
  EXPECT_DOUBLE_EQ(Percentile(v, 90), 4.6);
  EXPECT_DOUBLE_EQ(Median({1, 2, 3, 4}), 2.5);
  EXPECT_THROW(Percentile({}, 50), std::invalid_argument);
}

TEST(PercentileTest, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(39), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(40), 75.0);
  EXPECT_EQ(HighestSupportedPercentile(99), 75.0);
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(199), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(200), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  // With exactly 100 samples, p90's rank is 89.1: ten samples lie above it.
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) {
    v.push_back(i);
  }
  const double p90 = Percentile(v, HighestSupportedPercentile(v.size()));
  int beyond = 0;
  for (const double x : v) {
    beyond += x > p90;
  }
  EXPECT_EQ(beyond, 10);
}

TEST(QuartilesTest, MatchesPythonStatisticsQuantilesExclusive) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  EXPECT_EQ(Quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1}),
            std::make_pair(2.75, 8.25));
  // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
  EXPECT_EQ(Quartiles({1, 2, 3, 4}), std::make_pair(1.25, 3.75));
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  EXPECT_EQ(Quartiles({1, 2}), std::make_pair(0.75, 2.25));
  EXPECT_THROW(Quartiles({1}), std::invalid_argument);
}

TEST(FailedShareTest, BaseIsEveryAttemptedOperation) {
  EXPECT_DOUBLE_EQ(FailedShare(0, 7), 0.0);
  EXPECT_DOUBLE_EQ(FailedShare(3, 12), 0.25);
  EXPECT_DOUBLE_EQ(FailedShare(5, 5), 1.0);
  EXPECT_THROW(FailedShare(0, 0), std::invalid_argument);
  EXPECT_THROW(FailedShare(3, 2), std::invalid_argument);
}

SpanRecord Span(uint32_t id, uint32_t parent, int64_t start, int64_t end) {
  SpanRecord s;
  s.name = "x";
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, NestedChildrenSubtractOnlyFromTheirParent) {
  // root [0,100) > child [10,60) > grandchild [20,30)
  const auto self = SelfTimes({Span(1, 0, 0, 100), Span(2, 1, 10, 60),
                               Span(3, 2, 20, 30)});
  EXPECT_EQ(self.at(1), 50);
  EXPECT_EQ(self.at(2), 40);
  EXPECT_EQ(self.at(3), 10);
}

TEST(SelfTimeTest, OverlappingChildrenCountTheirUnionOnce) {
  // Parallel children [10,50) and [30,70), a disjoint one [80,90), and one
  // that runs past the parent's end [95,120): covered = 60 + 10 + 5.
  const auto self = SelfTimes({Span(1, 0, 0, 100), Span(2, 1, 10, 50),
                               Span(3, 1, 30, 70), Span(4, 1, 80, 90),
                               Span(5, 1, 95, 120)});
  EXPECT_EQ(self.at(1), 25);
  EXPECT_EQ(self.at(2), 40);
  EXPECT_EQ(self.at(5), 25);
}

TEST(SelfTimeTest, ContainedChildDoesNotExtendTheUnion) {
  const auto self =
      SelfTimes({Span(1, 0, 0, 100), Span(2, 1, 0, 80), Span(3, 1, 10, 20)});
  EXPECT_EQ(self.at(1), 20);
}

// Burns at least `ns` of this thread's CPU time.
void Spin(int64_t ns) {
  const auto thread_ns = [] {
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
  };
  const int64_t end = thread_ns() + ns;
  volatile uint64_t sink = 0;
  while (thread_ns() < end) {
    sink = sink + 1;
  }
}

TEST(StopwatchTest, CpuClockSkipsWaitsAndCountsReapedChildren) {
  constexpr int64_t kMs = 1000000;
  const Stopwatch sleeping;
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_GE(sleeping.wall_s(), 0.2);
  EXPECT_LT(sleeping.cpu_s(), 0.1);

  const Stopwatch spinning;
  Spin(50 * kMs);
  EXPECT_GE(spinning.cpu_s(), 0.05);

  const Stopwatch child;
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    Spin(50 * kMs);
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_GE(child.cpu_s(), 0.05);
}

TEST(CalibratorTest, ScaleIsAFinitePositiveFactorForEveryKernel) {
  for (const RefKernel kernel : {RefKernel::kCore, RefKernel::kMemory}) {
    Calibrator calibrator(kernel, 2);
    const double scale = calibrator.Scale();
    EXPECT_TRUE(std::isfinite(scale));
    EXPECT_GT(scale, 0.0);
  }
}

// The JSON text FormatResult prints for one metric.
std::string Entry(const MetricDef& def, const char* value) {
  std::string entry = "\"";
  entry.append(def.name).append("\": {\"value\": ").append(value);
  entry.append(", \"unit\": \"").append(def.unit).append("\"}");
  return entry;
}

TEST(FormatResultTest, ListsEveryMetricWithItsUnit) {
  std::map<std::string, double> values;
  for (const MetricDef& def : kEndToEnd) {
    values[std::string(def.name)] = 1.5;
  }
  std::string line;
  ASSERT_TRUE(FormatResult(true, 3, 0, kEndToEnd, values, true, &line));
  EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                       "\"metrics\": {",
                       0),
            0u);
  for (const MetricDef& def : kEndToEnd) {
    EXPECT_NE(line.find(Entry(def, "1.5")), std::string::npos) << def.name;
  }
}

TEST(FormatResultTest, UnsetEndToEndMetricIsRefusedAndLayersDefaultToZero) {
  std::string line;
  EXPECT_FALSE(FormatResult(true, 1, 0, kEndToEnd, {}, true, &line));
  EXPECT_EQ(line, std::string(kEndToEnd[0].name));
  ASSERT_TRUE(FormatResult(true, 1, 0, kPerLayer, {}, false, &line));
  for (const MetricDef& def : kPerLayer) {
    EXPECT_NE(line.find(Entry(def, "0")), std::string::npos) << def.name;
  }
}

TEST(FormatResultTest, NonFiniteValueIsRefused) {
  std::string line;
  EXPECT_FALSE(FormatResult(true, 1, 0, kPerLayer,
                            {{std::string(kPerLayer[0].name), 0.0 / 0.0}}, false,
                            &line));
}

TEST(FormatResultTest, PrintsAllDigits) {
  std::string line;
  std::map<std::string, double> values;
  for (const MetricDef& def : kEndToEnd) {
    values[std::string(def.name)] = 0.123456789012345;
  }
  ASSERT_TRUE(FormatResult(true, 1, 0, kEndToEnd, values, true, &line));
  EXPECT_NE(line.find("0.123456789012345"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
