// Unit tests of the benchmark's own percentile, tail-selection and
// ratio helpers (perfbench/src/stats.h).
#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

TEST(PercentileTest, EmptyIsZero) { EXPECT_EQ(Percentile({}, 50), 0); }

TEST(PercentileTest, SingleSampleAtEveryPercentile) {
  EXPECT_EQ(Percentile({7}, 0), 7);
  EXPECT_EQ(Percentile({7}, 50), 7);
  EXPECT_EQ(Percentile({7}, 100), 7);
}

TEST(PercentileTest, InterpolatesBetweenClosestRanks) {
  // Unsorted on purpose; ranks 0..4 over {1, 2, 3, 4, 10}.
  const std::vector<double> v = {10, 2, 4, 1, 3};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3);
  EXPECT_DOUBLE_EQ(Percentile(v, 87.5), 7);  // rank 3.5: halfway 4 -> 10
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 10);
}

TEST(PercentileTest, ClampsOutOfRangePercentiles) {
  const std::vector<double> v = {1, 2, 3};
  EXPECT_DOUBLE_EQ(Percentile(v, -5), 1);
  EXPECT_DOUBLE_EQ(Percentile(v, 250), 3);
}

TEST(MedianTest, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
}

TEST(SelectTailTest, InvalidWithoutMoreThanTenSamples) {
  EXPECT_FALSE(SelectTail({}).valid);
  EXPECT_FALSE(SelectTail(std::vector<double>(kTailBeyond, 1.0)).valid);
  EXPECT_EQ(SelectTail(std::vector<double>(kTailBeyond, 1.0)).samples,
            kTailBeyond);
}

TEST(SelectTailTest, LeavesExactlyTenSamplesBeyond) {
  // 100 samples 1..100 (reversed): the tail is 90, with 91..100 beyond.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  const Tail tail = SelectTail(v);
  ASSERT_TRUE(tail.valid);
  EXPECT_EQ(tail.samples, 100u);
  EXPECT_DOUBLE_EQ(tail.value, 90);
  EXPECT_DOUBLE_EQ(tail.percentile, 90);
  size_t beyond = 0;
  for (double x : v) beyond += x > tail.value;
  EXPECT_EQ(beyond, kTailBeyond);
}

TEST(SelectTailTest, PercentileRisesWithSampleCount) {
  const Tail small = SelectTail(std::vector<double>(11, 2.0));
  EXPECT_TRUE(small.valid);
  EXPECT_DOUBLE_EQ(small.value, 2);
  EXPECT_NEAR(small.percentile, 100.0 / 11, 1e-12);
  const Tail large = SelectTail(std::vector<double>(1000, 2.0));
  EXPECT_DOUBLE_EQ(large.percentile, 99);
}

TEST(RatioTest, GuardsZeroDenominator) {
  EXPECT_DOUBLE_EQ(Ratio(3, 4), 0.75);
  EXPECT_EQ(Ratio(3, 0), 0);
  EXPECT_EQ(Ratio(0, 0), 0);
}

TEST(RelativeGapTest, SignedShareOfBase) {
  EXPECT_DOUBLE_EQ(RelativeGap(11, 10), 0.1);
  EXPECT_DOUBLE_EQ(RelativeGap(9, 10), -0.1);
  EXPECT_EQ(RelativeGap(5, 0), 0);
}

TEST(ThroughputTest, TuplesTimesJoinsOverSummedTime) {
  // Two joins of 110k tuples in 0.5 s total: 440k tuples/s.
  EXPECT_DOUBLE_EQ(Throughput(110000, {0.2, 0.3}), 440000);
  EXPECT_EQ(Throughput(110000, {}), 0);
}

}  // namespace
}  // namespace perfbench
