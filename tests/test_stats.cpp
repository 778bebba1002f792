// Unit tests for streaming and batch statistics (support/stats.hpp).
#include "support/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace bnloc {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_EQ(rs.mean(), 0.0);
  EXPECT_EQ(rs.variance(), 0.0);
  EXPECT_EQ(rs.sem(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats rs;
  rs.add(4.5);
  EXPECT_EQ(rs.count(), 1u);
  EXPECT_DOUBLE_EQ(rs.mean(), 4.5);
  EXPECT_EQ(rs.variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.min(), 4.5);
  EXPECT_DOUBLE_EQ(rs.max(), 4.5);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  RunningStats rs;
  for (double x : xs) rs.add(x);
  const double mean = 31.0 / 5.0;
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= 4.0;
  EXPECT_DOUBLE_EQ(rs.mean(), mean);
  EXPECT_NEAR(rs.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 1.0);
  EXPECT_DOUBLE_EQ(rs.max(), 16.0);
  EXPECT_NEAR(rs.sem(), rs.stddev() / std::sqrt(5.0), 1e-12);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 10; ++i) {
    a.add(i * 0.7);
    all.add(i * 0.7);
  }
  for (int i = 10; i < 25; ++i) {
    b.add(i * 0.7 - 3.0);
    all.add(i * 0.7 - 3.0);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  RunningStats a_copy = a;
  a.merge(b);  // empty rhs: no change
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a_copy);  // empty lhs: adopt rhs
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RunningStats, StableForLargeOffsets) {
  // Catastrophic cancellation check: values near 1e9 with tiny variance.
  RunningStats rs;
  for (int i = 0; i < 1000; ++i) rs.add(1e9 + (i % 2 == 0 ? 0.5 : -0.5));
  EXPECT_NEAR(rs.mean(), 1e9, 1e-3);
  EXPECT_NEAR(rs.variance(), 0.25, 0.01);
}

TEST(Quantile, ExactOnSortedData) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.125), 1.5);  // interpolation
}

TEST(Quantile, UnsortedInputHandled) {
  const std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
}

TEST(Summarize, EmptySample) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Summarize, KnownSample) {
  const std::vector<double> xs = {3.0, 4.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
  EXPECT_DOUBLE_EQ(s.min, 3.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.median, 3.5);
  EXPECT_NEAR(s.rmse, std::sqrt((9.0 + 16.0) / 2.0), 1e-12);
}

TEST(Summarize, RmseAtLeastMeanForNonNegative) {
  const std::vector<double> xs = {0.1, 0.2, 0.9, 0.4};
  const Summary s = summarize(xs);
  EXPECT_GE(s.rmse, s.mean);  // Jensen
  EXPECT_LE(s.q25, s.median);
  EXPECT_LE(s.median, s.q75);
  EXPECT_LE(s.q75, s.q90);
}

TEST(MeanRms, Basics) {
  const std::vector<double> xs = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean_of(xs), 3.5);
  EXPECT_EQ(mean_of({}), 0.0);
}

TEST(Correlation, PerfectAndAnti) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y = {2.0, 4.0, 6.0, 8.0};
  std::vector<double> ny;
  for (double v : y) ny.push_back(-v);
  EXPECT_NEAR(correlation(x, y), 1.0, 1e-12);
  EXPECT_NEAR(correlation(x, ny), -1.0, 1e-12);
}

TEST(Correlation, ConstantSampleGivesZero) {
  const std::vector<double> x = {1.0, 1.0, 1.0};
  const std::vector<double> y = {2.0, 5.0, 9.0};
  EXPECT_EQ(correlation(x, y), 0.0);
}

}  // namespace
}  // namespace bnloc
