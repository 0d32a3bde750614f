/**
 * @file
 * Tests of the statistics helpers (MAPE, correlations, ranks).
 */
#include <cmath>
#include <vector>

#include "gtest/gtest.h"
#include "base/statistics.h"

namespace granite {
namespace {

TEST(MeanTest, Basic) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({7}), 7.0);
}

TEST(MapeTest, PerfectPrediction) {
  EXPECT_DOUBLE_EQ(MeanAbsolutePercentageError({1, 2, 3}, {1, 2, 3}), 0.0);
}

TEST(MapeTest, KnownValue) {
  // Errors: |10-9|/10 = 0.1 and |20-22|/20 = 0.1.
  EXPECT_NEAR(MeanAbsolutePercentageError({10, 20}, {9, 22}), 0.1, 1e-12);
}

TEST(MapeTest, SkipsZeroActuals) {
  EXPECT_NEAR(MeanAbsolutePercentageError({0, 10}, {5, 11}), 0.1, 1e-12);
}

TEST(MseTest, KnownValue) {
  EXPECT_DOUBLE_EQ(MeanSquaredError({1, 2}, {2, 4}), (1.0 + 4.0) / 2.0);
}

TEST(PearsonTest, PerfectLinearCorrelation) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {2, 4, 6, 8}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3, 4}, {8, 6, 4, 2}), -1.0, 1e-12);
}

TEST(PearsonTest, ZeroVarianceIsZero) {
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(PearsonTest, ShiftInvariant) {
  const std::vector<double> a = {1, 5, 2, 9};
  const std::vector<double> b = {3, 1, 4, 1};
  std::vector<double> b_shifted;
  for (double value : b) b_shifted.push_back(value + 100.0);
  EXPECT_NEAR(PearsonCorrelation(a, b), PearsonCorrelation(a, b_shifted),
              1e-12);
}

TEST(SpearmanTest, MonotoneNonlinearIsPerfect) {
  // Spearman sees through monotone transforms; Pearson does not.
  const std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y;
  for (double value : x) y.push_back(std::exp(value));
  EXPECT_NEAR(SpearmanCorrelation(x, y), 1.0, 1e-12);
  EXPECT_LT(PearsonCorrelation(x, y), 0.95);
}

TEST(SpearmanTest, ReversedIsMinusOne) {
  EXPECT_NEAR(SpearmanCorrelation({1, 2, 3}, {9, 5, 1}), -1.0, 1e-12);
}

TEST(FractionalRanksTest, TiesGetAverageRank) {
  const auto ranks = FractionalRanks({10, 20, 20, 30});
  ASSERT_EQ(ranks.size(), 4u);
  EXPECT_DOUBLE_EQ(ranks[0], 1.0);
  EXPECT_DOUBLE_EQ(ranks[1], 2.5);
  EXPECT_DOUBLE_EQ(ranks[2], 2.5);
  EXPECT_DOUBLE_EQ(ranks[3], 4.0);
}

TEST(HistogramTest, CountMeanAndExtremesAreExact) {
  Histogram histogram(1.0, 1e6);
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.mean(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(50), 0.0);

  for (const double v : {10.0, 20.0, 30.0, 40.0}) histogram.Add(v);
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_DOUBLE_EQ(histogram.mean(), 25.0);
  EXPECT_DOUBLE_EQ(histogram.min(), 10.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 40.0);
  // The percentile endpoints clamp to the exact observed extremes.
  EXPECT_DOUBLE_EQ(histogram.Percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(100), 40.0);
}

TEST(HistogramTest, PercentileErrorIsBoundedByBucketGrowth) {
  const double growth = 1.04;
  Histogram histogram(1.0, 1e6, growth);
  // 1..1000 uniformly: every sample percentile is known exactly, by
  // linear interpolation between the sorted samples.
  for (int i = 1; i <= 1000; ++i) histogram.Add(static_cast<double>(i));
  for (const double p : {10.0, 50.0, 90.0, 95.0, 99.0}) {
    const double exact = 1.0 + p / 100.0 * 999.0;
    const double approx = histogram.Percentile(p);
    EXPECT_LE(approx, exact * growth * 1.01) << "p" << p;
    EXPECT_GE(approx, exact / (growth * 1.01)) << "p" << p;
  }
}

TEST(HistogramTest, OutOfRangeValuesLandInEdgeBuckets) {
  Histogram histogram(1.0, 100.0);
  histogram.Add(0.001);  // Below min: first bucket.
  histogram.Add(1e9);    // Above max: overflow bucket.
  EXPECT_EQ(histogram.count(), 2u);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.001);
  EXPECT_DOUBLE_EQ(histogram.max(), 1e9);
  EXPECT_DOUBLE_EQ(histogram.Percentile(0), 0.001);
  EXPECT_DOUBLE_EQ(histogram.Percentile(100), 1e9);
}

TEST(HistogramTest, MergeMatchesCombinedStream) {
  Histogram a(1.0, 1e4);
  Histogram b(1.0, 1e4);
  Histogram combined(1.0, 1e4);
  for (int i = 1; i <= 50; ++i) {
    a.Add(i);
    combined.Add(i);
  }
  for (int i = 51; i <= 100; ++i) {
    b.Add(i);
    combined.Add(i);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.mean(), combined.mean());
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
  for (const double p : {25.0, 50.0, 75.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.Percentile(p), combined.Percentile(p));
  }
}

TEST(HistogramTest, SingleValueIsReportedExactly) {
  Histogram histogram(1.0, 1e6);
  histogram.Add(123.456);
  for (const double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(histogram.Percentile(p), 123.456);
  }
}

}  // namespace
}  // namespace granite
