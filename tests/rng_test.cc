/**
 * @file
 * Tests of the deterministic RNG.
 */
#include <set>

#include "gtest/gtest.h"
#include "base/rng.h"

namespace granite {
namespace {

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(13), 13u);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t value = rng.NextInt(-2, 3);
    EXPECT_GE(value, -2);
    EXPECT_LE(value, 3);
    seen.insert(value);
  }
  EXPECT_EQ(seen.size(), 6u);  // All values of [-2, 3] appear.
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double value = rng.NextDouble();
    ASSERT_GE(value, 0.0);
    ASSERT_LT(value, 1.0);
    sum += value;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0;
  double sum_squared = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double value = rng.NextGaussian();
    sum += value;
    sum_squared += value * value;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_squared / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, WeightedSamplingRespectsWeights) {
  Rng rng(19);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.NextWeighted(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.4);
}

TEST(RngTest, PermutationIsAPermutation) {
  Rng rng(23);
  const auto perm = rng.Permutation(100);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(RngTest, PermutationOfZeroAndOne) {
  Rng rng(29);
  EXPECT_TRUE(rng.Permutation(0).empty());
  const auto one = rng.Permutation(1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 0u);
}

TEST(RngTest, UniformRange) {
  Rng rng(37);
  for (int i = 0; i < 1000; ++i) {
    const float value = rng.NextUniform(-2.0f, 5.0f);
    EXPECT_GE(value, -2.0f);
    EXPECT_LT(value, 5.0f);
  }
}

}  // namespace
}  // namespace granite
