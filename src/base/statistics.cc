#include "base/statistics.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "base/logging.h"

namespace granite {

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double MeanAbsolutePercentageError(const std::vector<double>& actual,
                                   const std::vector<double>& predicted) {
  GRANITE_CHECK_EQ(actual.size(), predicted.size());
  double total = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (std::abs(actual[i]) < 1e-9) continue;
    total += std::abs(actual[i] - predicted[i]) / std::abs(actual[i]);
    ++count;
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

double MeanSquaredError(const std::vector<double>& actual,
                        const std::vector<double>& predicted) {
  GRANITE_CHECK_EQ(actual.size(), predicted.size());
  if (actual.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const double diff = actual[i] - predicted[i];
    total += diff * diff;
  }
  return total / static_cast<double>(actual.size());
}

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  GRANITE_CHECK_EQ(a.size(), b.size());
  if (a.size() < 2) return 0.0;
  const double mean_a = Mean(a);
  const double mean_b = Mean(b);
  double covariance = 0.0;
  double var_a = 0.0;
  double var_b = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - mean_a;
    const double db = b[i] - mean_b;
    covariance += da * db;
    var_a += da * da;
    var_b += db * db;
  }
  if (var_a <= 0.0 || var_b <= 0.0) return 0.0;
  return covariance / std::sqrt(var_a * var_b);
}

std::vector<double> FractionalRanks(const std::vector<double>& values) {
  const std::size_t n = values.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&values](std::size_t x, std::size_t y) {
    return values[x] < values[y];
  });
  std::vector<double> ranks(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    // Average rank for the tie group [i, j]; ranks are 1-based.
    const double average_rank = (static_cast<double>(i) +
                                 static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = average_rank;
    i = j + 1;
  }
  return ranks;
}

double SpearmanCorrelation(const std::vector<double>& a,
                           const std::vector<double>& b) {
  GRANITE_CHECK_EQ(a.size(), b.size());
  if (a.size() < 2) return 0.0;
  return PearsonCorrelation(FractionalRanks(a), FractionalRanks(b));
}

Histogram::Histogram(double min_value, double max_value, double growth)
    : min_value_(min_value), log_growth_(std::log(growth)), growth_(growth) {
  GRANITE_CHECK_GT(min_value, 0.0);
  GRANITE_CHECK_GT(max_value, min_value);
  GRANITE_CHECK_GT(growth, 1.0);
  const std::size_t spanned = static_cast<std::size_t>(
      std::ceil(std::log(max_value / min_value) / log_growth_));
  // `spanned` geometric buckets plus one overflow bucket. The first
  // geometric bucket doubles as the underflow bucket: values below
  // min_value are clamped into it (there is no dedicated underflow
  // slot).
  buckets_.assign(spanned + 1, 0);
}

std::size_t Histogram::BucketIndex(double value) const {
  if (!(value > min_value_)) return 0;
  const std::size_t index = static_cast<std::size_t>(
      std::log(value / min_value_) / log_growth_);
  return std::min(index, buckets_.size() - 1);
}

double Histogram::BucketLowerEdge(std::size_t index) const {
  return min_value_ * std::pow(growth_, static_cast<double>(index));
}

void Histogram::Add(double value) {
  ++buckets_[BucketIndex(value)];
  if (count_ == 0) {
    min_seen_ = max_seen_ = value;
  } else {
    min_seen_ = std::min(min_seen_, value);
    max_seen_ = std::max(max_seen_, value);
  }
  sum_ += value;
  ++count_;
}

void Histogram::Merge(const Histogram& other) {
  GRANITE_CHECK_EQ(buckets_.size(), other.buckets_.size());
  GRANITE_CHECK_EQ(min_value_, other.min_value_);
  GRANITE_CHECK_EQ(growth_, other.growth_);
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  if (count_ == 0) {
    min_seen_ = other.min_seen_;
    max_seen_ = other.max_seen_;
  } else {
    min_seen_ = std::min(min_seen_, other.min_seen_);
    max_seen_ = std::max(max_seen_, other.max_seen_);
  }
  sum_ += other.sum_;
  count_ += other.count_;
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::Percentile(double percentile) const {
  GRANITE_CHECK_GE(percentile, 0.0);
  GRANITE_CHECK_LE(percentile, 100.0);
  if (count_ == 0) return 0.0;
  // Rank of the target observation, 1-based (nearest-rank definition).
  const double target = percentile / 100.0 * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    const std::uint64_t before = cumulative;
    cumulative += buckets_[i];
    if (static_cast<double>(cumulative) < target) continue;
    // Interpolate within the bucket, clamped to the observed extremes.
    // The underflow bucket extends down to the observed minimum and the
    // overflow bucket up to the observed maximum, so the endpoints
    // (Percentile(0)/Percentile(100)) are exact.
    double lower = i == 0 ? min_seen_ : BucketLowerEdge(i);
    double upper =
        i + 1 == buckets_.size() ? max_seen_ : BucketLowerEdge(i + 1);
    lower = std::max(lower, min_seen_);
    upper = std::max(std::min(upper, max_seen_), lower);
    const double fraction =
        (target - static_cast<double>(before)) /
        static_cast<double>(buckets_[i]);
    return lower + (upper - lower) * fraction;
  }
  return max_seen_;
}

}  // namespace granite
