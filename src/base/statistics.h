/**
 * @file
 * Statistical helpers shared by the evaluation harness: error metrics and
 * the Spearman / Pearson correlation coefficients reported in Tables 5-6.
 */
#ifndef GRANITE_BASE_STATISTICS_H_
#define GRANITE_BASE_STATISTICS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace granite {

/** Arithmetic mean. Returns 0 for empty input. */
double Mean(const std::vector<double>& values);

/**
 * Mean absolute percentage error: mean_i |actual_i - predicted_i| /
 * |actual_i|. This is the loss and headline metric of the paper (§4).
 * Entries with |actual| < 1e-9 are skipped to avoid division by zero.
 */
double MeanAbsolutePercentageError(const std::vector<double>& actual,
                                   const std::vector<double>& predicted);

/** Mean squared error. */
double MeanSquaredError(const std::vector<double>& actual,
                        const std::vector<double>& predicted);

/**
 * Pearson product-moment correlation coefficient between two series.
 * Returns 0 when either series has zero variance.
 */
double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b);

/**
 * Spearman rank correlation: Pearson correlation of the rank transforms,
 * with ties assigned fractional (average) ranks.
 */
double SpearmanCorrelation(const std::vector<double>& a,
                           const std::vector<double>& b);

/** Returns average ranks (1-based, ties averaged) of the input values. */
std::vector<double> FractionalRanks(const std::vector<double>& values);

/**
 * Streaming histogram with geometrically spaced buckets, built for
 * latency aggregation in long-lived processes: constant memory, O(1)
 * Add(), and percentile queries whose relative error is bounded by the
 * bucket growth factor (1.04 by default, i.e. p99 estimates are within
 * ~4% of the exact sample percentile). Values below `min_value` land in
 * the first bucket; values beyond the last geometric bucket (whose
 * upper edge is the first power-of-`growth` multiple of `min_value` at
 * or above `max_value`) land in the overflow bucket. The exact observed
 * minimum/maximum are tracked separately and clamp the percentile
 * interpolation, so Percentile(0)/Percentile(100) are exact.
 *
 * Not internally synchronized; callers aggregating from several threads
 * guard it with their own mutex (see serve::InferenceServer) or keep one
 * histogram per thread and Merge().
 */
class Histogram {
 public:
  /**
   * @param min_value Lower edge of the first bucket; must be > 0.
   * @param max_value Values >= this fall into the overflow bucket.
   * @param growth Per-bucket geometric growth factor; must be > 1.
   */
  Histogram(double min_value, double max_value, double growth = 1.04);

  /** Records one observation. */
  void Add(double value);

  /** Adds every bucket of `other` (same bucketization required). */
  void Merge(const Histogram& other);

  /** Number of observations recorded. */
  std::uint64_t count() const { return count_; }

  /** Exact mean of the recorded observations (0 when empty). */
  double mean() const;

  /** Exact smallest / largest recorded observation (0 when empty). */
  double min() const { return count_ == 0 ? 0.0 : min_seen_; }
  double max() const { return count_ == 0 ? 0.0 : max_seen_; }

  /**
   * Approximate percentile in [0, 100] by linear interpolation inside
   * the bucket containing the target rank. Returns 0 when empty.
   */
  double Percentile(double percentile) const;

  /** Number of buckets (including the overflow bucket). */
  std::size_t num_buckets() const { return buckets_.size(); }

 private:
  /** Bucket index of `value` (clamped to the valid range). */
  std::size_t BucketIndex(double value) const;

  /** Lower edge of bucket `index`. */
  double BucketLowerEdge(std::size_t index) const;

  double min_value_;
  double log_growth_;
  double growth_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_seen_ = 0.0;
  double max_seen_ = 0.0;
};

}  // namespace granite

#endif  // GRANITE_BASE_STATISTICS_H_
