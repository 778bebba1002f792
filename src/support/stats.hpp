// Streaming and batch statistics used by the evaluation harness.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace bnloc {

/// Numerically stable streaming mean/variance (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  /// Standard error of the mean.
  [[nodiscard]] double sem() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Five-number-style batch summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double q25 = 0.0;
  double median = 0.0;
  double q75 = 0.0;
  double q90 = 0.0;
  double max = 0.0;
  double rmse = 0.0;  ///< sqrt(mean of squares) — for error samples.
};

[[nodiscard]] Summary summarize(std::span<const double> values);

/// Quantile with linear interpolation on the sorted sample. q in [0, 1].
[[nodiscard]] double quantile(std::span<const double> values, double q);

[[nodiscard]] double mean_of(std::span<const double> values) noexcept;

/// Pearson correlation; 0 when either sample is constant.
[[nodiscard]] double correlation(std::span<const double> xs,
                                 std::span<const double> ys);

}  // namespace bnloc
