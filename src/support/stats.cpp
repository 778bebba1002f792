#include "support/stats.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace bnloc {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::sem() const noexcept {
  return n_ > 0 ? stddev() / std::sqrt(static_cast<double>(n_)) : 0.0;
}

double quantile(std::span<const double> values, double q) {
  BNLOC_ASSERT(!values.empty(), "quantile of empty sample");
  BNLOC_ASSERT(q >= 0.0 && q <= 1.0, "quantile fraction out of range");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

Summary summarize(std::span<const double> values) {
  Summary s;
  if (values.empty()) return s;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  s.count = sorted.size();
  RunningStats rs;
  double sum_sq = 0.0;
  for (double v : sorted) {
    rs.add(v);
    sum_sq += v * v;
  }
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.min = sorted.front();
  s.max = sorted.back();
  s.q25 = quantile(sorted, 0.25);
  s.median = quantile(sorted, 0.50);
  s.q75 = quantile(sorted, 0.75);
  s.q90 = quantile(sorted, 0.90);
  s.rmse = std::sqrt(sum_sq / static_cast<double>(sorted.size()));
  return s;
}

double mean_of(std::span<const double> values) noexcept {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double correlation(std::span<const double> xs, std::span<const double> ys) {
  BNLOC_ASSERT(xs.size() == ys.size(), "correlation needs equal-size samples");
  if (xs.size() < 2) return 0.0;
  const double mx = mean_of(xs);
  const double my = mean_of(ys);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace bnloc
