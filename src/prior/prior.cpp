#include "prior/prior.hpp"

#include <cmath>

#include "support/assert.hpp"

namespace bnloc {

namespace {
constexpr double kTwoPi = 6.283185307179586;
}

// ---------------------------------------------------------------- Uniform

UniformPrior::UniformPrior(const Aabb& region) noexcept : region_(region) {}

double UniformPrior::density(Vec2 p) const noexcept {
  return region_.contains(p) ? 1.0 / region_.area() : 0.0;
}

Vec2 UniformPrior::sample(Rng& rng) const {
  return {rng.uniform(region_.lo.x, region_.hi.x),
          rng.uniform(region_.lo.y, region_.hi.y)};
}

Vec2 UniformPrior::mean() const noexcept { return region_.center(); }

Cov2 UniformPrior::covariance() const noexcept {
  const double w = region_.width();
  const double h = region_.height();
  return {w * w / 12.0, 0.0, h * h / 12.0};
}

PriorPtr UniformPrior::widened(double factor) const {
  const Vec2 c = region_.center();
  const Vec2 half{region_.width() * 0.5 * factor,
                  region_.height() * 0.5 * factor};
  return std::make_shared<UniformPrior>(Aabb{c - half, c + half});
}

PriorPtr UniformPrior::shifted(Vec2 offset) const {
  return std::make_shared<UniformPrior>(
      Aabb{region_.lo + offset, region_.hi + offset});
}

// --------------------------------------------------------------- Gaussian

GaussianPrior::GaussianPrior(Vec2 center, double sigma_along,
                             double sigma_cross, Vec2 axis) noexcept
    : center_(center),
      axis_(axis.normalized()),
      sigma_along_(sigma_along),
      sigma_cross_(sigma_cross) {
  if (axis_ == Vec2{}) axis_ = {1.0, 0.0};
}

std::shared_ptr<const GaussianPrior> GaussianPrior::isotropic(Vec2 center,
                                                              double sigma) {
  return std::make_shared<GaussianPrior>(center, sigma, sigma);
}

double GaussianPrior::density(Vec2 p) const noexcept {
  const Vec2 d = p - center_;
  const double along = d.dot(axis_);
  const double cross = d.cross(axis_);
  const double za = along / sigma_along_;
  const double zc = cross / sigma_cross_;
  return std::exp(-0.5 * (za * za + zc * zc)) /
         (kTwoPi * sigma_along_ * sigma_cross_);
}

Vec2 GaussianPrior::sample(Rng& rng) const {
  const double along = rng.normal(0.0, sigma_along_);
  const double cross = rng.normal(0.0, sigma_cross_);
  const Vec2 perp{-axis_.y, axis_.x};
  return center_ + axis_ * along + perp * cross;
}

Cov2 GaussianPrior::covariance() const noexcept {
  // Sigma = sa^2 * a a^T + sc^2 * p p^T with p perpendicular to a.
  const double va = sigma_along_ * sigma_along_;
  const double vc = sigma_cross_ * sigma_cross_;
  const Vec2 a = axis_;
  const Vec2 p{-a.y, a.x};
  return {va * a.x * a.x + vc * p.x * p.x, va * a.x * a.y + vc * p.x * p.y,
          va * a.y * a.y + vc * p.y * p.y};
}

PriorPtr GaussianPrior::widened(double factor) const {
  return std::make_shared<GaussianPrior>(center_, sigma_along_ * factor,
                                         sigma_cross_ * factor, axis_);
}

PriorPtr GaussianPrior::shifted(Vec2 offset) const {
  return std::make_shared<GaussianPrior>(center_ + offset, sigma_along_,
                                         sigma_cross_, axis_);
}

// ---------------------------------------------------------------- Mixture

MixturePrior::MixturePrior(std::vector<Component> components)
    : components_(std::move(components)) {
  BNLOC_ASSERT(!components_.empty(), "mixture needs at least one component");
  double total = 0.0;
  for (const auto& c : components_) {
    BNLOC_ASSERT(c.weight > 0.0, "mixture weights must be positive");
    BNLOC_ASSERT(c.prior != nullptr, "mixture component prior missing");
    total += c.weight;
  }
  for (auto& c : components_) c.weight /= total;
}

double MixturePrior::density(Vec2 p) const noexcept {
  double d = 0.0;
  for (const auto& c : components_) d += c.weight * c.prior->density(p);
  return d;
}

Vec2 MixturePrior::sample(Rng& rng) const {
  double u = rng.uniform();
  for (const auto& c : components_) {
    if (u < c.weight) return c.prior->sample(rng);
    u -= c.weight;
  }
  return components_.back().prior->sample(rng);
}

Vec2 MixturePrior::mean() const noexcept {
  Vec2 m{};
  for (const auto& c : components_) m += c.prior->mean() * c.weight;
  return m;
}

Cov2 MixturePrior::covariance() const noexcept {
  // Law of total variance: E[Cov] + Cov of component means.
  const Vec2 m = mean();
  Cov2 cov{};
  for (const auto& c : components_) {
    const Cov2 ci = c.prior->covariance();
    const Vec2 d = c.prior->mean() - m;
    cov.xx += c.weight * (ci.xx + d.x * d.x);
    cov.xy += c.weight * (ci.xy + d.x * d.y);
    cov.yy += c.weight * (ci.yy + d.y * d.y);
  }
  return cov;
}

PriorPtr MixturePrior::widened(double factor) const {
  std::vector<Component> widened_components;
  widened_components.reserve(components_.size());
  for (const auto& c : components_)
    widened_components.push_back({c.weight, c.prior->widened(factor)});
  return std::make_shared<MixturePrior>(std::move(widened_components));
}

PriorPtr MixturePrior::shifted(Vec2 offset) const {
  std::vector<Component> shifted_components;
  shifted_components.reserve(components_.size());
  for (const auto& c : components_)
    shifted_components.push_back({c.weight, c.prior->shifted(offset)});
  return std::make_shared<MixturePrior>(std::move(shifted_components));
}

}  // namespace bnloc
