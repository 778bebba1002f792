// Pre-knowledge: per-node prior distributions over position.
//
// "Pre-knowledge" in the paper's sense is whatever is known about a node's
// position before any measurement: the planned drop point of an air-deployed
// node, the cluster it was scattered into, the grid cell it was installed
// in. Each node carries a PositionPrior; the Bayesian engines fold it into
// the node's belief, the baselines ignore it (they have no mechanism for
// it — which is the comparison the paper draws).
//
// Priors are immutable and shared (shared_ptr<const PositionPrior>); a whole
// cluster of nodes can point at one Gaussian.
#pragma once

#include <memory>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/cov2.hpp"
#include "geom/vec2.hpp"
#include "support/rng.hpp"

namespace bnloc {

class PositionPrior {
 public:
  virtual ~PositionPrior() = default;

  /// Normalized probability density at p (integrates to 1 over the plane,
  /// up to truncation at the field boundary handled by the rasterizer).
  [[nodiscard]] virtual double density(Vec2 p) const noexcept = 0;
  [[nodiscard]] virtual Vec2 sample(Rng& rng) const = 0;
  [[nodiscard]] virtual Vec2 mean() const noexcept = 0;
  [[nodiscard]] virtual Cov2 covariance() const noexcept = 0;
  /// True for priors that carry no information (uniform over the field).
  [[nodiscard]] virtual bool is_informative() const noexcept { return true; }

  /// Mis-specification transforms for robustness studies (F6):
  /// a copy with standard deviations multiplied by `factor` ...
  [[nodiscard]] virtual std::shared_ptr<const PositionPrior> widened(
      double factor) const = 0;
  /// ... and a copy whose location is shifted by `offset` (a *wrong* prior).
  [[nodiscard]] virtual std::shared_ptr<const PositionPrior> shifted(
      Vec2 offset) const = 0;
};

using PriorPtr = std::shared_ptr<const PositionPrior>;

/// Uniform over a rectangle — the "no pre-knowledge" prior.
class UniformPrior final : public PositionPrior {
 public:
  explicit UniformPrior(const Aabb& region) noexcept;

  [[nodiscard]] double density(Vec2 p) const noexcept override;
  [[nodiscard]] Vec2 sample(Rng& rng) const override;
  [[nodiscard]] Vec2 mean() const noexcept override;
  [[nodiscard]] Cov2 covariance() const noexcept override;
  [[nodiscard]] bool is_informative() const noexcept override { return false; }
  [[nodiscard]] PriorPtr widened(double factor) const override;
  [[nodiscard]] PriorPtr shifted(Vec2 offset) const override;

  [[nodiscard]] const Aabb& region() const noexcept { return region_; }

 private:
  Aabb region_;
};

/// Axis-rotated Gaussian: center, principal axis direction, and standard
/// deviations along/across that axis. Covers isotropic (sigma_along ==
/// sigma_cross), installation-point, and air-drop per-node priors.
class GaussianPrior final : public PositionPrior {
 public:
  GaussianPrior(Vec2 center, double sigma_along, double sigma_cross,
                Vec2 axis = {1.0, 0.0}) noexcept;

  [[nodiscard]] static std::shared_ptr<const GaussianPrior> isotropic(
      Vec2 center, double sigma);

  [[nodiscard]] double density(Vec2 p) const noexcept override;
  [[nodiscard]] Vec2 sample(Rng& rng) const override;
  [[nodiscard]] Vec2 mean() const noexcept override { return center_; }
  [[nodiscard]] Cov2 covariance() const noexcept override;
  [[nodiscard]] PriorPtr widened(double factor) const override;
  [[nodiscard]] PriorPtr shifted(Vec2 offset) const override;

 private:
  Vec2 center_;
  Vec2 axis_;  ///< unit vector
  double sigma_along_;
  double sigma_cross_;
};

/// Weighted mixture of priors (e.g. "this node is in one of these three
/// clusters, most likely the first").
class MixturePrior final : public PositionPrior {
 public:
  struct Component {
    double weight;
    PriorPtr prior;
  };
  explicit MixturePrior(std::vector<Component> components);

  [[nodiscard]] double density(Vec2 p) const noexcept override;
  [[nodiscard]] Vec2 sample(Rng& rng) const override;
  [[nodiscard]] Vec2 mean() const noexcept override;
  [[nodiscard]] Cov2 covariance() const noexcept override;
  [[nodiscard]] PriorPtr widened(double factor) const override;
  [[nodiscard]] PriorPtr shifted(Vec2 offset) const override;

  [[nodiscard]] std::size_t component_count() const noexcept {
    return components_.size();
  }

 private:
  std::vector<Component> components_;  ///< weights normalized to sum 1.
};

}  // namespace bnloc
