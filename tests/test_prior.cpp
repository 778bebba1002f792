// Unit and property tests for the pre-knowledge priors (prior/).
#include "prior/prior.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/rng.hpp"
#include "support/stats.hpp"

namespace bnloc {
namespace {

// Numeric integral of a prior density over a box.
double integrate(const PositionPrior& prior, const Aabb& box,
                 std::size_t grid = 200) {
  const double dx = box.width() / static_cast<double>(grid);
  const double dy = box.height() / static_cast<double>(grid);
  double sum = 0.0;
  for (std::size_t iy = 0; iy < grid; ++iy)
    for (std::size_t ix = 0; ix < grid; ++ix)
      sum += prior.density({box.lo.x + (static_cast<double>(ix) + 0.5) * dx,
                            box.lo.y + (static_cast<double>(iy) + 0.5) * dy});
  return sum * dx * dy;
}

TEST(UniformPrior, DensityAndSupport) {
  const UniformPrior prior(Aabb{{0, 0}, {2, 1}});
  EXPECT_DOUBLE_EQ(prior.density({1.0, 0.5}), 0.5);
  EXPECT_DOUBLE_EQ(prior.density({3.0, 0.5}), 0.0);
  EXPECT_FALSE(prior.is_informative());
  EXPECT_EQ(prior.mean(), (Vec2{1.0, 0.5}));
}

TEST(UniformPrior, IntegratesToOne) {
  const UniformPrior prior(Aabb::unit());
  EXPECT_NEAR(integrate(prior, Aabb::unit()), 1.0, 1e-9);
}

TEST(UniformPrior, SamplesInsideRegionWithMatchingMoments) {
  const Aabb box{{1, 2}, {3, 6}};
  const UniformPrior prior(box);
  Rng rng(1);
  RunningStats sx, sy;
  for (int i = 0; i < 20000; ++i) {
    const Vec2 p = prior.sample(rng);
    EXPECT_TRUE(box.contains(p));
    sx.add(p.x);
    sy.add(p.y);
  }
  EXPECT_NEAR(sx.mean(), 2.0, 0.02);
  EXPECT_NEAR(sy.mean(), 4.0, 0.05);
  const Cov2 cov = prior.covariance();
  EXPECT_NEAR(sx.variance(), cov.xx, 0.02);
  EXPECT_NEAR(sy.variance(), cov.yy, 0.1);
}

TEST(GaussianPrior, IsotropicDensityPeaksAtCenter) {
  const auto prior = GaussianPrior::isotropic({0.5, 0.5}, 0.1);
  EXPECT_GT(prior->density({0.5, 0.5}), prior->density({0.7, 0.5}));
  EXPECT_TRUE(prior->is_informative());
  EXPECT_EQ(prior->mean(), (Vec2{0.5, 0.5}));
}

TEST(GaussianPrior, IntegratesToOne) {
  const auto prior = GaussianPrior::isotropic({0.5, 0.5}, 0.05);
  EXPECT_NEAR(integrate(*prior, Aabb::unit()), 1.0, 1e-4);
}

TEST(GaussianPrior, AnisotropicCovarianceMatchesAxes) {
  // Axis along +x: sigma_along = 0.2 in x, sigma_cross = 0.05 in y.
  const GaussianPrior prior({0, 0}, 0.2, 0.05, {1.0, 0.0});
  const Cov2 cov = prior.covariance();
  EXPECT_NEAR(cov.xx, 0.04, 1e-12);
  EXPECT_NEAR(cov.yy, 0.0025, 1e-12);
  EXPECT_NEAR(cov.xy, 0.0, 1e-12);
}

TEST(GaussianPrior, RotatedAxisRotatesCovariance) {
  const Vec2 axis = Vec2{1.0, 1.0}.normalized();
  const GaussianPrior prior({0, 0}, 0.2, 0.05, axis);
  const Cov2 cov = prior.covariance();
  // Variance along the axis must be sigma_along^2.
  EXPECT_NEAR(cov.quad(axis), 0.04, 1e-12);
  const Vec2 perp{-axis.y, axis.x};
  EXPECT_NEAR(cov.quad(perp), 0.0025, 1e-12);
}

TEST(GaussianPrior, SampleMomentsMatch) {
  const GaussianPrior prior({1.0, 2.0}, 0.3, 0.1, {0.0, 1.0});
  Rng rng(5);
  RunningStats sx, sy;
  for (int i = 0; i < 50000; ++i) {
    const Vec2 p = prior.sample(rng);
    sx.add(p.x);
    sy.add(p.y);
  }
  EXPECT_NEAR(sx.mean(), 1.0, 0.005);
  EXPECT_NEAR(sy.mean(), 2.0, 0.01);
  // Axis +y: along-sigma 0.3 appears in y, cross 0.1 in x.
  EXPECT_NEAR(std::sqrt(sy.variance()), 0.3, 0.01);
  EXPECT_NEAR(std::sqrt(sx.variance()), 0.1, 0.005);
}

TEST(GaussianPrior, WidenedAndShifted) {
  const auto prior = GaussianPrior::isotropic({0.5, 0.5}, 0.1);
  const auto wide = prior->widened(2.0);
  EXPECT_NEAR(wide->covariance().xx, 0.04, 1e-12);
  EXPECT_EQ(wide->mean(), prior->mean());
  const auto shifted = prior->shifted({0.1, -0.2});
  EXPECT_NEAR(shifted->mean().x, 0.6, 1e-12);
  EXPECT_NEAR(shifted->mean().y, 0.3, 1e-12);
  EXPECT_NEAR(shifted->covariance().xx, 0.01, 1e-12);
}

TEST(MixturePrior, WeightsNormalizedAndMeanCombines) {
  std::vector<MixturePrior::Component> comps;
  comps.push_back({2.0, GaussianPrior::isotropic({0.0, 0.0}, 0.1)});
  comps.push_back({2.0, GaussianPrior::isotropic({1.0, 0.0}, 0.1)});
  const MixturePrior mix(std::move(comps));
  EXPECT_EQ(mix.component_count(), 2u);
  EXPECT_NEAR(mix.mean().x, 0.5, 1e-12);
}

TEST(MixturePrior, LawOfTotalVariance) {
  std::vector<MixturePrior::Component> comps;
  comps.push_back({1.0, GaussianPrior::isotropic({0.0, 0.0}, 0.1)});
  comps.push_back({1.0, GaussianPrior::isotropic({1.0, 0.0}, 0.1)});
  const MixturePrior mix(std::move(comps));
  const Cov2 cov = mix.covariance();
  // xx: E[cov] + var of means = 0.01 + 0.25.
  EXPECT_NEAR(cov.xx, 0.26, 1e-12);
  EXPECT_NEAR(cov.yy, 0.01, 1e-12);
}

TEST(MixturePrior, SamplesFromBothModes) {
  std::vector<MixturePrior::Component> comps;
  comps.push_back({1.0, GaussianPrior::isotropic({0.0, 0.0}, 0.01)});
  comps.push_back({1.0, GaussianPrior::isotropic({1.0, 1.0}, 0.01)});
  const MixturePrior mix(std::move(comps));
  Rng rng(9);
  int near_a = 0, near_b = 0;
  for (int i = 0; i < 2000; ++i) {
    const Vec2 p = mix.sample(rng);
    if (distance(p, {0, 0}) < 0.1) ++near_a;
    if (distance(p, {1, 1}) < 0.1) ++near_b;
  }
  EXPECT_NEAR(near_a, 1000, 100);
  EXPECT_NEAR(near_b, 1000, 100);
}

TEST(MixturePrior, DensityIsWeightedSum) {
  const auto a = GaussianPrior::isotropic({0.0, 0.0}, 0.1);
  const auto b = GaussianPrior::isotropic({1.0, 0.0}, 0.1);
  std::vector<MixturePrior::Component> comps{{3.0, a}, {1.0, b}};
  const MixturePrior mix(std::move(comps));
  const Vec2 q{0.2, 0.1};
  EXPECT_NEAR(mix.density(q), 0.75 * a->density(q) + 0.25 * b->density(q),
              1e-12);
}

TEST(MixturePrior, WidenedAppliesToAllComponents) {
  std::vector<MixturePrior::Component> comps;
  comps.push_back({1.0, GaussianPrior::isotropic({0.0, 0.0}, 0.1)});
  comps.push_back({1.0, GaussianPrior::isotropic({1.0, 0.0}, 0.1)});
  const MixturePrior mix(std::move(comps));
  const auto wide = mix.widened(3.0);
  // Component covariance grows 9x; separation term unchanged.
  EXPECT_NEAR(wide->covariance().yy, 0.09, 1e-12);
}

}  // namespace
}  // namespace bnloc
