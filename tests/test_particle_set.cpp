// Unit tests for the particle belief representation
// (inference/particle_set.hpp).
#include "inference/particle_set.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "geom/aabb.hpp"

namespace bnloc {
namespace {

TEST(ParticleSet, FromPriorMatchesPriorMoments) {
  const auto prior = GaussianPrior::isotropic({0.4, 0.6}, 0.1);
  Rng rng(1);
  const ParticleSet ps = ParticleSet::from_prior(*prior, 20000, rng);
  EXPECT_EQ(ps.size(), 20000u);
  EXPECT_NEAR(ps.mean().x, 0.4, 0.005);
  EXPECT_NEAR(ps.mean().y, 0.6, 0.005);
  EXPECT_NEAR(ps.covariance().xx, 0.01, 0.001);
}

TEST(ParticleSet, DeltaHasZeroSpread) {
  const ParticleSet ps = ParticleSet::delta({0.3, 0.3}, 100);
  EXPECT_NEAR(ps.mean().x, 0.3, 1e-12);
  EXPECT_NEAR(ps.mean().y, 0.3, 1e-12);
  EXPECT_NEAR(ps.covariance().xx, 0.0, 1e-24);
  EXPECT_NEAR(ps.effective_sample_size(), 100.0, 1e-9);
}

TEST(ParticleSet, FromPointsUniformWeights) {
  const ParticleSet ps =
      ParticleSet::from_points({{0.0, 0.0}, {1.0, 0.0}});
  EXPECT_EQ(ps.size(), 2u);
  EXPECT_DOUBLE_EQ(ps.weights()[0], 0.5);
  EXPECT_EQ(ps.mean(), (Vec2{0.5, 0.0}));
}

TEST(ParticleSet, SetWeightsNormalizes) {
  ParticleSet ps = ParticleSet::from_points({{0, 0}, {1, 0}, {2, 0}});
  const std::vector<double> w = {1.0, 1.0, 2.0};
  ps.set_weights(w);
  EXPECT_DOUBLE_EQ(ps.weights()[2], 0.5);
  EXPECT_DOUBLE_EQ(ps.mean().x, 0.25 * 0.0 + 0.25 * 1.0 + 0.5 * 2.0);
}

TEST(ParticleSet, SetWeightsAllZeroFallsBackToUniform) {
  ParticleSet ps = ParticleSet::from_points({{0, 0}, {1, 0}});
  const std::vector<double> w = {0.0, 0.0};
  ps.set_weights(w);
  EXPECT_DOUBLE_EQ(ps.weights()[0], 0.5);
}

TEST(ParticleSet, EffectiveSampleSizeDropsWithSkew) {
  ParticleSet ps = ParticleSet::from_points({{0, 0}, {1, 0}, {2, 0},
                                             {3, 0}});
  EXPECT_DOUBLE_EQ(ps.effective_sample_size(), 4.0);
  const std::vector<double> skew = {0.97, 0.01, 0.01, 0.01};
  ps.set_weights(skew);
  EXPECT_LT(ps.effective_sample_size(), 1.2);
}

TEST(ParticleSet, ResamplePreservesMeanAndRestoresEss) {
  const auto prior = GaussianPrior::isotropic({0.5, 0.5}, 0.1);
  Rng rng(3);
  ParticleSet ps = ParticleSet::from_prior(*prior, 5000, rng);
  // Weight by x to skew the mean right.
  std::vector<double> w(ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i)
    w[i] = std::max(0.0, ps.point(i).x);
  ps.set_weights(w);
  const Vec2 weighted_mean = ps.mean();
  ps.resample_systematic(rng);
  EXPECT_NEAR(ps.effective_sample_size(), static_cast<double>(ps.size()),
              1e-6);
  EXPECT_NEAR(ps.mean().x, weighted_mean.x, 0.01);
  EXPECT_NEAR(ps.mean().y, weighted_mean.y, 0.01);
}

TEST(ParticleSet, ResampleDuplicatesHeavyParticles) {
  ParticleSet ps = ParticleSet::from_points({{0, 0}, {9, 9}});
  const std::vector<double> w = {0.999, 0.001};
  ps.set_weights(w);
  Rng rng(5);
  ps.resample_systematic(rng);
  std::size_t at_origin = 0;
  for (std::size_t i = 0; i < ps.size(); ++i)
    if (ps.point(i) == Vec2{0, 0}) ++at_origin;
  EXPECT_GE(at_origin, ps.size() - 1);
}

TEST(ParticleSet, RegularizeAddsSmallJitter) {
  const auto prior = GaussianPrior::isotropic({0.5, 0.5}, 0.1);
  Rng rng(7);
  ParticleSet ps = ParticleSet::from_prior(*prior, 500, rng);
  const Vec2 before = ps.mean();
  const double var_before = ps.covariance().xx;
  ps.regularize(rng);
  EXPECT_NEAR(ps.mean().x, before.x, 0.02);
  // Jitter inflates variance slightly, never collapses it.
  EXPECT_GT(ps.covariance().xx, 0.8 * var_before);
  EXPECT_LT(ps.covariance().xx, 1.5 * var_before);
}

TEST(ParticleSet, RegularizeUnsticksDegenerateCloud) {
  ParticleSet ps = ParticleSet::delta({0.5, 0.5}, 50);
  Rng rng(9);
  ps.regularize(rng);
  // Not all particles identical anymore (bandwidth floor applies).
  bool any_moved = false;
  for (std::size_t i = 0; i < ps.size(); ++i)
    any_moved |= ps.point(i) != Vec2{0.5, 0.5};
  EXPECT_TRUE(any_moved);
}

TEST(ParticleSet, BestReturnsHighestWeight) {
  ParticleSet ps = ParticleSet::from_points({{0, 0}, {1, 1}, {2, 2}});
  const std::vector<double> w = {0.1, 0.7, 0.2};
  ps.set_weights(w);
  EXPECT_EQ(ps.best(), (Vec2{1, 1}));
}

TEST(ParticleSet, SubsampleFollowsWeights) {
  ParticleSet ps = ParticleSet::from_points({{0, 0}, {1, 1}});
  const std::vector<double> w = {0.9, 0.1};
  ps.set_weights(w);
  Rng rng(11);
  std::size_t zero_count = 0, total = 0;
  for (int rep = 0; rep < 200; ++rep) {
    for (std::size_t idx : ps.subsample(10, rng)) {
      if (idx == 0) ++zero_count;
      ++total;
    }
  }
  EXPECT_NEAR(static_cast<double>(zero_count) / static_cast<double>(total),
              0.9, 0.05);
}

}  // namespace
}  // namespace bnloc
