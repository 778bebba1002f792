// Unit tests for evaluation metrics (eval/metrics.hpp).
#include "eval/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "geom/cov2.hpp"
#include "support/rng.hpp"

namespace bnloc {
namespace {

Scenario tiny_scenario() {
  ScenarioConfig cfg;
  cfg.node_count = 10;
  cfg.anchor_fraction = 0.2;
  cfg.seed = 1;
  return build_scenario(cfg);
}

TEST(Metrics, PerfectEstimatesGiveZeroError) {
  const Scenario s = tiny_scenario();
  LocalizationResult r = make_result_skeleton(s);
  for (std::size_t i = 0; i < s.node_count(); ++i)
    r.estimates[i] = s.true_positions[i];
  const ErrorReport report = evaluate(s, r);
  EXPECT_DOUBLE_EQ(report.coverage, 1.0);
  EXPECT_EQ(report.errors.size(), s.unknown_count());
  for (double e : report.errors) EXPECT_DOUBLE_EQ(e, 0.0);
  EXPECT_DOUBLE_EQ(report.penalized_mean, 0.0);
}

TEST(Metrics, ErrorIsNormalizedByRange) {
  const Scenario s = tiny_scenario();
  LocalizationResult r = make_result_skeleton(s);
  const double offset = s.radio.range;  // exactly one radio range off
  for (std::size_t i = 0; i < s.node_count(); ++i)
    r.estimates[i] = s.true_positions[i] + Vec2{offset, 0.0};
  const ErrorReport report = evaluate(s, r);
  for (double e : report.errors) EXPECT_NEAR(e, 1.0, 1e-12);
}

TEST(Metrics, AnchorsExcludedFromErrors) {
  const Scenario s = tiny_scenario();
  LocalizationResult r = make_result_skeleton(s);
  // Only fill unknowns; anchors already filled by the skeleton.
  for (std::size_t i = 0; i < s.node_count(); ++i)
    if (!s.is_anchor[i]) r.estimates[i] = s.true_positions[i];
  const ErrorReport report = evaluate(s, r);
  EXPECT_EQ(report.errors.size(), s.unknown_count());
}

TEST(Metrics, MissingEstimatesLowerCoverageAndArePenalized) {
  const Scenario s = tiny_scenario();
  LocalizationResult r = make_result_skeleton(s);
  // Localize none of the unknowns.
  const ErrorReport report = evaluate(s, r);
  EXPECT_DOUBLE_EQ(report.coverage, 0.0);
  EXPECT_TRUE(report.errors.empty());
  EXPECT_GT(report.penalized_mean, 0.0);  // charged the center-guess error
}

TEST(Metrics, PenalizedMeanEqualsPlainMeanAtFullCoverage) {
  const Scenario s = tiny_scenario();
  LocalizationResult r = make_result_skeleton(s);
  for (std::size_t i = 0; i < s.node_count(); ++i)
    r.estimates[i] = s.true_positions[i] + Vec2{0.01, 0.0};
  const ErrorReport report = evaluate(s, r);
  EXPECT_NEAR(report.penalized_mean, report.summary.mean, 1e-12);
}

TEST(Metrics, CoverageWithinSigmaPerfectCalibration) {
  const Scenario s = tiny_scenario();
  LocalizationResult r = make_result_skeleton(s);
  for (std::size_t i = 0; i < s.node_count(); ++i) {
    r.estimates[i] = s.true_positions[i];  // exact
    r.covariances[i] = Cov2::isotropic(1e-4);
  }
  EXPECT_DOUBLE_EQ(coverage_within_sigma(s, r, 2.0), 1.0);
}

TEST(Metrics, CoverageWithinSigmaDetectsOverconfidence) {
  const Scenario s = tiny_scenario();
  LocalizationResult r = make_result_skeleton(s);
  for (std::size_t i = 0; i < s.node_count(); ++i) {
    // One radio range off but claiming millimeter certainty.
    r.estimates[i] = s.true_positions[i] + Vec2{s.radio.range, 0.0};
    r.covariances[i] = Cov2::isotropic(1e-10);
  }
  EXPECT_DOUBLE_EQ(coverage_within_sigma(s, r, 2.0), 0.0);
}

TEST(Metrics, CoverageWithinSigmaIgnoresNodesWithoutCovariance) {
  const Scenario s = tiny_scenario();
  LocalizationResult r = make_result_skeleton(s);
  for (std::size_t i = 0; i < s.node_count(); ++i) {
    if (s.is_anchor[i]) continue;
    r.estimates[i] = s.true_positions[i];
    r.covariances[i] = std::nullopt;
  }
  EXPECT_DOUBLE_EQ(coverage_within_sigma(s, r, 2.0), 0.0);
}

TEST(Metrics, CoverageWithinSigmaMeetsTheTwoDNominals) {
  // Truths drawn from the reported Gaussian: md^2 is then chi-square with
  // 2 degrees of freedom, so the k-sigma share tends to 1 - e^(-k^2/2),
  // the nominals T1 and quickstart print (0.393 at 1 sigma, 0.865 at 2).
  ScenarioConfig cfg;
  cfg.node_count = 400;
  cfg.anchor_fraction = 0.1;
  cfg.seed = 3;
  const Scenario s = build_scenario(cfg);
  const Cov2 cov{4e-4, 1.5e-4, 2.5e-4};  // anisotropic and correlated
  const Cov2::Chol l = cov.cholesky();
  Rng rng(11);
  constexpr int kDraws = 10;  // ~3600 unknowns in all
  double share1 = 0.0;
  double share2 = 0.0;
  for (int draw = 0; draw < kDraws; ++draw) {
    LocalizationResult r = make_result_skeleton(s);
    for (const std::size_t i : s.unknown_indices()) {
      const double z1 = rng.normal();
      const double z2 = rng.normal();
      // truth = estimate + L z with L L^T = cov.
      r.estimates[i] = s.true_positions[i] -
                       Vec2{l.l11 * z1, l.l21 * z1 + l.l22 * z2};
      r.covariances[i] = cov;
    }
    const double c1 = coverage_within_sigma(s, r, 1.0);
    const double c2 = coverage_within_sigma(s, r, 2.0);
    EXPECT_LE(c1, c2);
    share1 += c1 / kDraws;
    share2 += c2 / kDraws;
  }
  // About four binomial standard errors at ~3600 samples.
  EXPECT_NEAR(share1, 1.0 - std::exp(-0.5), 0.035);
  EXPECT_NEAR(share2, 1.0 - std::exp(-2.0), 0.025);
}

TEST(Metrics, CoverageWithinSigmaCountsTheEllipseEdgeAsInside) {
  // Inside means md^2 <= k^2. Powers of two keep md^2 exact here: an
  // offset of 1/8 against a variance of 1/64 is exactly one sigma.
  Scenario s = tiny_scenario();
  const Vec2 truth{0.5, 0.5};
  LocalizationResult r = make_result_skeleton(s);
  for (const std::size_t i : s.unknown_indices()) {
    s.true_positions[i] = truth;
    r.estimates[i] = truth + Vec2{0.125, 0.0};
    r.covariances[i] = Cov2::isotropic(1.0 / 64.0);
  }
  EXPECT_DOUBLE_EQ(coverage_within_sigma(s, r, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(
      coverage_within_sigma(s, r, std::nextafter(1.0, 0.0)), 0.0);
}

TEST(Metrics, LocalizedCount) {
  const Scenario s = tiny_scenario();
  LocalizationResult r = make_result_skeleton(s);
  EXPECT_EQ(r.localized_count(), s.anchor_count());
  r.estimates[s.unknown_indices()[0]] = Vec2{0.5, 0.5};
  EXPECT_EQ(r.localized_count(), s.anchor_count() + 1);
}

TEST(Metrics, SkeletonPrefillsAnchors) {
  const Scenario s = tiny_scenario();
  const LocalizationResult r = make_result_skeleton(s);
  for (std::size_t i = 0; i < s.node_count(); ++i) {
    if (s.is_anchor[i]) {
      ASSERT_TRUE(r.estimates[i].has_value());
      EXPECT_EQ(*r.estimates[i], s.true_positions[i]);
    } else {
      EXPECT_FALSE(r.estimates[i].has_value());
    }
  }
}

}  // namespace
}  // namespace bnloc
