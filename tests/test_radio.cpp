// Unit tests for ranging models and link generation (radio/).
#include <gtest/gtest.h>

#include <cmath>

#include "radio/connectivity.hpp"
#include "radio/ranging.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace bnloc {
namespace {

TEST(Ranging, MeasurementsArePositive) {
  Rng rng(1);
  for (RangingType type : {RangingType::gaussian, RangingType::log_normal}) {
    RangingSpec spec{type, 0.3, 0.15};
    for (int i = 0; i < 1000; ++i)
      EXPECT_GT(spec.measure(0.01, rng), 0.0);
  }
}

TEST(Ranging, GaussianMeanEqualsTrueDistance) {
  Rng rng(2);
  RangingSpec spec{RangingType::gaussian, 0.1, 0.15};
  RunningStats rs;
  for (int i = 0; i < 50000; ++i) rs.add(spec.measure(0.1, rng));
  EXPECT_NEAR(rs.mean(), 0.1, 0.001);
  EXPECT_NEAR(rs.stddev(), 0.1 * 0.15, 0.001);
}

TEST(Ranging, LogNormalMedianEqualsTrueDistance) {
  Rng rng(3);
  RangingSpec spec{RangingType::log_normal, 0.1, 0.15};
  std::vector<double> xs(20001);
  for (auto& x : xs) x = spec.measure(0.2, rng);
  EXPECT_NEAR(quantile(xs, 0.5), 0.2, 0.005);
}

// The RSSI abstraction: log(d̂ / d) is N(0, noise_factor) at any distance,
// the spread the log-normal likelihood assumes.
TEST(Ranging, LogNormalLogErrorHasSigmaNoiseFactor) {
  Rng rng(7);
  for (const double d : {0.05, 0.2}) {
    RangingSpec spec{RangingType::log_normal, 0.25, 0.15};
    RunningStats log_ratio;
    for (int i = 0; i < 50000; ++i)
      log_ratio.add(std::log(spec.measure(d, rng) / d));
    EXPECT_NEAR(log_ratio.mean(), 0.0, 0.005) << "d=" << d;
    EXPECT_NEAR(log_ratio.stddev(), 0.25, 0.005) << "d=" << d;
  }
}

TEST(Ranging, LogNormalNoiseGrowsWithDistance) {
  RangingSpec spec{RangingType::log_normal, 0.1, 0.15};
  EXPECT_GT(spec.sigma_at(0.2), spec.sigma_at(0.1));
  // Gaussian sigma is constant.
  RangingSpec g{RangingType::gaussian, 0.1, 0.15};
  EXPECT_DOUBLE_EQ(g.sigma_at(0.2), g.sigma_at(0.1));
  EXPECT_DOUBLE_EQ(g.sigma_at(0.1), 0.1 * 0.15);
}

TEST(Ranging, LikelihoodPeaksNearMeasurement) {
  for (RangingType type : {RangingType::gaussian, RangingType::log_normal}) {
    RangingSpec spec{type, 0.1, 0.15};
    const double measured = 0.12;
    const double at_true = spec.likelihood(measured, measured);
    EXPECT_GT(at_true, spec.likelihood(measured, 0.20));
    EXPECT_GT(at_true, spec.likelihood(measured, 0.05));
  }
}

TEST(Ranging, LikelihoodIsDensityInMeasurement) {
  // Integrating L(m | d) over m must give ~1 for both models.
  for (RangingType type : {RangingType::gaussian, RangingType::log_normal}) {
    RangingSpec spec{type, 0.1, 0.15};
    const double d = 0.1;
    double integral = 0.0;
    const double dm = 1e-4;
    for (double m = dm / 2; m < 0.5; m += dm)
      integral += spec.likelihood(m, d) * dm;
    EXPECT_NEAR(integral, 1.0, 0.01) << "type " << static_cast<int>(type);
  }
}

TEST(Connectivity, UnitDiskIsSharp) {
  const RadioSpec radio = make_radio(0.15, RangingType::gaussian, 0.1);
  EXPECT_DOUBLE_EQ(radio.link_probability(0.149), 1.0);
  EXPECT_DOUBLE_EQ(radio.link_probability(0.151), 0.0);
  EXPECT_DOUBLE_EQ(radio.link_probability(0.0), 1.0);
}

TEST(Connectivity, QuasiUdgTransitionBand) {
  const RadioSpec radio = make_radio(0.15, RangingType::gaussian, 0.1,
                                     ConnectivityType::quasi_udg, 0.4);
  EXPECT_DOUBLE_EQ(radio.link_probability(0.08), 1.0);  // below (1-a)R=0.09
  EXPECT_DOUBLE_EQ(radio.link_probability(0.151), 0.0);
  const double mid = radio.link_probability(0.12);  // middle of the band
  EXPECT_GT(mid, 0.0);
  EXPECT_LT(mid, 1.0);
  // Monotone decreasing across the band.
  double prev = 1.0;
  for (double d = 0.09; d <= 0.15; d += 0.005) {
    const double p = radio.link_probability(d);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
  }
}

TEST(GenerateLinks, UnitDiskMatchesGeometry) {
  Rng rng(5);
  const std::vector<Vec2> pts = {
      {0.1, 0.1}, {0.2, 0.1}, {0.9, 0.9}, {0.1, 0.22}};
  const RadioSpec radio = make_radio(0.15, RangingType::gaussian, 0.05);
  const auto edges = generate_links(pts, Aabb::unit(), radio, rng);
  // Expected links: (0,1) d=0.1, (0,3) d=0.12, (1,3) d~0.156 > R no.
  ASSERT_EQ(edges.size(), 2u);
  for (const Edge& e : edges) {
    EXPECT_LE(distance(pts[e.u], pts[e.v]), radio.range);
    EXPECT_GT(e.weight, 0.0);
    // Gaussian 5% noise: measured within ~4 sigma of the truth.
    EXPECT_NEAR(e.weight, distance(pts[e.u], pts[e.v]),
                4.0 * 0.05 * radio.range);
  }
}

TEST(GenerateLinks, DeterministicInRng) {
  Rng rng_a(7), rng_b(7);
  std::vector<Vec2> pts;
  Rng prng(11);
  for (int i = 0; i < 60; ++i) pts.push_back({prng.uniform(), prng.uniform()});
  const RadioSpec radio = make_radio(0.2, RangingType::log_normal, 0.1);
  const auto e1 = generate_links(pts, Aabb::unit(), radio, rng_a);
  const auto e2 = generate_links(pts, Aabb::unit(), radio, rng_b);
  ASSERT_EQ(e1.size(), e2.size());
  for (std::size_t i = 0; i < e1.size(); ++i) {
    EXPECT_EQ(e1[i].u, e2[i].u);
    EXPECT_EQ(e1[i].v, e2[i].v);
    EXPECT_DOUBLE_EQ(e1[i].weight, e2[i].weight);
  }
}

TEST(GenerateLinks, QuasiUdgProducesFewerLinksThanDisk) {
  std::vector<Vec2> pts;
  Rng prng(13);
  for (int i = 0; i < 200; ++i)
    pts.push_back({prng.uniform(), prng.uniform()});
  Rng ra(1), rb(1);
  const auto disk = generate_links(
      pts, Aabb::unit(), make_radio(0.15, RangingType::gaussian, 0.1), ra);
  const auto qudg = generate_links(
      pts, Aabb::unit(),
      make_radio(0.15, RangingType::gaussian, 0.1,
                 ConnectivityType::quasi_udg, 0.4),
      rb);
  EXPECT_LT(qudg.size(), disk.size());
  EXPECT_GT(qudg.size(), disk.size() / 3);  // but not catastrophically fewer
}

TEST(MakeRadio, KeepsRangingRangeInSync) {
  const RadioSpec radio = make_radio(0.25, RangingType::gaussian, 0.08);
  EXPECT_DOUBLE_EQ(radio.ranging.range, 0.25);
  EXPECT_DOUBLE_EQ(radio.ranging.noise_factor, 0.08);
}

}  // namespace
}  // namespace bnloc
