// Unit tests for the deterministic RNG (support/rng.hpp).
#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

namespace bnloc {
namespace {

// Every seeded stream starts from splitmix64, so pin it to the reference
// outputs of Vigna's splitmix64.c for state 1234567.
TEST(Rng, SplitmixMatchesTheReferenceOutputs) {
  std::uint64_t state = 1234567;
  for (const std::uint64_t expected :
       {6457827717110365317ULL, 3203168211198807973ULL, 9817491932198370423ULL,
        4593380528125082431ULL, 16408922859458223821ULL}) {
    EXPECT_EQ(splitmix64(state), expected);
  }
}

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(7);
  Rng child = parent.split(1);
  Rng parent2(7);
  Rng child2 = parent2.split(1);
  // Same derivation is reproducible...
  for (int i = 0; i < 20; ++i) EXPECT_EQ(child.next_u64(), child2.next_u64());
  // ...and different salts differ. Note split() advances the parent, so
  // derive both salts from the same parent state.
  Rng p3(7), p4(7);
  Rng c1 = p3.split(1);
  Rng c2 = p4.split(2);
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (c1.next_u64() == c2.next_u64()) ++same;
  EXPECT_LE(same, 1);
}

TEST(Rng, UniformInHalfOpenUnitInterval) {
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.5, 2.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.25);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversAllValuesWithoutBias) {
  Rng rng(5);
  constexpr std::uint64_t k = 7;
  std::vector<int> counts(k, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(k)];
  for (std::uint64_t v = 0; v < k; ++v) {
    EXPECT_GT(counts[v], 0);
    // Each bucket within 10% of the expected share.
    EXPECT_NEAR(counts[v], n / static_cast<double>(k), n * 0.01);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(99);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(Rng, NormalScaleAndShift) {
  Rng rng(99);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, BernoulliRate) {
  Rng rng(23);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng rng(77);
  const auto sample = rng.sample_indices(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t i : sample) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleIndicesFullSet) {
  Rng rng(77);
  const auto sample = rng.sample_indices(10, 10);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleIndicesApproximatelyUniform) {
  Rng rng(13);
  std::vector<int> counts(20, 0);
  const int reps = 20000;
  for (int r = 0; r < reps; ++r)
    for (std::size_t i : rng.sample_indices(20, 5)) ++counts[i];
  // Each index selected with probability 5/20 = 0.25.
  for (int c : counts)
    EXPECT_NEAR(c / static_cast<double>(reps), 0.25, 0.02);
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, MomentsHoldAcrossSeeds) {
  Rng rng(GetParam());
  const int n = 20000;
  double mean = 0.0;
  for (int i = 0; i < n; ++i) mean += rng.uniform();
  EXPECT_NEAR(mean / n, 0.5, 0.02);
}

TEST_P(RngSeedSweep, SplitmixSeedingNeverYieldsZeroState) {
  Rng rng(GetParam());
  // If the state were all zero the stream would be constant zero.
  bool nonzero = false;
  for (int i = 0; i < 8; ++i) nonzero |= rng.next_u64() != 0;
  EXPECT_TRUE(nonzero);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 0xffffffffULL,
                                           ~0ULL));

}  // namespace
}  // namespace bnloc
