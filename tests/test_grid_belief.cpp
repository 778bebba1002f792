// Unit tests for the grid belief representation (inference/grid_belief.hpp).
#include "inference/grid_belief.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

namespace bnloc {
namespace {

double total_mass(const GridBelief& b) {
  const auto m = b.mass();
  return std::accumulate(m.begin(), m.end(), 0.0);
}

TEST(GridBelief, UniformByDefault) {
  const GridBelief b(Aabb::unit(), 16);
  EXPECT_EQ(b.cell_count(), 256u);
  EXPECT_NEAR(total_mass(b), 1.0, 1e-12);
  EXPECT_NEAR(b.mass()[0], 1.0 / 256.0, 1e-15);
  EXPECT_NEAR(b.entropy(), std::log(256.0), 1e-9);
}

TEST(GridBelief, CellGeometryRoundTrip) {
  const GridBelief b(Aabb::unit(), 10);
  for (std::size_t c : {0UL, 5UL, 42UL, 99UL}) {
    EXPECT_EQ(b.cell_at(b.cell_center(c)), c);
  }
  // Boundary points clamp into the grid.
  EXPECT_EQ(b.cell_at({1.0, 1.0}), b.cell_count() - 1);
  EXPECT_EQ(b.cell_at({-0.5, -0.5}), 0u);
}

TEST(GridBelief, DeltaConcentratesAllMass) {
  GridBelief b(Aabb::unit(), 16);
  b.set_delta({0.31, 0.77});
  EXPECT_NEAR(total_mass(b), 1.0, 1e-12);
  EXPECT_NEAR(b.mass()[b.cell_at({0.31, 0.77})], 1.0, 1e-12);
  EXPECT_NEAR(b.entropy(), 0.0, 1e-12);
  // Mean is the containing cell's center.
  EXPECT_NEAR(distance(b.mean(), {0.31, 0.77}), 0.05, 0.05);
}

TEST(GridBelief, FromPriorMatchesGaussianMoments) {
  GridBelief b(Aabb::unit(), 64);
  const auto prior = GaussianPrior::isotropic({0.5, 0.5}, 0.08);
  b.set_from_prior(*prior);
  EXPECT_NEAR(total_mass(b), 1.0, 1e-12);
  EXPECT_NEAR(b.mean().x, 0.5, 0.01);
  EXPECT_NEAR(b.mean().y, 0.5, 0.01);
  const Cov2 cov = b.covariance();
  EXPECT_NEAR(cov.xx, 0.08 * 0.08, 0.001);
  EXPECT_NEAR(cov.xy, 0.0, 0.001);
}

TEST(GridBelief, FromPriorOutsideFieldFallsBackToUniform) {
  GridBelief b(Aabb::unit(), 16);
  const auto prior = GaussianPrior::isotropic({50.0, 50.0}, 0.01);
  b.set_from_prior(*prior);
  EXPECT_NEAR(b.entropy(), std::log(256.0), 1e-6);
}

TEST(GridBelief, MultiplySharpens) {
  GridBelief b(Aabb::unit(), 16);
  std::vector<double> factor(256, 0.0);
  factor[100] = 1.0;
  b.multiply(factor, 0.0);
  EXPECT_NEAR(b.mass()[100], 1.0, 1e-12);
  EXPECT_NEAR(total_mass(b), 1.0, 1e-12);
}

TEST(GridBelief, MultiplyWithFloorKeepsSupportAlive) {
  GridBelief b(Aabb::unit(), 16);
  std::vector<double> zero(256, 0.0);
  b.multiply(zero, 1e-6);
  // All-zero factor with a floor leaves the belief unchanged (uniform).
  EXPECT_NEAR(b.mass()[7], 1.0 / 256.0, 1e-12);
}

TEST(GridBelief, MultiplyAllZeroWithoutFloorResetsToUniform) {
  GridBelief b(Aabb::unit(), 16);
  b.set_delta({0.5, 0.5});
  std::vector<double> zero(256, 0.0);
  b.multiply(zero, 0.0);
  EXPECT_NEAR(b.entropy(), std::log(256.0), 1e-9);
}

TEST(GridBelief, TotalVariationProperties) {
  GridBelief a(Aabb::unit(), 16), b(Aabb::unit(), 16);
  EXPECT_DOUBLE_EQ(a.total_variation(b), 0.0);
  b.set_delta({0.1, 0.1});
  const double tv = a.total_variation(b);
  EXPECT_GT(tv, 0.9);
  EXPECT_LE(tv, 1.0);
  EXPECT_DOUBLE_EQ(tv, b.total_variation(a));  // symmetry
}

TEST(GridBelief, MixWithInterpolates) {
  GridBelief a(Aabb::unit(), 16), b(Aabb::unit(), 16);
  a.set_delta({0.1, 0.1});
  GridBelief mixed = a;
  mixed.mix_with(b, 0.5);
  EXPECT_NEAR(total_mass(mixed), 1.0, 1e-12);
  EXPECT_NEAR(mixed.mass()[a.cell_at({0.1, 0.1})], 0.5 + 0.5 / 256.0, 1e-12);
}

TEST(GridBelief, SparsifyCoversRequestedMass) {
  GridBelief b(Aabb::unit(), 32);
  const auto prior = GaussianPrior::isotropic({0.5, 0.5}, 0.06);
  b.set_from_prior(*prior);
  const SparseBelief sp = b.sparsify(0.99, 1024);
  EXPECT_GE(sp.covered_fraction, 0.99);
  float sum = 0.0f;
  for (float m : sp.mass) sum += m;
  EXPECT_NEAR(sum, 1.0f, 1e-4f);
}

TEST(GridBelief, SparsifyRespectsCap) {
  const GridBelief b(Aabb::unit(), 32);  // uniform
  const SparseBelief sp = b.sparsify(0.999, 50);
  EXPECT_EQ(sp.size(), 50u);
  EXPECT_NEAR(sp.covered_fraction, 50.0 / 1024.0, 1e-9);
  // Every mass ties, so the lowest cell ids come first, in order.
  std::vector<std::uint32_t> first(50);
  std::iota(first.begin(), first.end(), 0U);
  EXPECT_EQ(sp.cells, first);
}

TEST(GridBelief, SparsifyCellsAreDescendingByMass) {
  GridBelief b(Aabb::unit(), 16);
  const auto prior = GaussianPrior::isotropic({0.3, 0.3}, 0.1);
  b.set_from_prior(*prior);
  const SparseBelief sp = b.sparsify(0.9, 64);
  // An isotropic prior on the diagonal gives cells (x, y) and (y, x) the
  // same mass; equal masses come in ascending cell id.
  std::size_t ties = 0;
  for (std::size_t k = 1; k < sp.size(); ++k) {
    EXPECT_GE(sp.mass[k - 1], sp.mass[k]);
    const double prev = b.mass()[sp.cells[k - 1]];
    const double cur = b.mass()[sp.cells[k]];
    EXPECT_GE(prev, cur);
    if (prev == cur) {
      ++ties;
      EXPECT_LT(sp.cells[k - 1], sp.cells[k]) << "entry " << k;
    }
  }
  EXPECT_GT(ties, 0u);
}

TEST(GridBelief, CovarianceIncludesCellQuantization) {
  GridBelief b(Aabb::unit(), 16);
  b.set_delta({0.5, 0.5});
  // A delta on the grid still has the within-cell variance floor.
  const double cell = 1.0 / 16.0;
  EXPECT_NEAR(b.covariance().xx, cell * cell / 12.0, 1e-12);
}

TEST(GridBelief, RectangularFieldCells) {
  GridBelief b(Aabb{{0, 0}, {2, 1}}, 10);
  // Cells are 0.2 x 0.1; geometry round trips.
  EXPECT_DOUBLE_EQ(b.cell_size(), 0.2);
  EXPECT_EQ(b.cell_at(b.cell_center(37)), 37u);
}

// --- Pyramid regions of interest: support_box -> dilated -> mask_in --------

TEST(CellBox, DilatedGrowsEveryEdgeAndClipsToTheGrid) {
  const CellBox box{3, 5, 2, 6};
  EXPECT_EQ(box.dilated(1, 10), (CellBox{2, 6, 1, 7}));
  EXPECT_EQ(box.dilated(0, 10), box);
  // Edges stop at the grid: a margin past them only clips.
  EXPECT_EQ(box.dilated(3, 10), (CellBox{0, 8, 0, 9}));
  EXPECT_EQ(box.dilated(50, 10), CellBox::full(10));
  // An empty box stays empty rather than growing out of nothing.
  EXPECT_TRUE(CellBox{}.dilated(2, 10).empty());
}

TEST(BeliefOps, SupportBoxBoundsCellsAbovePeakFraction) {
  constexpr std::size_t side = 8;
  std::vector<double> mass(side * side, 0.0);
  mass[2 * side + 3] = 1.0;    // peak at (3, 2)
  mass[5 * side + 6] = 0.5;    // (6, 5): at half the peak
  mass[7 * side + 0] = 1e-3;   // (0, 7): far below it
  EXPECT_EQ(beliefops::support_box(mass, side, 0.5), (CellBox{3, 6, 2, 5}));
  EXPECT_EQ(beliefops::support_box(mass, side, 0.6), CellBox::at(19, side));
  EXPECT_EQ(beliefops::support_box(mass, side, 1e-6), (CellBox{0, 6, 2, 7}));
  // No positive mass: nothing to bound, so the whole grid.
  const std::vector<double> zero(side * side, 0.0);
  EXPECT_EQ(beliefops::support_box(zero, side, 0.5), CellBox::full(side));
}

TEST(BeliefOps, MaskInZeroesOutsideTheBoxAndRenormalizesInside) {
  constexpr std::size_t side = 6;
  const CellBox box{1, 2, 3, 4};  // 2 x 2
  std::vector<double> mass(side * side, 1.0 / 36.0);
  mass[3 * side + 1] = 3.0 / 36.0;
  beliefops::mask_in(mass, side, box);
  double inside = 0.0;
  for (std::size_t c = 0; c < mass.size(); ++c) {
    const auto x = static_cast<std::int32_t>(c % side);
    const auto y = static_cast<std::int32_t>(c / side);
    const bool in = x >= box.x0 && x <= box.x1 && y >= box.y0 && y <= box.y1;
    if (in) {
      inside += mass[c];
    } else {
      EXPECT_EQ(mass[c], 0.0) << "cell " << c;
    }
  }
  EXPECT_NEAR(inside, 1.0, 1e-12);
  // Ratios inside the box survive the renormalization: 3 : 1 : 1 : 1.
  EXPECT_NEAR(mass[3 * side + 1], 0.5, 1e-12);
  EXPECT_NEAR(mass[4 * side + 2], 1.0 / 6.0, 1e-12);

  // The full box masks nothing: the buffer is left as it is, bit for bit.
  std::vector<double> untouched(side * side, 0.25);
  beliefops::mask_in(untouched, side, CellBox::full(side));
  for (const double m : untouched) EXPECT_EQ(m, 0.25);
}

TEST(BeliefOps, MaskInWithNoMassInsideFallsBackToUniformInTheBox) {
  constexpr std::size_t side = 6;
  std::vector<double> mass(side * side, 0.0);
  mass[0] = 1.0;  // all the mass outside the box
  const CellBox box{2, 4, 1, 2};  // 3 x 2
  beliefops::mask_in(mass, side, box);
  EXPECT_EQ(mass[0], 0.0);
  for (std::int32_t y = box.y0; y <= box.y1; ++y)
    for (std::int32_t x = box.x0; x <= box.x1; ++x)
      EXPECT_NEAR(mass[static_cast<std::size_t>(y) * side +
                       static_cast<std::size_t>(x)],
                  1.0 / 6.0, 1e-15);
  EXPECT_NEAR(std::accumulate(mass.begin(), mass.end(), 0.0), 1.0, 1e-12);
}

TEST(BeliefStore, SlotsAreSizedToTheirBoxes) {
  const GridShape shape{Aabb::unit(), 12};
  const CellBox roi{2, 4, 7, 8};  // 3 x 2
  BeliefStore store(shape, {CellBox::full(12), roi, CellBox{},
                            CellBox::at(5 * 12 + 6, 12)});
  ASSERT_EQ(store.count(), 4u);
  EXPECT_EQ(store[0].size(), 144u);
  EXPECT_EQ(store[1].size(), 6u);
  EXPECT_EQ(store[2].size(), 0u);  // an empty box holds no cells
  EXPECT_EQ(store[3].size(), 1u);
  EXPECT_EQ(store.view(3).box, (CellBox{6, 6, 5, 5}));
  EXPECT_EQ(store.bytes(), 151 * sizeof(double));
  // Grid row 8 of the ROI is the slot's second packed row.
  EXPECT_EQ(store.view(1).row(8), store[1].data() + 3);
  EXPECT_EQ(store.view(1).cell_at_offset(4), 8u * 12u + 3u);

  // The count constructor is the all-full-box case: the dense layout.
  const BeliefStore dense(shape, 2);
  EXPECT_EQ(dense.view(1).box, CellBox::full(12));
  EXPECT_EQ(dense[1].size(), 144u);
}

// Consumers that need a whole-grid belief (estimates, upsampling) unpack a
// slot into a dense scratch: the unpacked buffer is the dense belief bit
// for bit — zeros outside the box, nothing renormalized — so every
// whole-grid reduction over it matches the dense layout exactly.
TEST(BeliefStore, DenseUnpacksWithoutResumming) {
  const GridShape shape{Aabb::unit(), 15};
  const CellBox roi{3, 9, 5, 10};
  std::vector<double> dense(shape.cell_count(), 0.0);
  std::mt19937_64 gen(4);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  for (std::int32_t y = roi.y0; y <= roi.y1; ++y)
    for (std::int32_t x = roi.x0; x <= roi.x1; ++x)
      dense[static_cast<std::size_t>(y) * 15 + static_cast<std::size_t>(x)] =
          dist(gen);
  beliefops::normalize(dense);

  BeliefStore store(shape, {roi});
  beliefops::copy_in(ConstBoxView::dense(dense, 15, roi), store.view(0));
  std::vector<double> scratch;
  const std::span<const double> unpacked = store.dense(0, scratch);
  ASSERT_EQ(unpacked.size(), dense.size());
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t c = 0; c < dense.size(); ++c)
    ASSERT_EQ(bits(unpacked[c]), bits(dense[c])) << "cell " << c;
  const Vec2 m0 = beliefops::mean(shape, dense);
  const Vec2 m1 = beliefops::mean(shape, unpacked);
  EXPECT_EQ(bits(m0.x), bits(m1.x));
  EXPECT_EQ(bits(m0.y), bits(m1.y));
  EXPECT_EQ(bits(beliefops::covariance(shape, dense, m0).xy),
            bits(beliefops::covariance(shape, unpacked, m1).xy));

  // A full-box slot is already dense: no copy.
  BeliefStore full(shape, 1);
  EXPECT_EQ(full.dense(0, scratch).data(), full[0].data());
}

// The engine's estimates read each belief's ROI box only. Outside the box
// the belief is exactly zero and the scan keeps row-major order, so the box
// moments are the dense ones bit for bit, in either layout: on a partial
// box, a one-cell box and the full box.
TEST(BeliefOps, BoxMomentsMatchDenseBitForBit) {
  const GridShape shape{Aabb{{-0.3, 0.2}, {1.7, 1.4}}, 13};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  std::mt19937_64 gen(9);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  for (const CellBox roi : {CellBox{2, 8, 4, 11}, CellBox{5, 5, 7, 7},
                            CellBox::full(shape.side)}) {
    std::vector<double> dense(shape.cell_count(), 0.0);
    for (std::int32_t y = roi.y0; y <= roi.y1; ++y)
      for (std::int32_t x = roi.x0; x <= roi.x1; ++x)
        dense[static_cast<std::size_t>(y) * shape.side +
              static_cast<std::size_t>(x)] = dist(gen);
    beliefops::normalize(dense);
    BeliefStore store(shape, {roi});
    beliefops::copy_in(ConstBoxView::dense(dense, shape.side, roi),
                       store.view(0));

    SCOPED_TRACE(testing::Message() << "box of " << roi.cell_count());
    const Vec2 mu = beliefops::mean(shape, dense);
    const Cov2 cov = beliefops::covariance(shape, dense, mu);
    const ConstBoxView views[] = {ConstBoxView::dense(dense, shape.side, roi),
                                  store.view(0)};
    for (const ConstBoxView& view : views) {
      const Vec2 box_mu = beliefops::mean_in(shape, view);
      EXPECT_EQ(bits(box_mu.x), bits(mu.x));
      EXPECT_EQ(bits(box_mu.y), bits(mu.y));
      const Cov2 box_cov = beliefops::covariance_in(shape, view, box_mu);
      EXPECT_EQ(bits(box_cov.xx), bits(cov.xx));
      EXPECT_EQ(bits(box_cov.xy), bits(cov.xy));
      EXPECT_EQ(bits(box_cov.yy), bits(cov.yy));
    }
  }
}

}  // namespace
}  // namespace bnloc
