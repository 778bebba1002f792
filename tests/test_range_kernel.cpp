// Unit tests for annulus/disk message kernels (inference/range_kernel.hpp).
#include "inference/range_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <random>
#include <vector>

#include "support/simd.hpp"

namespace bnloc {
namespace {

RangingSpec gaussian_spec(double noise, double range) {
  RangingSpec s;
  s.type = RangingType::gaussian;
  s.noise_factor = noise;
  s.range = range;
  return s;
}

TEST(RangeKernel, AccumulateFromDeltaDrawsAnnulus) {
  const GridBelief shape(Aabb::unit(), 32);
  const RangingSpec spec = gaussian_spec(0.1, 0.15);
  const double measured = 0.2;
  const RangeKernel k = RangeKernel::make_range(measured, spec, shape);
  ASSERT_GT(k.stamp_count(), 0u);

  // Source: delta at the grid center.
  GridBelief src(Aabb::unit(), 32);
  src.set_delta({0.5, 0.5});
  const SparseBelief sp = src.sparsify(1.0, 4);

  std::vector<double> out(32 * 32, 0.0);
  k.accumulate(sp, out, 32);

  // The output must peak at cells whose center distance to (0.5, 0.5) is
  // close to `measured`, and be zero well inside/outside the annulus.
  const double sigma = spec.sigma_at(measured);
  double peak = *std::max_element(out.begin(), out.end());
  ASSERT_GT(peak, 0.0);
  for (std::size_t c = 0; c < out.size(); ++c) {
    const double r = distance(shape.cell_center(c), src.mean());
    if (out[c] > 0.5 * peak) {
      EXPECT_NEAR(r, measured, 3.0 * sigma + 0.05);
    }
    if (std::abs(r - measured) > 4.0 * sigma + 0.1) {
      EXPECT_EQ(out[c], 0.0);
    }
  }
}

TEST(RangeKernel, MatchesBruteForceConvolution) {
  const std::size_t side = 24;
  const GridBelief shape(Aabb::unit(), side);
  const RangingSpec spec = gaussian_spec(0.15, 0.2);
  const double measured = 0.25;
  const RangeKernel k = RangeKernel::make_range(measured, spec, shape);

  // A two-cell sparse source.
  GridBelief src(Aabb::unit(), side);
  SparseBelief sp;
  sp.cells = {static_cast<std::uint32_t>(src.cell_at({0.3, 0.4})),
              static_cast<std::uint32_t>(src.cell_at({0.7, 0.6}))};
  sp.mass = {0.6f, 0.4f};

  std::vector<double> fast(side * side, 0.0);
  k.accumulate(sp, fast, side);

  // Brute force: for every target cell, sum the spec likelihood over the
  // two sources — up to the kernel's peak normalization and truncation.
  std::vector<double> slow(side * side, 0.0);
  for (std::size_t c = 0; c < slow.size(); ++c) {
    for (std::size_t s = 0; s < sp.cells.size(); ++s) {
      const double r = distance(shape.cell_center(c),
                                shape.cell_center(sp.cells[s]));
      slow[c] += sp.mass[s] * spec.likelihood(measured, r);
    }
  }
  const double fast_peak = *std::max_element(fast.begin(), fast.end());
  const double slow_peak = *std::max_element(slow.begin(), slow.end());
  ASSERT_GT(fast_peak, 0.0);
  for (std::size_t c = 0; c < slow.size(); ++c) {
    // Allow truncation differences at the annulus tails.
    EXPECT_NEAR(fast[c] / fast_peak, slow[c] / slow_peak, 0.05)
        << "cell " << c;
  }
}

TEST(RangeKernel, StampWeightsPeakAtOne) {
  const GridBelief shape(Aabb::unit(), 32);
  const RangeKernel k =
      RangeKernel::make_range(0.15, gaussian_spec(0.1, 0.15), shape);
  GridBelief src(Aabb::unit(), 32);
  src.set_delta({0.5, 0.5});
  std::vector<double> out(32 * 32, 0.0);
  k.accumulate(src.sparsify(1.0, 1), out, 32);
  EXPECT_NEAR(*std::max_element(out.begin(), out.end()), 1.0, 0.05);
}

TEST(RangeKernel, LargerNoiseGivesThickerAnnulus) {
  const GridBelief shape(Aabb::unit(), 48);
  const RangeKernel thin =
      RangeKernel::make_range(0.2, gaussian_spec(0.05, 0.15), shape);
  const RangeKernel thick =
      RangeKernel::make_range(0.2, gaussian_spec(0.2, 0.15), shape);
  EXPECT_GT(thick.stamp_count(), thin.stamp_count());
}

TEST(RangeKernel, EdgeClippingDropsOutOfGridStamps) {
  const GridBelief shape(Aabb::unit(), 16);
  const RangeKernel k =
      RangeKernel::make_range(0.3, gaussian_spec(0.1, 0.15), shape);
  // Source at the corner: most of the annulus is outside the grid.
  GridBelief src(Aabb::unit(), 16);
  src.set_delta({0.01, 0.01});
  std::vector<double> out(16 * 16, 0.0);
  k.accumulate(src.sparsify(1.0, 1), out, 16);
  // No out-of-bounds write happened (ASAN-level check is implicit) and the
  // in-grid quarter annulus is present.
  EXPECT_GT(*std::max_element(out.begin(), out.end()), 0.0);
}

// The grid engine keeps its message buffers at zero and clears nothing
// before a correlation: correlate_zeroed on a buffer zeroed only over
// touched_box must give correlate()'s peak and cells bit for bit, and write
// nothing outside that box — where correlate() leaves exact zeros. Covers
// the whole grid, an ROI box in both storage layouts, and summaries whose
// footprint is clipped by the grid border or straddles the ROI edge.
TEST(RangeKernel, CorrelateZeroedMatchesCorrelateInsideTouchedBox) {
  constexpr std::size_t side = 29;
  const GridShape shape{Aabb::unit(), side};
  const RangeKernel k =
      RangeKernel::make_range(0.18, gaussian_spec(0.1, 0.3), shape);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const auto summary = [](std::initializer_list<std::uint32_t> cells) {
    SparseBelief s;
    for (const std::uint32_t c : cells) {
      s.cells.push_back(c);
      s.mass.push_back(1.0F / static_cast<float>(cells.size()));
    }
    return s;
  };
  const SparseBelief summaries[] = {
      summary({14 * side + 14, 14 * side + 15, 15 * side + 14}),  // interior
      summary({0, 1, side, 27 * side + 28}),  // clipped at the grid border
      summary({4 * side + 4, 6 * side + 21}),  // straddles the ROI edge
  };
  const CellBox roi{5, 20, 7, 22};
  constexpr double kSentinel = -3.0;

  for (const SparseBelief& src : summaries) {
    for (const bool packed : {false, true}) {
      for (const CellBox& box : {CellBox::full(side), roi}) {
        if (packed && box.is_full(side)) continue;  // the same layout
        const std::size_t size = packed ? box.cell_count() : side * side;
        const auto view = [&](std::vector<double>& buf) {
          return packed ? BoxView::packed(buf, side, box)
                        : BoxView::dense(buf, side, box);
        };
        std::vector<double> want(size, 7.0), got(size, kSentinel);
        const double want_peak = k.correlate(src, view(want));
        const CellBox touched = k.touched_box(src, box, side);
        ASSERT_FALSE(touched.empty());
        beliefops::fill_in(view(got).sub(touched), 0.0);
        EXPECT_EQ(bits(k.correlate_zeroed(src, view(got), touched)),
                  bits(want_peak));

        for (std::int32_t y = 0; y < static_cast<std::int32_t>(side); ++y)
          for (std::int32_t x = 0; x < static_cast<std::int32_t>(side); ++x) {
            const bool in_view =
                x >= box.x0 && x <= box.x1 && y >= box.y0 && y <= box.y1;
            if (!in_view) {
              if (!packed) {
                ASSERT_EQ(got[static_cast<std::size_t>(y) * side +
                              static_cast<std::size_t>(x)],
                          kSentinel);
              }
              continue;
            }
            const double g = view(got).row(y)[x - box.x0];
            const double w = view(want).row(y)[x - box.x0];
            if (x >= touched.x0 && x <= touched.x1 && y >= touched.y0 &&
                y <= touched.y1) {
              ASSERT_EQ(bits(g), bits(w)) << "x=" << x << " y=" << y;
            } else {
              ASSERT_EQ(g, kSentinel) << "wrote outside the touched box";
              ASSERT_EQ(w, 0.0) << "correlation nonzero outside the box";
            }
          }
      }
    }
  }

  // A summary whose reach misses the ROI in x but not in y: the one empty
  // box, so the engine's loops over its rows never run, and no support.
  const CellBox narrow{3, 8, 7, 22};
  const SparseBelief far = summary({14 * side + 28});
  EXPECT_EQ(k.touched_box(far, narrow, side), CellBox{});
  std::vector<double> untouched(narrow.cell_count(), kSentinel);
  EXPECT_EQ(k.correlate_zeroed(far, BoxView::packed(untouched, side, narrow),
                               CellBox{}),
            0.0);
  for (const double v : untouched) ASSERT_EQ(v, kSentinel);
}

// A replay clipped to a box gives every in-box cell the same additions, in
// the same order, as the whole-grid replay: the grid engine builds one
// negative-evidence map per summary over the box the summary touches and
// serves every receiver that map restricted to its ROI, so the identity
// must hold bit for bit whichever replay path runs — the whole grid's
// interior offset loop, vector runs or border-clipped scalar runs, or the
// box-clipped axpys — in every SIMD mode and under any -march (the build
// pins -ffp-contract=off on the kernel for this). Covers range and
// connectivity kernels, random summaries anywhere on the grid, the full
// box, an interior box, a box on two grid borders and each summary's own
// touched box, in the dense and the packed layout.
TEST(RangeKernel, SubBoxReplayMatchesWholeGridBitForBit) {
  constexpr std::size_t side = 48;
  const GridShape shape{Aabb::unit(), side};
  // A thick annulus and the connectivity disk have long runs (the whole
  // grid's vector-run path in vector modes); a thin annulus has short ones
  // (its offset loop in every mode).
  const RangeKernel kernels[] = {
      RangeKernel::make_range(0.2, gaussian_spec(0.1, 0.25), shape),
      RangeKernel::make_range(0.3, gaussian_spec(0.01, 0.35), shape),
      RangeKernel::make_connectivity(
          make_radio(0.12, RangingType::gaussian, 0.1), shape),
  };
  ASSERT_GE(kernels[0].stamp_count(), 8 * kernels[0].run_count());
  ASSERT_LT(kernels[1].stamp_count(), 8 * kernels[1].run_count());
  ASSERT_GE(kernels[2].stamp_count(), 8 * kernels[2].run_count());
  for (const RangeKernel& k : kernels) ASSERT_GT(k.stamp_count(), 0u);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };

  std::mt19937_64 gen(20071);
  std::uniform_int_distribution<std::uint32_t> cell_dist(0, side * side - 1);
  std::uniform_int_distribution<std::size_t> size_dist(1, 24);
  std::uniform_real_distribution<float> mass_dist(0.01F, 1.0F);
  std::vector<SparseBelief> summaries(60);
  for (SparseBelief& src : summaries) {
    // Distinct cells, as a sparsified belief has.
    const std::size_t size = size_dist(gen);
    while (src.cells.size() < size) {
      const std::uint32_t c = cell_dist(gen);
      if (std::find(src.cells.begin(), src.cells.end(), c) != src.cells.end())
        continue;
      src.cells.push_back(c);
      src.mass.push_back(mass_dist(gen));
    }
  }

  const struct RestoreMode {
    simd::Mode session = simd::active_mode();
    ~RestoreMode() { simd::set_mode(session); }
  } restore;
  std::vector<simd::Mode> modes{simd::Mode::scalar};
  for (const simd::Mode want :
       {simd::Mode::sse2, simd::Mode::avx2, simd::Mode::neon}) {
    simd::set_mode(want);
    if (std::find(modes.begin(), modes.end(), simd::active_mode()) ==
        modes.end())
      modes.push_back(simd::active_mode());
  }

  for (const simd::Mode mode : modes) {
    simd::set_mode(mode);
    for (const RangeKernel& k : kernels) {
      for (const SparseBelief& src : summaries) {
        std::vector<double> whole(side * side, 0.0);
        k.accumulate(src, whole, side);
        const CellBox boxes[] = {
            CellBox::full(side),
            CellBox{9, 38, 12, 35},                       // interior
            CellBox{0, 21, 30, 47},                       // on two borders
            k.touched_box(src, CellBox::full(side), side),  // a map's box
        };
        for (const CellBox& box : boxes) {
          ASSERT_FALSE(box.empty());
          for (const bool packed : {false, true}) {
            std::vector<double> buf(packed ? box.cell_count() : side * side,
                                    0.0);
            const BoxView view = packed ? BoxView::packed(buf, side, box)
                                        : BoxView::dense(buf, side, box);
            k.accumulate(src, view);
            for (std::int32_t y = box.y0; y <= box.y1; ++y)
              for (std::int32_t x = box.x0; x <= box.x1; ++x) {
                const double want =
                    whole[static_cast<std::size_t>(y) * side +
                          static_cast<std::size_t>(x)];
                ASSERT_EQ(bits(view.row(y)[x - box.x0]), bits(want))
                    << simd::active_name() << " x=" << x << " y=" << y
                    << " box=(" << box.x0 << "," << box.x1 << "," << box.y0
                    << "," << box.y1 << ") packed=" << packed;
              }
          }
        }
      }
    }
  }
}

TEST(ConnectivityKernel, DiskOfLinkProbability) {
  const GridBelief shape(Aabb::unit(), 32);
  const RadioSpec radio = make_radio(0.2, RangingType::gaussian, 0.1);
  const RangeKernel k = RangeKernel::make_connectivity(radio, shape);
  GridBelief src(Aabb::unit(), 32);
  src.set_delta({0.5, 0.5});
  std::vector<double> out(32 * 32, 0.0);
  k.accumulate(src.sparsify(1.0, 1), out, 32);
  for (std::size_t c = 0; c < out.size(); ++c) {
    const double r = distance(shape.cell_center(c), {0.5, 0.5});
    if (r < 0.2 - 0.05) {
      EXPECT_NEAR(out[c], 1.0, 1e-9);
    }
    if (r > 0.2 + 0.05) {
      EXPECT_EQ(out[c], 0.0);
    }
  }
}

TEST(ConnectivityKernel, QuasiUdgFadesWithDistance) {
  const GridBelief shape(Aabb::unit(), 32);
  const RadioSpec radio = make_radio(0.2, RangingType::gaussian, 0.1,
                                     ConnectivityType::quasi_udg, 0.5);
  const RangeKernel k = RangeKernel::make_connectivity(radio, shape);
  GridBelief src(Aabb::unit(), 32);
  src.set_delta({0.5, 0.5});
  std::vector<double> out(32 * 32, 0.0);
  k.accumulate(src.sparsify(1.0, 1), out, 32);
  const double inner = out[shape.cell_at({0.55, 0.5})];   // r=0.05
  const double middle = out[shape.cell_at({0.65, 0.5})];  // r=0.15, in band
  EXPECT_NEAR(inner, 1.0, 1e-9);
  EXPECT_GT(middle, 0.0);
  EXPECT_LT(middle, 1.0);
}

}  // namespace
}  // namespace bnloc
