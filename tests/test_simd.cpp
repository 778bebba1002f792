// Scalar-vs-vector equivalence for the runtime-dispatched SIMD primitives
// (support/simd.hpp) and the beliefops built on them.
//
// Contract under test (see the simd.hpp header):
//  * element-wise primitives (div_all, axpy, mix, the dst update of
//    mul_add_floor_sum) perform the same per-element operations in every
//    mode, so their outputs are bit-identical to scalar;
//  * reductions (sum, l1_diff, the return of mul_add_floor_sum) may
//    reassociate across lanes, so they agree within a tight relative
//    tolerance; max0 is exact under any association;
//  * odd lengths exercise the vector tail handling — lengths and grid
//    sides here are chosen to leave 1..3 remainder elements per lane width.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "core/grid_bncl.hpp"
#include "inference/grid_belief.hpp"
#include "inference/range_kernel.hpp"
#include "support/simd.hpp"

namespace bnloc {
namespace {

/// Every distinct dispatch mode this build + CPU can actually run,
/// starting with scalar (the reference).
std::vector<simd::Mode> available_modes() {
  const simd::Mode session = simd::active_mode();
  std::vector<simd::Mode> modes{simd::Mode::scalar};
  for (const simd::Mode want :
       {simd::Mode::sse2, simd::Mode::avx2, simd::Mode::neon}) {
    simd::set_mode(want);
    const simd::Mode got = simd::active_mode();
    bool seen = false;
    for (const simd::Mode m : modes) seen = seen || m == got;
    if (!seen) modes.push_back(got);
  }
  simd::set_mode(session);
  return modes;
}

std::vector<double> random_buffer(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = dist(gen);
  return v;
}

/// Odd lengths around every lane width (2, 4) plus odd grid sides squared.
const std::size_t kLengths[] = {0,  1,  2,  3,   5,   7,   8,    9,
                                15, 17, 31, 33,  49,  63,  65,   17 * 17,
                                31 * 31, 49 * 49};

class SimdModes : public ::testing::Test {
 protected:
  void SetUp() override { session_ = simd::active_mode(); }
  void TearDown() override { simd::set_mode(session_); }
  simd::Mode session_;
};

TEST_F(SimdModes, ModeRoundTripsAndNamesResolve) {
  for (const simd::Mode m : available_modes()) {
    simd::set_mode(m);
    EXPECT_EQ(simd::active_mode(), m);
    EXPECT_NE(simd::active_name(), nullptr);
  }
  // auto_detect resolves to a concrete mode, never auto itself.
  simd::set_mode(simd::Mode::auto_detect);
  EXPECT_NE(simd::active_mode(), simd::Mode::auto_detect);
}

TEST_F(SimdModes, ElementwisePrimitivesBitIdenticalAtEveryLength) {
  for (const std::size_t n : kLengths) {
    const std::vector<double> base = random_buffer(n, 100 + n);
    const std::vector<double> other = random_buffer(n, 200 + n);
    for (const simd::Mode m : available_modes()) {
      if (m == simd::Mode::scalar) continue;

      std::vector<double> a = base, b = base;
      simd::set_mode(simd::Mode::scalar);
      simd::div_all(a.data(), 3.7, n);
      simd::set_mode(m);
      simd::div_all(b.data(), 3.7, n);
      EXPECT_EQ(a, b) << "div_all n=" << n;

      a = base;
      b = base;
      simd::set_mode(simd::Mode::scalar);
      simd::axpy(a.data(), other.data(), 0.83, n);
      simd::set_mode(m);
      simd::axpy(b.data(), other.data(), 0.83, n);
      EXPECT_EQ(a, b) << "axpy n=" << n;

      a = base;
      b = base;
      simd::set_mode(simd::Mode::scalar);
      simd::mix(a.data(), other.data(), 0.25, n);
      simd::set_mode(m);
      simd::mix(b.data(), other.data(), 0.25, n);
      EXPECT_EQ(a, b) << "mix n=" << n;

      a = base;
      b = base;
      simd::set_mode(simd::Mode::scalar);
      simd::mul_add_floor_sum(a.data(), other.data(), 1e-9, n);
      simd::set_mode(m);
      simd::mul_add_floor_sum(b.data(), other.data(), 1e-9, n);
      EXPECT_EQ(a, b) << "mul_add_floor_sum dst n=" << n;
    }
  }
}

TEST_F(SimdModes, ReductionsAgreeWithinTolerance) {
  for (const std::size_t n : kLengths) {
    const std::vector<double> a = random_buffer(n, 300 + n);
    const std::vector<double> b = random_buffer(n, 400 + n);
    simd::set_mode(simd::Mode::scalar);
    const double sum_ref = simd::sum(a.data(), n);
    const double l1_ref = simd::l1_diff(a.data(), b.data(), n);
    const double max_ref = simd::max0(a.data(), n);
    std::vector<double> dst_ref = a;
    const double mafs_ref =
        simd::mul_add_floor_sum(dst_ref.data(), b.data(), 1e-9, n);

    for (const simd::Mode m : available_modes()) {
      if (m == simd::Mode::scalar) continue;
      simd::set_mode(m);
      EXPECT_NEAR(simd::sum(a.data(), n), sum_ref, 1e-12 * (1.0 + sum_ref))
          << "sum n=" << n;
      EXPECT_NEAR(simd::l1_diff(a.data(), b.data(), n), l1_ref,
                  1e-12 * (1.0 + l1_ref))
          << "l1_diff n=" << n;
      // Max is exact under any association.
      EXPECT_EQ(simd::max0(a.data(), n), max_ref) << "max0 n=" << n;
      std::vector<double> dst = a;
      EXPECT_NEAR(simd::mul_add_floor_sum(dst.data(), b.data(), 1e-9, n),
                  mafs_ref, 1e-12 * (1.0 + mafs_ref))
          << "mul_add_floor_sum n=" << n;
    }
  }
}

// The fused primitive folds one product step's renormalization into the
// next multiply, so it must reproduce div_all followed by mul_add_floor_sum
// bit for bit in every mode: the same per-element operations, and a sum
// over the same lanes in the same order.
TEST_F(SimdModes, DivMulAddFloorSumMatchesDivThenMultiplyBitForBit) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const std::size_t n : {0UL, 1UL, 2UL, 3UL, 4UL, 5UL, 6UL, 7UL, 8UL,
                              9UL, 13UL, 48UL * 48UL}) {
    const std::vector<double> base = random_buffer(n, 1000 + n);
    const std::vector<double> factor = random_buffer(n, 1100 + n);
    for (const simd::Mode m : available_modes()) {
      simd::set_mode(m);
      std::vector<double> two_pass = base, fused = base;
      simd::div_all(two_pass.data(), 0.37, n);
      const double want =
          simd::mul_add_floor_sum(two_pass.data(), factor.data(), 1e-4, n);
      const double got = simd::div_mul_add_floor_sum(
          fused.data(), 0.37, factor.data(), 1e-4, n);
      EXPECT_EQ(bits(got), bits(want))
          << "sum n=" << n << " mode=" << static_cast<int>(m);
      for (std::size_t c = 0; c < n; ++c)
        ASSERT_EQ(bits(fused[c]), bits(two_pass[c]))
            << "n=" << n << " c=" << c << " mode=" << static_cast<int>(m);
    }
  }
}

// The grid engine multiplies a node's messages in as a chain of product
// steps closed by one finish. That chain must equal the same chain of
// multiply_in calls bit for bit: over a full box (whole-buffer sums) and a
// partial box in both layouts (per-row sums), and across a mid-chain
// all-zero factor with floor 0, where the box mass vanishes and both fall
// back to uniform-in-box.
TEST_F(SimdModes, ProductStepsMatchMultiplyInChainBitForBit) {
  constexpr std::size_t side = 23;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  struct Factor {
    std::vector<double> cells;
    double floor;
  };
  for (const bool zero_mid_chain : {false, true}) {
    for (const CellBox& box :
         {CellBox::full(side), CellBox{3, 11, 4, 16}, CellBox{5, 5, 2, 9}}) {
      // Dense buffers zero outside the box (the caller invariant).
      const auto in_box = [&](std::uint64_t seed) {
        const std::vector<double> noise = random_buffer(side * side, seed);
        std::vector<double> dense(side * side, 0.0);
        for (std::int32_t y = box.y0; y <= box.y1; ++y)
          for (std::int32_t x = box.x0; x <= box.x1; ++x) {
            const std::size_t c = static_cast<std::size_t>(y) * side +
                                  static_cast<std::size_t>(x);
            dense[c] = noise[c];
          }
        return dense;
      };
      const auto pack = [&](const std::vector<double>& dense) {
        std::vector<double> slice(box.cell_count());
        beliefops::copy_in(ConstBoxView::dense(dense, side, box),
                           BoxView::packed(slice, side, box));
        return slice;
      };
      const std::vector<double> mass = in_box(1200 + box.width());
      std::vector<Factor> chain;
      for (std::uint64_t k = 0; k < 4; ++k)
        chain.push_back({in_box(1300 + k), 1e-4});
      if (zero_mid_chain)
        chain[2] = {std::vector<double>(side * side, 0.0), 0.0};

      for (const simd::Mode m : available_modes()) {
        simd::set_mode(m);
        std::vector<double> want = mass;
        for (const Factor& f : chain)
          beliefops::multiply_in(BoxView::dense(want, side, box),
                                 ConstBoxView::dense(f.cells, side, box),
                                 f.floor);

        std::vector<double> dense = mass, packed = pack(mass);
        double dense_pending = 0.0, packed_pending = 0.0;
        for (std::size_t k = 0; k < chain.size(); ++k) {
          const std::vector<double> packed_factor = pack(chain[k].cells);
          dense_pending = beliefops::product_step(
              BoxView::dense(dense, side, box),
              ConstBoxView::dense(chain[k].cells, side, box), chain[k].floor,
              dense_pending);
          packed_pending = beliefops::product_step(
              BoxView::packed(packed, side, box),
              ConstBoxView::packed(packed_factor, side, box), chain[k].floor,
              packed_pending);
          // The vanished mass resets to uniform and leaves nothing pending.
          if (zero_mid_chain && k == 2) {
            EXPECT_EQ(dense_pending, 0.0);
          }
        }
        beliefops::product_finish(BoxView::dense(dense, side, box),
                                  dense_pending);
        beliefops::product_finish(BoxView::packed(packed, side, box),
                                  packed_pending);

        const std::vector<double> want_packed = pack(want);
        for (std::size_t c = 0; c < side * side; ++c)
          ASSERT_EQ(bits(dense[c]), bits(want[c]))
              << "dense c=" << c << " width=" << box.width()
              << " mode=" << static_cast<int>(m) << " zero=" << zero_mid_chain;
        for (std::size_t k = 0; k < packed.size(); ++k)
          ASSERT_EQ(bits(packed[k]), bits(want_packed[k]))
              << "packed k=" << k << " width=" << box.width()
              << " mode=" << static_cast<int>(m) << " zero=" << zero_mid_chain;
      }
    }
  }
}

// beliefops at odd grid sides: the dense ops route through the primitives,
// so vector modes must agree with scalar within normalization tolerance on
// grids whose row length is not a multiple of any lane width.
TEST_F(SimdModes, BeliefOpsAgreeAtOddGridSides) {
  for (const std::size_t side : {17UL, 31UL, 49UL}) {
    const std::size_t cells = side * side;
    const std::vector<double> mass0 = random_buffer(cells, 500 + side);
    const std::vector<double> factor = random_buffer(cells, 600 + side);

    simd::set_mode(simd::Mode::scalar);
    std::vector<double> ref = mass0;
    beliefops::multiply(ref, factor, 1e-9);
    beliefops::normalize(ref);
    const double tv_ref = beliefops::total_variation(ref, mass0);
    SparseBelief sp_ref;
    std::vector<std::uint32_t> scratch;
    beliefops::sparsify_into(ref, 0.995, 64, sp_ref, scratch);

    for (const simd::Mode m : available_modes()) {
      if (m == simd::Mode::scalar) continue;
      simd::set_mode(m);
      std::vector<double> got = mass0;
      beliefops::multiply(got, factor, 1e-9);
      beliefops::normalize(got);
      for (std::size_t c = 0; c < cells; ++c)
        ASSERT_NEAR(got[c], ref[c], 1e-12) << "side=" << side << " cell=" << c;
      EXPECT_NEAR(beliefops::total_variation(got, mass0), tv_ref, 1e-9)
          << "side=" << side;
      SparseBelief sp;
      beliefops::sparsify_into(got, 0.995, 64, sp, scratch);
      ASSERT_EQ(sp.cells.size(), sp_ref.cells.size()) << "side=" << side;
      EXPECT_EQ(sp.cells, sp_ref.cells) << "side=" << side;
    }
  }
}

// The _in (CellBox-restricted) spellings must match the whole-buffer forms
// when the mass outside the box is zero — at odd sides, where every box row
// is an odd-length slice. Only the full box promises bit-identity (it
// delegates to the whole-buffer form); a sub-box accumulates its
// normalization sum row by row, a different association than the continuous
// whole-buffer sweep, so cells may differ in the last ulps in any mode.
TEST_F(SimdModes, BoxRestrictedOpsMatchWholeBufferOnOddSides) {
  for (const std::size_t side : {17UL, 31UL, 49UL}) {
    const std::size_t cells = side * side;
    const auto s = static_cast<std::int32_t>(side);
    const CellBox box{s / 4, 3 * s / 4, s / 3, s - 2};

    // Mass supported only inside the box (the caller invariant).
    std::vector<double> inside(cells, 0.0);
    const std::vector<double> noise = random_buffer(cells, 700 + side);
    for (std::int32_t y = box.y0; y <= box.y1; ++y)
      for (std::int32_t x = box.x0; x <= box.x1; ++x)
        inside[static_cast<std::size_t>(y) * side +
               static_cast<std::size_t>(x)] =
            noise[static_cast<std::size_t>(y) * side +
                  static_cast<std::size_t>(x)];
    const std::vector<double> factor = random_buffer(cells, 800 + side);

    for (const simd::Mode m : available_modes()) {
      simd::set_mode(m);
      std::vector<double> whole = inside, boxed = inside;
      beliefops::multiply(whole, factor, 1e-9);
      beliefops::normalize(whole);
      beliefops::multiply_in(BoxView::dense(boxed, side, box),
                             ConstBoxView::dense(factor, side, box), 1e-9);
      beliefops::normalize_in(BoxView::dense(boxed, side, box));
      for (std::int32_t y = box.y0; y <= box.y1; ++y)
        for (std::int32_t x = box.x0; x <= box.x1; ++x) {
          const std::size_t c = static_cast<std::size_t>(y) * side +
                                static_cast<std::size_t>(x);
          ASSERT_NEAR(whole[c], boxed[c], 1e-12)
              << "mode=" << static_cast<int>(m) << " side=" << side;
        }
      const double tv = beliefops::total_variation(whole, inside);
      EXPECT_NEAR(tv,
                  beliefops::total_variation_in(
                      ConstBoxView::dense(boxed, side, box),
                      ConstBoxView::dense(inside, side, box)),
                  1e-12 * (1.0 + tv))
          << "side=" << side;
    }
  }
}

// The ROI-packed layout must reproduce the dense layout bit for bit: a
// partial box hands each row to the same primitive with the row's length in
// both layouts, and a full box keeps the whole-buffer call — its 4-lane
// sums run across rows, so a row-by-row sweep would round differently.
// Box widths 1..9 leave every remainder of the 2- and 4-lane loops.
TEST_F(SimdModes, PackedViewsMatchDenseViewsBitForBit) {
  constexpr std::size_t side = 23;  // rows are not a multiple of 4 either
  const GridShape shape{Aabb::unit(), side};
  std::vector<CellBox> boxes;
  for (std::int32_t w = 1; w <= 9; ++w)
    boxes.push_back({3 + w, 3 + 2 * w - 1, 4, 4 + w % 4 + 1});
  boxes.push_back(CellBox::full(side));

  RangingSpec ranging;
  ranging.type = RangingType::gaussian;
  ranging.noise_factor = 0.1;
  ranging.range = 0.3;
  const RangeKernel kernel = RangeKernel::make_range(0.15, ranging, shape);
  const GaussianPrior prior({0.45, 0.3}, 0.12, 0.05, {0.8, 0.6});
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };

  for (const CellBox& box : boxes) {
    const std::size_t w = box.width();
    // Dense buffers zero outside the box (the caller invariant); `ties`
    // takes only eight distinct values, so the sparsify cap cuts through
    // runs of equal mass and the candidate order decides which survive.
    const std::vector<double> noise = random_buffer(side * side, 900 + w);
    const std::vector<double> other = random_buffer(side * side, 950 + w);
    std::vector<double> a(side * side, 0.0), b(side * side, 0.0),
        ties(side * side, 0.0);
    for (std::int32_t y = box.y0; y <= box.y1; ++y)
      for (std::int32_t x = box.x0; x <= box.x1; ++x) {
        const std::size_t c = static_cast<std::size_t>(y) * side +
                              static_cast<std::size_t>(x);
        a[c] = noise[c];
        b[c] = other[c];
        ties[c] = 1.0 + std::floor(noise[c] * 8.0);
      }
    const auto pack = [&](const std::vector<double>& dense) {
      std::vector<double> slice(box.cell_count());
      beliefops::copy_in(ConstBoxView::dense(dense, side, box),
                         BoxView::packed(slice, side, box));
      return slice;
    };
    // Same bits in the box, and the dense buffer still zero outside it.
    const auto expect_same = [&](const std::vector<double>& dense,
                                 const std::vector<double>& slice,
                                 const char* op) {
      for (std::size_t c = 0; c < side * side; ++c) {
        const auto x = static_cast<std::int32_t>(c % side);
        const auto y = static_cast<std::int32_t>(c / side);
        if (x < box.x0 || x > box.x1 || y < box.y0 || y > box.y1) {
          ASSERT_EQ(dense[c], 0.0) << op << " wrote outside the box";
          continue;
        }
        const std::size_t k = static_cast<std::size_t>(y - box.y0) * w +
                              static_cast<std::size_t>(x - box.x0);
        ASSERT_EQ(bits(dense[c]), bits(slice[k]))
            << op << " width=" << w << " mode="
            << static_cast<int>(simd::active_mode());
      }
    };

    for (const simd::Mode m : available_modes()) {
      simd::set_mode(m);
      const std::vector<double> pb = pack(b);
      {
        std::vector<double> d = a, p = pack(a);
        beliefops::multiply_in(BoxView::dense(d, side, box),
                               ConstBoxView::dense(b, side, box), 1e-4);
        beliefops::multiply_in(BoxView::packed(p, side, box),
                               ConstBoxView::packed(pb, side, box), 1e-4);
        expect_same(d, p, "multiply_in");
        if (box.is_full(side)) {
          std::vector<double> whole = a;
          beliefops::multiply(whole, b, 1e-4);
          expect_same(whole, p, "multiply (whole buffer)");
        }
      }
      {
        std::vector<double> d = a, p = pack(a);
        beliefops::normalize_in(BoxView::dense(d, side, box));
        beliefops::normalize_in(BoxView::packed(p, side, box));
        expect_same(d, p, "normalize_in");
        if (box.is_full(side)) {
          std::vector<double> whole = a;
          beliefops::normalize(whole);
          expect_same(whole, p, "normalize (whole buffer)");
        }
      }
      {
        std::vector<double> d = a, p = pack(a);
        beliefops::mix_in(BoxView::dense(d, side, box),
                          ConstBoxView::dense(b, side, box), 0.3);
        beliefops::mix_in(BoxView::packed(p, side, box),
                          ConstBoxView::packed(pb, side, box), 0.3);
        expect_same(d, p, "mix_in");
      }
      {
        const std::vector<double> pa = pack(a);
        const double dense_tv = beliefops::total_variation_in(
            ConstBoxView::dense(a, side, box),
            ConstBoxView::dense(b, side, box));
        EXPECT_EQ(bits(dense_tv), bits(beliefops::total_variation_in(
                                      ConstBoxView::packed(pa, side, box),
                                      ConstBoxView::packed(pb, side, box))))
            << "total_variation_in width=" << w;
        if (box.is_full(side)) {
          EXPECT_EQ(bits(dense_tv),
                    bits(beliefops::total_variation(a, b)));
        }
      }
      {
        std::vector<double> d(side * side, 0.0), p(box.cell_count());
        beliefops::set_from_prior_in(shape, BoxView::dense(d, side, box),
                                     prior);
        beliefops::set_from_prior_in(shape, BoxView::packed(p, side, box),
                                     prior);
        expect_same(d, p, "set_from_prior_in");
      }
      {
        const std::vector<double> pt = pack(ties);
        SparseBelief sd, sp;
        std::vector<std::uint32_t> scratch;
        beliefops::sparsify_in(ConstBoxView::dense(ties, side, box), 1.0, 5,
                               sd, scratch);
        beliefops::sparsify_in(ConstBoxView::packed(pt, side, box), 1.0, 5,
                               sp, scratch);
        EXPECT_EQ(sd.cells, sp.cells) << "sparsify_in width=" << w;
        EXPECT_EQ(sd.mass, sp.mass) << "sparsify_in width=" << w;
        EXPECT_EQ(bits(sd.covered_fraction), bits(sp.covered_fraction));
      }
      {
        // A summary straddling the box edge, so the replay clips.
        SparseBelief src;
        for (const std::uint32_t cell : {0U, 5U * 23U + 2U, 6U * 23U + 9U,
                                         9U * 23U + 14U, 17U * 23U + 20U}) {
          src.cells.push_back(cell);
          src.mass.push_back(0.2F);
        }
        std::vector<double> d(side * side, 0.0), p(box.cell_count(), 7.0);
        const double dense_peak =
            kernel.correlate(src, BoxView::dense(d, side, box));
        EXPECT_EQ(bits(dense_peak),
                  bits(kernel.correlate(src, BoxView::packed(p, side, box))))
            << "correlate width=" << w;
        expect_same(d, p, "correlate");
        std::vector<double> da = a, pa = pack(a);
        kernel.accumulate(src, BoxView::dense(da, side, box));
        kernel.accumulate(src, BoxView::packed(pa, side, box));
        expect_same(da, pa, "accumulate");
      }
    }
  }
}

/// Brute-force sparsify of the box cells of a dense `mass`: std::stable_sort
/// of every candidate, offered in ascending cell id, by descending mass (so
/// equal masses stay in ascending id), then the keep rule — the fraction,
/// the first zero mass, the cap — and the renormalization.
SparseBelief reference_sparsify(const std::vector<double>& mass,
                                std::size_t side, const CellBox& box,
                                double fraction, std::size_t cap) {
  std::vector<std::uint32_t> order;
  for (std::int32_t y = box.y0; y <= box.y1; ++y)
    for (std::int32_t x = box.x0; x <= box.x1; ++x)
      order.push_back(static_cast<std::uint32_t>(
          static_cast<std::size_t>(y) * side + static_cast<std::size_t>(x)));
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return mass[a] > mass[b];
                   });
  SparseBelief out;
  double covered = 0.0;
  for (std::size_t k = 0; k < std::min(cap, order.size()); ++k) {
    const std::uint32_t cell = order[k];
    if (mass[cell] <= 0.0) break;
    out.cells.push_back(cell);
    covered += mass[cell];
    if (covered >= fraction) break;
  }
  out.covered_fraction = covered;
  for (const std::uint32_t cell : out.cells)
    out.mass.push_back(static_cast<float>(mass[cell] / covered));
  return out;
}

// The sparsify keeps cells in one total order, mass descending and then
// cell id ascending, so its summary is the brute-force reference's bit for
// bit — cells, float masses and covered fraction — whatever slices its
// early-stopping selection takes: in both layouts of a box, in the
// whole-buffer form of the same belief, and in every mode. Beliefs drawn
// from 8 values give long runs of equal mass for the caps to cut through;
// caps sit at and around the selection's 32-cell first slice and past the
// candidate count.
TEST_F(SimdModes, SparsifyMatchesStableSortReference) {
  constexpr std::size_t side = 24;
  constexpr std::size_t cells = side * side;
  const std::vector<double> noise = random_buffer(cells, 1300);
  const std::pair<const char*, double (*)(double)> beliefs[] = {
      {"eight values", [](double u) { return 1.0 + std::floor(u * 8.0); }},
      {"uniform", [](double) { return 1.0; }},
      // Five of eight draws are exact zeros, the rest take three values.
      {"zeros",
       [](double u) { return std::max(0.0, std::floor(u * 8.0) - 4.0); }},
      // About 3 % positive, so the first zero comes inside the first slice.
      {"few positive",
       [](double u) { return u < 0.97 ? 0.0 : std::floor(u * 800.0); }},
  };
  const double fractions[] = {0.5, 0.995, 1.0};
  const std::size_t caps[] = {1, 5, 31, 32, 33, 64, 192, cells + 1};

  for (const CellBox& box : {CellBox::full(side), CellBox{3, 19, 2, 21}}) {
    for (const auto& [name, value] : beliefs) {
      // Zero outside the box (the caller invariant), normalized inside.
      std::vector<double> mass(cells, 0.0);
      double total = 0.0;
      for (std::int32_t y = box.y0; y <= box.y1; ++y)
        for (std::int32_t x = box.x0; x <= box.x1; ++x) {
          const std::size_t c = static_cast<std::size_t>(y) * side +
                                static_cast<std::size_t>(x);
          mass[c] = value(noise[c]);
          total += mass[c];
        }
      for (double& m : mass) m /= total;
      std::vector<double> packed(box.cell_count());
      beliefops::copy_in(ConstBoxView::dense(mass, side, box),
                         BoxView::packed(packed, side, box));

      for (const double fraction : fractions)
        for (const std::size_t cap : caps) {
          const SparseBelief ref =
              reference_sparsify(mass, side, box, fraction, cap);
          const auto expect_ref = [&](const SparseBelief& got,
                                      const char* form) {
            SCOPED_TRACE(testing::Message()
                         << form << ", " << name << ", box of "
                         << box.cell_count() << ", fraction " << fraction
                         << ", cap " << cap << ", mode "
                         << simd::active_name());
            EXPECT_EQ(got.cells, ref.cells);
            ASSERT_EQ(got.mass.size(), ref.mass.size());
            for (std::size_t k = 0; k < ref.mass.size(); ++k)
              EXPECT_EQ(std::bit_cast<std::uint32_t>(got.mass[k]),
                        std::bit_cast<std::uint32_t>(ref.mass[k]))
                  << "entry " << k;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got.covered_fraction),
                      std::bit_cast<std::uint64_t>(ref.covered_fraction));
          };
          for (const simd::Mode m : available_modes()) {
            simd::set_mode(m);
            SparseBelief got;
            std::vector<std::uint32_t> scratch;
            // Zero outside the box, so the whole buffer gives the same.
            beliefops::sparsify_into(mass, fraction, cap, got, scratch);
            expect_ref(got, "sparsify_into");
            beliefops::sparsify_in(ConstBoxView::dense(mass, side, box),
                                   fraction, cap, got, scratch);
            expect_ref(got, "sparsify_in dense");
            beliefops::sparsify_in(ConstBoxView::packed(packed, side, box),
                                   fraction, cap, got, scratch);
            expect_ref(got, "sparsify_in packed");
          }
        }
    }
  }
}

// End to end: the grid engine's localization estimates under the widest
// available vector mode agree with the scalar path to 1e-9 of a field unit
// — the acceptance bar that gates leaving vector dispatch on by default.
TEST_F(SimdModes, GridEngineEstimatesMatchScalarWithin1e9) {
  simd::set_mode(simd::Mode::auto_detect);
  if (simd::active_mode() == simd::Mode::scalar)
    GTEST_SKIP() << "no vector unit available in this build";

  ScenarioConfig cfg;
  cfg.node_count = 120;
  cfg.anchor_fraction = 0.12;
  cfg.deployment.kind = DeploymentKind::grid_jitter;
  cfg.prior_quality = PriorQuality::exact;
  cfg.seed = 33;
  const Scenario s = build_scenario(cfg);
  const GridBncl engine;

  simd::set_mode(simd::Mode::scalar);
  Rng r1(7);
  const auto scalar_run = engine.localize(s, r1);
  simd::set_mode(simd::Mode::auto_detect);
  Rng r2(7);
  const auto vector_run = engine.localize(s, r2);

  ASSERT_EQ(scalar_run.estimates.size(), vector_run.estimates.size());
  for (std::size_t i = 0; i < scalar_run.estimates.size(); ++i) {
    ASSERT_EQ(scalar_run.estimates[i].has_value(),
              vector_run.estimates[i].has_value());
    if (!scalar_run.estimates[i].has_value()) continue;
    const Vec2 a = *scalar_run.estimates[i];
    const Vec2 b = *vector_run.estimates[i];
    EXPECT_NEAR(a.x, b.x, 1e-9) << "node " << i;
    EXPECT_NEAR(a.y, b.y, 1e-9) << "node " << i;
  }
}

}  // namespace
}  // namespace bnloc
