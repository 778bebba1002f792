#include "inference/range_kernel.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"
#include "support/simd.hpp"

namespace bnloc {

void RangeKernel::push_stamp(std::int32_t dx, std::int32_t dy,
                             double weight) {
  if (!runs_.empty()) {
    Run& last = runs_.back();
    if (last.dy == dy && last.dx0 + static_cast<std::int32_t>(last.len) == dx) {
      ++last.len;
      weights_.push_back(weight);
      return;
    }
  }
  runs_.push_back({dy, dx, 1,
                   static_cast<std::uint32_t>(weights_.size())});
  weights_.push_back(weight);
}

void RangeKernel::finalize(std::size_t side) {
  side_ = static_cast<std::int32_t>(side);
  flat_off_.clear();
  flat_off_.reserve(weights_.size());
  min_dx_ = min_dy_ = 0;
  max_dx_ = max_dy_ = -1;  // empty kernel: interior test never passes
  for (const Run& run : runs_) {
    const auto last = run.dx0 + static_cast<std::int32_t>(run.len) - 1;
    if (flat_off_.empty() || run.dx0 < min_dx_) min_dx_ = run.dx0;
    if (flat_off_.empty() || last > max_dx_) max_dx_ = last;
    if (flat_off_.empty() || run.dy < min_dy_) min_dy_ = run.dy;
    if (flat_off_.empty() || run.dy > max_dy_) max_dy_ = run.dy;
    for (std::uint32_t t = 0; t < run.len; ++t)
      flat_off_.push_back(run.dy * side_ + run.dx0 +
                          static_cast<std::int32_t>(t));
  }
}

RangeKernel RangeKernel::make_range(double measured,
                                    const RangingSpec& ranging,
                                    const GridShape& shape,
                                    double trunc_sigmas) {
  RangeKernel k;
  const double sx = shape.cell_width();
  const double sy = shape.cell_height();
  const double sigma = ranging.sigma_at(measured);
  const double outer = measured + trunc_sigmas * sigma;
  const auto rx = static_cast<std::int32_t>(std::ceil(outer / sx));
  const auto ry = static_cast<std::int32_t>(std::ceil(outer / sy));
  // Keep only stamps whose center-to-center distance is plausibly the true
  // range; tiny tail weights are dropped to keep the annulus thin.
  for (std::int32_t dy = -ry; dy <= ry; ++dy) {
    for (std::int32_t dx = -rx; dx <= rx; ++dx) {
      const double r = std::hypot(static_cast<double>(dx) * sx,
                                  static_cast<double>(dy) * sy);
      // Width of the acceptance band uses the hypothesis-side sigma, which
      // for multiplicative noise grows with r. Under an ε-contamination
      // likelihood the NLOS tail puts mass on every hypothesis *below* the
      // measurement (the direct path may be shorter than the bounce path),
      // so only the outer truncation applies there.
      const double band = trunc_sigmas * std::max(sigma, ranging.sigma_at(r));
      const bool inside_tail = ranging.outlier_epsilon > 0.0 && r < measured;
      if (!inside_tail &&
          std::abs(r - measured) > band + 0.71 * std::max(sx, sy))
        continue;
      const double w = ranging.likelihood(measured, r);
      if (w <= 0.0) continue;
      k.push_stamp(dx, dy, w);
    }
  }
  // Normalize stamp weights to peak 1 so message magnitudes are comparable
  // across links regardless of noise level.
  double peak = 0.0;
  for (const double w : k.weights_) peak = std::max(peak, w);
  if (peak > 0.0)
    for (double& w : k.weights_) w /= peak;
  k.finalize(shape.side);
  return k;
}

RangeKernel RangeKernel::make_connectivity(const RadioSpec& radio,
                                           const GridShape& shape) {
  RangeKernel k;
  const double sx = shape.cell_width();
  const double sy = shape.cell_height();
  const auto rx = static_cast<std::int32_t>(std::ceil(radio.range / sx));
  const auto ry = static_cast<std::int32_t>(std::ceil(radio.range / sy));
  for (std::int32_t dy = -ry; dy <= ry; ++dy) {
    for (std::int32_t dx = -rx; dx <= rx; ++dx) {
      const double r = std::hypot(static_cast<double>(dx) * sx,
                                  static_cast<double>(dy) * sy);
      const double p = radio.link_probability(r);
      if (p <= 0.0) continue;
      k.push_stamp(dx, dy, p);
    }
  }
  k.finalize(shape.side);
  return k;
}

void RangeKernel::accumulate(const SparseBelief& src, std::span<double> out,
                             std::size_t side) const {
  BNLOC_ASSERT(out.size() == side * side, "output grid shape mismatch");
  accumulate(src, BoxView::dense(out, side, CellBox::full(side)));
}

void RangeKernel::accumulate(const SparseBelief& src, BoxView out) const {
  const std::size_t side = out.side;
  const auto s = static_cast<std::int32_t>(side);
  const double* const weights = weights_.data();
  if (!out.full()) {
    // ROI replay: every run is clipped against the box instead of the grid
    // border. The surviving slices are the same dense axpys, just shorter.
    const CellBox& clip = out.box;
    for (std::size_t e = 0; e < src.cells.size(); ++e) {
      const auto cell = src.cells[e];
      const double m = src.mass[e];
      const auto cx = static_cast<std::int32_t>(cell % side);
      const auto cy = static_cast<std::int32_t>(cell / side);
      for (const Run& run : runs_) {
        const std::int32_t y = cy + run.dy;
        if (y < clip.y0 || y > clip.y1) continue;
        const std::int32_t x0 = cx + run.dx0;
        const std::int32_t lo = std::max(x0, clip.x0);
        const std::int32_t hi = std::min(
            x0 + static_cast<std::int32_t>(run.len), clip.x1 + 1);
        if (lo >= hi) continue;
        simd::axpy(out.row(y) + (lo - clip.x0), weights + run.w0 + (lo - x0),
                   m, static_cast<std::size_t>(hi - lo));
      }
    }
    return;
  }
  double* const grid = out.rows;
  const std::int32_t* const flat = flat_off_.data();
  const std::size_t stamps = weights_.size();
  const bool flat_usable = s == side_ && !flat_off_.empty();
  // Vector interior replay pays an indirect call per run, so it only wins
  // when runs are long enough to amortize it (fine grids, wide kernels).
  // Each output cell receives exactly one addition per replay, so the
  // per-run order is bit-equivalent to the flat stamp order; the scalar
  // mode still takes the flat loop to keep the historical instruction
  // stream (and its codegen) untouched.
  const bool vector_runs = !runs_.empty() &&
                           weights_.size() >= runs_.size() * 8 &&
                           simd::active_mode() != simd::Mode::scalar;
  for (std::size_t e = 0; e < src.cells.size(); ++e) {
    const auto cell = src.cells[e];
    const double m = src.mass[e];
    const auto cx = static_cast<std::int32_t>(cell % side);
    const auto cy = static_cast<std::int32_t>(cell / side);
    // Interior fast path: when the whole footprint fits inside the grid no
    // stamp needs clipping, so the replay collapses to one offset loop in
    // stamp storage order — the bit-same accumulation without the per-run
    // border bookkeeping (which dominates: annulus runs average only a few
    // cells each).
    if (flat_usable && cx + min_dx_ >= 0 && cx + max_dx_ < s &&
        cy + min_dy_ >= 0 && cy + max_dy_ < s) {
      double* const o = grid + cell;
      if (vector_runs) {
        for (const Run& run : runs_)
          simd::axpy(o + run.dy * s + run.dx0, weights + run.w0, m, run.len);
        continue;
      }
      for (std::size_t k = 0; k < stamps; ++k) o[flat[k]] += m * weights[k];
      continue;
    }
    for (const Run& run : runs_) {
      const std::int32_t y = cy + run.dy;
      if (static_cast<std::uint32_t>(y) >= static_cast<std::uint32_t>(s))
        continue;
      // Clip the run against the grid border once; the surviving slice is a
      // dense axpy the compiler vectorizes.
      const std::int32_t x0 = cx + run.dx0;
      const std::int32_t lo = std::max(x0, std::int32_t{0});
      const std::int32_t hi =
          std::min(x0 + static_cast<std::int32_t>(run.len), s);
      if (lo >= hi) continue;
      const double* w = weights + run.w0 + (lo - x0);
      double* o = grid + static_cast<std::size_t>(y) * side + lo;
      const std::int32_t len = hi - lo;
      for (std::int32_t t = 0; t < len; ++t) o[t] += m * w[t];
    }
  }
}

double RangeKernel::correlate(const SparseBelief& src, std::span<double> out,
                              std::size_t side) const {
  BNLOC_ASSERT(out.size() == side * side, "output grid shape mismatch");
  return correlate(src, BoxView::dense(out, side, CellBox::full(side)));
}

double RangeKernel::correlate(const SparseBelief& src, BoxView out) const {
  beliefops::fill_in(out, 0.0);
  return correlate_zeroed(src, out, touched_box(src, out.box, out.side));
}

double RangeKernel::correlate_zeroed(const SparseBelief& src, BoxView out,
                                     const CellBox& touched) const {
  accumulate(src, out);
  // Normalization only needs to look at the touched box — everything
  // outside is an exact zero (or, under a partial box, never stored).
  if (touched.empty()) return 0.0;
  const BoxView cells = out.sub(touched);
  const std::size_t row_len = touched.width();
  double peak = 0.0;
  for (std::int32_t y = touched.y0; y <= touched.y1; ++y)
    peak = std::max(peak, beliefops::peak({cells.row(y), row_len}));
  if (peak <= 0.0) return 0.0;
  for (std::int32_t y = touched.y0; y <= touched.y1; ++y)
    simd::div_all(cells.row(y), peak, row_len);
  return peak;
}

CellBox RangeKernel::touched_box(const SparseBelief& src, const CellBox& clip,
                                 std::size_t side) const noexcept {
  if (src.cells.empty() || weights_.empty()) return {};
  const auto s = static_cast<std::int32_t>(side);
  std::int32_t cx_lo = s, cx_hi = -1, cy_lo = s, cy_hi = -1;
  for (const std::uint32_t cell : src.cells) {
    const auto cx = static_cast<std::int32_t>(cell % side);
    const auto cy = static_cast<std::int32_t>(cell / side);
    cx_lo = std::min(cx_lo, cx);
    cx_hi = std::max(cx_hi, cx);
    cy_lo = std::min(cy_lo, cy);
    cy_hi = std::max(cy_hi, cy);
  }
  const CellBox touched{std::max(cx_lo + min_dx_, clip.x0),
                        std::min(cx_hi + max_dx_, clip.x1),
                        std::max(cy_lo + min_dy_, clip.y0),
                        std::min(cy_hi + max_dy_, clip.y1)};
  // One empty box, so row loops over it never run.
  return touched.empty() ? CellBox{} : touched;
}

}  // namespace bnloc
