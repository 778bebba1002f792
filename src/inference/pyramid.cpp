#include "inference/pyramid.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "support/assert.hpp"

namespace bnloc {

namespace {

/// One axis of the separable resample: for a fine index i, the coarse
/// indices it overlaps (at most two when fine >= coarse) and the fraction
/// of each coarse cell's extent that falls inside fine cell i. Boundaries
/// are compared in normalized [0, 1) coordinates, so the physical field
/// size cancels and x and y share one table shape.
struct AxisOverlap {
  std::int32_t j0 = 0;   ///< first overlapped coarse index
  std::int32_t n = 0;    ///< 1 or 2
  double w[2] = {0, 0};  ///< fraction of coarse cell j0 (+1) inside i
};

std::vector<AxisOverlap> axis_overlaps(std::size_t coarse_n,
                                       std::size_t fine_n) {
  BNLOC_ASSERT(fine_n >= coarse_n && coarse_n > 0,
               "upsample requires fine side >= coarse side");
  std::vector<AxisOverlap> map(fine_n);
  const double cinv = 1.0 / static_cast<double>(coarse_n);
  const double finv = 1.0 / static_cast<double>(fine_n);
  for (std::size_t i = 0; i < fine_n; ++i) {
    // Coarse cells whose half-open extent [j/C, (j+1)/C) intersects
    // [i/F, (i+1)/F): integer arithmetic keeps the boundary cells exact.
    const auto j_first = static_cast<std::int32_t>((i * coarse_n) / fine_n);
    const auto j_last = static_cast<std::int32_t>(
        ((i + 1) * coarse_n - 1) / fine_n);
    AxisOverlap& o = map[i];
    o.j0 = j_first;
    for (std::int32_t j = j_first; j <= j_last && o.n < 2; ++j) {
      const double lo = std::max(static_cast<double>(i) * finv,
                                 static_cast<double>(j) * cinv);
      const double hi = std::min(static_cast<double>(i + 1) * finv,
                                 static_cast<double>(j + 1) * cinv);
      const double frac = (hi - lo) * static_cast<double>(coarse_n);
      if (frac <= 0.0) {
        if (o.n == 0) ++o.j0;  // degenerate zero-width boundary overlap
        continue;
      }
      o.w[o.n++] = frac;
    }
    BNLOC_ASSERT(o.n >= 1, "fine cell overlaps no coarse cell");
  }
  return map;
}

}  // namespace

PyramidPlan PyramidPlan::make(std::size_t finest_side, std::size_t levels) {
  BNLOC_ASSERT(finest_side > 0 && levels > 0,
               "pyramid needs a positive side and level count");
  PyramidPlan plan;
  plan.sides.reserve(levels);
  for (std::size_t l = 1; l <= levels; ++l) {
    // Nearest-integer rung of the even ladder, floored so the coarsest
    // level keeps enough cells for an annulus, capped at the finest side.
    std::size_t side = (finest_side * l + levels / 2) / levels;
    side = std::max<std::size_t>(side, std::min<std::size_t>(8, finest_side));
    side = std::min(side, finest_side);
    if (plan.sides.empty() || side > plan.sides.back())
      plan.sides.push_back(side);
  }
  if (plan.sides.empty() || plan.sides.back() != finest_side)
    plan.sides.push_back(finest_side);
  return plan;
}

void upsample_belief(const GridShape& coarse,
                     std::span<const double> coarse_mass,
                     const GridShape& fine, std::span<double> fine_mass) {
  BNLOC_ASSERT(coarse_mass.size() == coarse.cell_count() &&
                   fine_mass.size() == fine.cell_count(),
               "upsample buffer shape mismatch");
  const std::size_t cs = coarse.side;
  const std::size_t fs = fine.side;
  if (cs == fs) {
    std::copy(coarse_mass.begin(), coarse_mass.end(), fine_mass.begin());
    return;
  }
  // x and y axes share the table: square grids, normalized coordinates.
  const std::vector<AxisOverlap> axis = axis_overlaps(cs, fs);
  const double* const src = coarse_mass.data();
  double* const dst = fine_mass.data();
  for (std::size_t iy = 0; iy < fs; ++iy) {
    const AxisOverlap& oy = axis[iy];
    double* const row = dst + iy * fs;
    for (std::size_t ix = 0; ix < fs; ++ix) {
      const AxisOverlap& ox = axis[ix];
      double v = 0.0;
      for (std::int32_t a = 0; a < oy.n; ++a) {
        const double* const srow =
            src + static_cast<std::size_t>(oy.j0 + a) * cs;
        double acc = 0.0;
        for (std::int32_t b = 0; b < ox.n; ++b)
          acc += ox.w[b] * srow[ox.j0 + b];
        v += oy.w[a] * acc;
      }
      row[ix] = v;
    }
  }
}

SparseBelief upsample_summary(const GridShape& coarse, const GridShape& fine,
                              const SparseBelief& src) {
  const std::size_t cs = coarse.side;
  const std::size_t fs = fine.side;
  if (cs == fs || src.empty()) return src;
  BNLOC_ASSERT(fs > cs, "summary upsample requires fine side > coarse side");
  // Forward map: coarse index j spreads over fine indices
  // [j*F/C, ((j+1)*F - 1)/C] with area fractions; collisions across source
  // cells (one fine cell straddling two coarse cells per axis) are merged
  // by a sort-and-sum pass — summaries are tens of cells, so this stays
  // trivially cheap.
  struct Part {
    std::uint32_t cell;
    double mass;
  };
  std::vector<Part> parts;
  const double cinv = 1.0 / static_cast<double>(cs);
  const double finv = 1.0 / static_cast<double>(fs);
  const auto axis_parts = [&](std::size_t j,
                              std::vector<std::pair<std::size_t, double>>& out) {
    out.clear();
    const std::size_t i_first = (j * fs) / cs;
    const std::size_t i_last = ((j + 1) * fs - 1) / cs;
    for (std::size_t i = i_first; i <= i_last && i < fs; ++i) {
      const double lo = std::max(static_cast<double>(i) * finv,
                                 static_cast<double>(j) * cinv);
      const double hi = std::min(static_cast<double>(i + 1) * finv,
                                 static_cast<double>(j + 1) * cinv);
      const double frac = (hi - lo) * static_cast<double>(cs);
      if (frac > 0.0) out.emplace_back(i, frac);
    }
  };
  std::vector<std::pair<std::size_t, double>> xs, ys;
  for (std::size_t e = 0; e < src.cells.size(); ++e) {
    const std::size_t jx = src.cells[e] % cs;
    const std::size_t jy = src.cells[e] / cs;
    const double m = static_cast<double>(src.mass[e]);
    axis_parts(jx, xs);
    axis_parts(jy, ys);
    for (const auto& [iy, wy] : ys)
      for (const auto& [ix, wx] : xs)
        parts.push_back({static_cast<std::uint32_t>(iy * fs + ix),
                         m * wy * wx});
  }
  std::sort(parts.begin(), parts.end(),
            [](const Part& a, const Part& b) { return a.cell < b.cell; });
  SparseBelief out;
  out.covered_fraction = src.covered_fraction;
  double total = 0.0;
  for (std::size_t k = 0; k < parts.size();) {
    double m = 0.0;
    const std::uint32_t cell = parts[k].cell;
    for (; k < parts.size() && parts[k].cell == cell; ++k) m += parts[k].mass;
    out.cells.push_back(cell);
    out.mass.push_back(static_cast<float>(m));
    total += m;
  }
  if (total > 0.0)
    for (float& m : out.mass) m = static_cast<float>(m / total);
  // The sparsify order: mass descending, then cell id ascending.
  std::vector<std::uint32_t> order(out.cells.size());
  for (std::uint32_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (out.mass[a] != out.mass[b]) return out.mass[a] > out.mass[b];
              return out.cells[a] < out.cells[b];
            });
  SparseBelief sorted;
  sorted.covered_fraction = out.covered_fraction;
  sorted.cells.reserve(order.size());
  sorted.mass.reserve(order.size());
  for (const std::uint32_t k : order) {
    sorted.cells.push_back(out.cells[k]);
    sorted.mass.push_back(out.mass[k]);
  }
  return sorted;
}

}  // namespace bnloc
