#include "inference/grid_belief.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "support/assert.hpp"
#include "support/simd.hpp"

namespace bnloc {

CellBox CellBox::dilated(std::int32_t margin, std::size_t side) const noexcept {
  if (empty()) return *this;
  const auto s = static_cast<std::int32_t>(side);
  return {std::max(x0 - margin, std::int32_t{0}),
          std::min(x1 + margin, s - 1),
          std::max(y0 - margin, std::int32_t{0}),
          std::min(y1 + margin, s - 1)};
}

Vec2 GridShape::cell_center(std::size_t cell) const noexcept {
  const std::size_t cx = cell % side;
  const std::size_t cy = cell / side;
  return {field.lo.x + (static_cast<double>(cx) + 0.5) * cell_width(),
          field.lo.y + (static_cast<double>(cy) + 0.5) * cell_height()};
}

std::size_t GridShape::cell_at(Vec2 p) const noexcept {
  const Vec2 q = field.clamp(p);
  auto cx = static_cast<std::size_t>((q.x - field.lo.x) / cell_width());
  auto cy = static_cast<std::size_t>((q.y - field.lo.y) / cell_height());
  cx = std::min(cx, side - 1);
  cy = std::min(cy, side - 1);
  return cy * side + cx;
}

namespace beliefops {

void set_uniform(std::span<double> mass) noexcept {
  const double v = 1.0 / static_cast<double>(mass.size());
  std::fill(mass.begin(), mass.end(), v);
}

void set_from_prior(const GridShape& shape, std::span<double> mass,
                    const PositionPrior& prior) {
  BNLOC_ASSERT(mass.size() == shape.cell_count(), "mass buffer shape mismatch");
  double total = 0.0;
  for (std::size_t c = 0; c < mass.size(); ++c) {
    mass[c] = prior.density(shape.cell_center(c));
    total += mass[c];
  }
  if (total <= 0.0) {
    // Prior mass entirely outside the field (e.g. heavily biased prior):
    // fall back to uniform rather than producing an invalid belief.
    set_uniform(mass);
    return;
  }
  for (double& m : mass) m /= total;
}

void set_delta(const GridShape& shape, std::span<double> mass,
               Vec2 p) noexcept {
  std::fill(mass.begin(), mass.end(), 0.0);
  mass[shape.cell_at(p)] = 1.0;
}

void multiply(std::span<double> mass, std::span<const double> factor,
              double floor) {
  BNLOC_ASSERT(factor.size() == mass.size(), "factor grid shape mismatch");
  const double total =
      simd::mul_add_floor_sum(mass.data(), factor.data(), floor, mass.size());
  if (total <= 0.0) {
    set_uniform(mass);
    return;
  }
  simd::div_all(mass.data(), total, mass.size());
}

void mix(std::span<double> mass, std::span<const double> previous,
         double lambda) noexcept {
  simd::mix(mass.data(), previous.data(), lambda, mass.size());
}

double peak(std::span<const double> mass) noexcept {
  return simd::max0(mass.data(), mass.size());
}

void normalize(std::span<double> mass) noexcept {
  const double total = simd::sum(mass.data(), mass.size());
  if (total <= 0.0) {
    set_uniform(mass);
    return;
  }
  simd::div_all(mass.data(), total, mass.size());
}

Vec2 mean(const GridShape& shape, std::span<const double> mass) noexcept {
  BNLOC_ASSERT(mass.size() == shape.cell_count(), "mass buffer shape mismatch");
  return mean_in(shape, ConstBoxView::dense(mass, shape.side,
                                            CellBox::full(shape.side)));
}

Cov2 covariance(const GridShape& shape, std::span<const double> mass,
                Vec2 mu) noexcept {
  BNLOC_ASSERT(mass.size() == shape.cell_count(), "mass buffer shape mismatch");
  return covariance_in(
      shape, ConstBoxView::dense(mass, shape.side, CellBox::full(shape.side)),
      mu);
}

double entropy(std::span<const double> mass) noexcept {
  double h = 0.0;
  for (double m : mass)
    if (m > 0.0) h -= m * std::log(m);
  return h;
}

double total_variation(std::span<const double> a, std::span<const double> b) {
  BNLOC_ASSERT(a.size() == b.size(),
               "total variation needs same-shape beliefs");
  return 0.5 * simd::l1_diff(a.data(), b.data(), a.size());
}

void fill_in(BoxView mass, double value) noexcept {
  for (std::int32_t y = mass.box.y0; y <= mass.box.y1; ++y)
    std::fill_n(mass.row(y), mass.box.width(), value);
}

namespace {

/// Uniform over the box cells only (outside a dense buffer left untouched —
/// callers keep it zero).
void set_uniform_in(BoxView mass) noexcept {
  fill_in(mass, 1.0 / static_cast<double>(mass.box.cell_count()));
}

}  // namespace

void multiply_in(BoxView mass, ConstBoxView factor, double floor) {
  product_finish(mass, product_step(mass, factor, floor, 0.0));
}

double product_step(BoxView mass, ConstBoxView factor, double floor,
                    double pending) {
  BNLOC_ASSERT(factor.box == mass.box && factor.side == mass.side,
               "factor grid shape mismatch");
  BNLOC_ASSERT(!mass.box.empty(), "product_step needs a non-empty box");
  const auto step = [&](double* dst, const double* f, std::size_t n) {
    return pending == 0.0
               ? simd::mul_add_floor_sum(dst, f, floor, n)
               : simd::div_mul_add_floor_sum(dst, pending, f, floor, n);
  };
  double total = 0.0;
  if (mass.full()) {
    total = step(mass.rows, factor.rows, mass.side * mass.side);
  } else {
    const std::size_t w = mass.box.width();
    for (std::int32_t y = mass.box.y0; y <= mass.box.y1; ++y)
      total += step(mass.row(y), factor.row(y), w);
  }
  if (total <= 0.0) {
    set_uniform_in(mass);
    return 0.0;
  }
  return total;
}

void product_finish(BoxView mass, double pending) noexcept {
  if (pending == 0.0) return;
  // Element-wise, so row by row gives the whole-buffer bits on a full box.
  for (std::int32_t y = mass.box.y0; y <= mass.box.y1; ++y)
    simd::div_all(mass.row(y), pending, mass.box.width());
}

void normalize_in(BoxView mass) noexcept {
  if (mass.full()) {
    normalize(mass.whole());
    return;
  }
  const std::size_t w = mass.box.width();
  double total = 0.0;
  for (std::int32_t y = mass.box.y0; y <= mass.box.y1; ++y)
    total += simd::sum(mass.row(y), w);
  if (total <= 0.0) {
    set_uniform_in(mass);
    return;
  }
  for (std::int32_t y = mass.box.y0; y <= mass.box.y1; ++y)
    simd::div_all(mass.row(y), total, w);
}

void mix_in(BoxView mass, ConstBoxView previous, double lambda) noexcept {
  BNLOC_ASSERT(previous.box == mass.box && previous.side == mass.side,
               "damping needs same-box beliefs");
  if (mass.full()) {
    mix(mass.whole(), previous.whole(), lambda);
    return;
  }
  const std::size_t w = mass.box.width();
  for (std::int32_t y = mass.box.y0; y <= mass.box.y1; ++y)
    simd::mix(mass.row(y), previous.row(y), lambda, w);
}

double total_variation_in(ConstBoxView a, ConstBoxView b) {
  BNLOC_ASSERT(a.box == b.box && a.side == b.side,
               "total variation needs same-box beliefs");
  if (a.full()) return total_variation(a.whole(), b.whole());
  const std::size_t w = a.box.width();
  double l1 = 0.0;
  for (std::int32_t y = a.box.y0; y <= a.box.y1; ++y)
    l1 += simd::l1_diff(a.row(y), b.row(y), w);
  return 0.5 * l1;
}

namespace {

/// Calls fn(cell center, mass) for every box cell, row-major.
template <typename Fn>
void for_box_cells(const GridShape& shape, ConstBoxView mass, Fn&& fn) {
  const std::size_t w = mass.box.width();
  for (std::int32_t y = mass.box.y0; y <= mass.box.y1; ++y) {
    const double* const row = mass.row(y);
    const std::size_t first = static_cast<std::size_t>(y) * shape.side +
                              static_cast<std::size_t>(mass.box.x0);
    for (std::size_t t = 0; t < w; ++t)
      fn(shape.cell_center(first + t), row[t]);
  }
}

}  // namespace

Vec2 mean_in(const GridShape& shape, ConstBoxView mass) noexcept {
  BNLOC_ASSERT(mass.side == shape.side, "mass buffer shape mismatch");
  Vec2 m{};
  for_box_cells(shape, mass, [&](Vec2 center, double p) { m += center * p; });
  return m;
}

Cov2 covariance_in(const GridShape& shape, ConstBoxView mass,
                   Vec2 mu) noexcept {
  BNLOC_ASSERT(mass.side == shape.side, "mass buffer shape mismatch");
  Cov2 cov{};
  for_box_cells(shape, mass, [&](Vec2 center, double p) {
    const Vec2 d = center - mu;
    cov.xx += p * d.x * d.x;
    cov.xy += p * d.x * d.y;
    cov.yy += p * d.y * d.y;
  });
  // Within-cell variance: a cell is a uniform patch, not a point.
  const double sx = shape.cell_width();
  const double sy = shape.cell_height();
  cov.xx += sx * sx / 12.0;
  cov.yy += sy * sy / 12.0;
  return cov;
}

void copy_in(ConstBoxView from, BoxView to) noexcept {
  BNLOC_ASSERT(from.box == to.box && from.side == to.side,
               "belief copy needs same-box views");
  if (to.full()) {
    copy_belief(from.whole(), to.whole());
    return;
  }
  const std::size_t w = to.box.width();
  for (std::int32_t y = to.box.y0; y <= to.box.y1; ++y)
    std::copy_n(from.row(y), w, to.row(y));
}

void mask_in(std::span<double> mass, std::size_t side, const CellBox& box) {
  if (box.is_full(side)) return;
  const auto s = static_cast<std::int32_t>(side);
  for (std::int32_t y = 0; y < s; ++y) {
    double* const row = mass.data() + static_cast<std::size_t>(y) * side;
    if (y < box.y0 || y > box.y1) {
      std::fill(row, row + side, 0.0);
      continue;
    }
    std::fill(row, row + box.x0, 0.0);
    std::fill(row + box.x1 + 1, row + side, 0.0);
  }
  normalize_in(BoxView::dense(mass, side, box));
}

void set_from_prior_in(const GridShape& shape, BoxView mass,
                       const PositionPrior& prior) {
  BNLOC_ASSERT(mass.side == shape.side, "mass buffer shape mismatch");
  if (mass.full()) {
    set_from_prior(shape, mass.whole(), prior);
    return;
  }
  BNLOC_ASSERT(!mass.box.empty(), "set_from_prior_in needs a non-empty box");
  const std::size_t w = mass.box.width();
  double total = 0.0;
  for (std::int32_t y = mass.box.y0; y <= mass.box.y1; ++y) {
    double* const row = mass.row(y);
    const std::size_t first = static_cast<std::size_t>(y) * shape.side +
                              static_cast<std::size_t>(mass.box.x0);
    for (std::size_t t = 0; t < w; ++t) {
      row[t] = prior.density(shape.cell_center(first + t));
      total += row[t];
    }
  }
  if (total <= 0.0) {
    set_uniform_in(mass);
    return;
  }
  for (std::int32_t y = mass.box.y0; y <= mass.box.y1; ++y)
    simd::div_all(mass.row(y), total, w);
}

CellBox support_box(std::span<const double> mass, std::size_t side,
                    double peak_fraction) noexcept {
  const double p = peak(mass);
  if (p <= 0.0) return CellBox::full(side);
  const double thr = p * peak_fraction;
  const auto s = static_cast<std::int32_t>(side);
  CellBox box{s, -1, s, -1};
  for (std::int32_t y = 0; y < s; ++y) {
    const double* const row = mass.data() + static_cast<std::size_t>(y) * side;
    for (std::int32_t x = 0; x < s; ++x) {
      if (row[x] < thr) continue;
      box.x0 = std::min(box.x0, x);
      box.x1 = std::max(box.x1, x);
      box.y0 = std::min(box.y0, y);
      box.y1 = std::max(box.y1, y);
    }
  }
  if (box.empty()) return CellBox::full(side);
  return box;
}

namespace {

/// Shared tail of sparsify: walk the candidate offsets into `mass` (in
/// `order_scratch`) in one total order, mass descending and then offset
/// ascending, and keep cells until the fraction, the first zero mass or the
/// cap. `out.cells` receives the kept offsets.
///
/// The order is total, so the kept cells and their sequence depend on the
/// belief alone, not on the selection algorithm or the standard library.
/// Offsets order like grid cell ids in both layouts. The walk stops at the
/// mass target rather than ordering the whole cap: nth_element brings the
/// next slice of a geometric k (32, 64, ... up to the cap) to the front,
/// and only that slice is sorted before it is accumulated. A summary keeps
/// tens of cells out of hundreds of candidates, so one or two slices
/// usually settle it.
void select_top(const double* mass, double mass_fraction,
                std::size_t max_cells, SparseBelief& out,
                std::vector<std::uint32_t>& order_scratch) {
  const auto before = [mass](std::uint32_t a, std::uint32_t b) {
    return mass[a] > mass[b] || (mass[a] == mass[b] && a < b);
  };
  const auto at = [&](std::size_t k) {
    return order_scratch.begin() + static_cast<std::ptrdiff_t>(k);
  };
  const std::size_t keep_at_most = std::min(max_cells, order_scratch.size());
  out.cells.clear();
  out.mass.clear();
  double covered = 0.0;
  // Keeps one cell; false once the walk stops.
  const auto keep = [&](std::uint32_t cell) {
    if (mass[cell] <= 0.0) return false;
    out.cells.push_back(cell);
    covered += mass[cell];
    return covered < mass_fraction;
  };
  bool more = true;
  for (std::size_t lo = 0, hi = std::min<std::size_t>(32, keep_at_most);
       more && lo < keep_at_most;
       lo = hi, hi = std::min(2 * hi, keep_at_most)) {
    std::nth_element(at(lo), at(hi), order_scratch.end(), before);
    std::sort(at(lo), at(hi), before);
    for (std::size_t k = lo; more && k < hi; ++k) more = keep(order_scratch[k]);
  }
  out.covered_fraction = covered;
  out.mass.resize(out.cells.size());
  for (std::size_t k = 0; k < out.cells.size(); ++k)
    out.mass[k] = static_cast<float>(mass[out.cells[k]] / covered);
}

}  // namespace

void sparsify_into(std::span<const double> mass, double mass_fraction,
                   std::size_t max_cells, SparseBelief& out,
                   std::vector<std::uint32_t>& order_scratch) {
  BNLOC_ASSERT(mass_fraction > 0.0 && mass_fraction <= 1.0,
               "mass fraction out of range");
  // Candidates are the cell ids, so ties keep the lowest ids first.
  order_scratch.resize(mass.size());
  std::iota(order_scratch.begin(), order_scratch.end(), 0U);
  select_top(mass.data(), mass_fraction, max_cells, out, order_scratch);
}

void sparsify_in(ConstBoxView mass, double mass_fraction,
                 std::size_t max_cells, SparseBelief& out,
                 std::vector<std::uint32_t>& order_scratch) {
  if (mass.full()) {
    sparsify_into(mass.whole(), mass_fraction, max_cells, out,
                  order_scratch);
    return;
  }
  BNLOC_ASSERT(mass_fraction > 0.0 && mass_fraction <= 1.0,
               "mass fraction out of range");
  BNLOC_ASSERT(!mass.box.empty(), "sparsify_in needs a non-empty box");
  // Candidates are offsets from the first box row; they order like the
  // grid cell ids they map to, so both layouts break ties alike.
  order_scratch.clear();
  order_scratch.reserve(mass.box.cell_count());
  const auto w = static_cast<std::uint32_t>(mass.box.width());
  const auto stride = static_cast<std::uint32_t>(mass.stride);
  for (std::uint32_t r = 0; r < mass.box.height(); ++r)
    for (std::uint32_t t = 0; t < w; ++t)
      order_scratch.push_back(r * stride + t);
  select_top(mass.rows, mass_fraction, max_cells, out, order_scratch);
  for (std::uint32_t& cell : out.cells)
    cell = static_cast<std::uint32_t>(mass.cell_at_offset(cell));
}

}  // namespace beliefops

void copy_belief(std::span<const double> from, std::span<double> to) noexcept {
  BNLOC_ASSERT(from.size() == to.size(), "belief copy shape mismatch");
  std::copy(from.begin(), from.end(), to.begin());
}

BeliefStore::BeliefStore(const GridShape& shape, std::vector<CellBox> boxes)
    : shape_(shape), boxes_(std::move(boxes)) {
  offset_.reserve(boxes_.size() + 1);
  offset_.push_back(0);
  for (const CellBox& box : boxes_)
    offset_.push_back(offset_.back() + box.cell_count());
  data_.assign(offset_.back(), 0.0);
}

std::span<const double> BeliefStore::dense(
    std::size_t i, std::vector<double>& scratch) const {
  const ConstBoxView slot = view(i);
  if (slot.full()) return slot.whole();
  scratch.assign(shape_.cell_count(), 0.0);
  beliefops::copy_in(slot, BoxView::dense(scratch, shape_.side, slot.box));
  return scratch;
}

GridBelief::GridBelief(const Aabb& field, std::size_t cells_per_side)
    : shape_{field, cells_per_side},
      mass_(cells_per_side * cells_per_side, 0.0) {
  BNLOC_ASSERT(cells_per_side >= 2, "grid needs at least 2x2 cells");
  set_uniform();
}

SparseBelief GridBelief::sparsify(double mass_fraction,
                                  std::size_t max_cells) const {
  SparseBelief out;
  std::vector<std::uint32_t> order;
  beliefops::sparsify_into(mass_, mass_fraction, max_cells, out, order);
  return out;
}

}  // namespace bnloc
