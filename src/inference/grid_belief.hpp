// Dense 2-D grid probability mass function over the deployment field.
//
// Layered in pieces so the grid engine can run on flat SoA storage while
// the convenient single-belief class keeps working:
//
//  * GridShape — the geometry of a discretization (field rectangle + cells
//    per side), separated from any storage;
//  * CellBox / BoxView — a box of cells and the row addressing of a belief
//    restricted to it, over either storage layout (dense side² buffer or
//    ROI-packed slice);
//  * beliefops — the numeric kernels, free functions over contiguous
//    `std::span<double>` mass buffers (multiply, damp, moments, sparsify)
//    and their BoxView-restricted `_in` spellings;
//  * BeliefStore — one flat arena holding many beliefs on one grid (slot i
//    is a contiguous row-major slice over its own CellBox; no per-belief
//    heap allocation);
//  * GridBelief — the single-belief convenience wrapper (shape + its own
//    vector), implemented entirely on beliefops so both storage layouts
//    share one set of bit-identical numerics.
//
// All operations keep the mass normalized (sum == 1) unless stated
// otherwise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/cov2.hpp"
#include "geom/vec2.hpp"
#include "prior/prior.hpp"

namespace bnloc {

/// Sparse summary of a belief: the top cells covering most of the mass.
/// This is the payload of the distributed protocol; its bytes on the radio
/// are the format in inference/summary_codec.hpp.
struct SparseBelief {
  std::vector<std::uint32_t> cells;
  std::vector<float> mass;  ///< renormalized to sum 1 over the kept cells.
  /// Fraction of the original mass the kept cells covered (not serialized);
  /// lets callers tell "belief fits in the payload" from "belief truncated".
  double covered_fraction = 0.0;

  [[nodiscard]] bool empty() const noexcept { return cells.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return cells.size(); }
};

/// Geometry of a grid discretization: which field rectangle, how many cells
/// per side. Cheap value type; every beliefops call that needs coordinates
/// takes one.
struct GridShape {
  Aabb field;
  std::size_t side = 0;

  [[nodiscard]] std::size_t cell_count() const noexcept {
    return side * side;
  }
  [[nodiscard]] double cell_width() const noexcept {
    return field.width() / static_cast<double>(side);
  }
  [[nodiscard]] double cell_height() const noexcept {
    return field.height() / static_cast<double>(side);
  }
  [[nodiscard]] Vec2 cell_center(std::size_t cell) const noexcept;
  [[nodiscard]] std::size_t cell_at(Vec2 p) const noexcept;
};

/// Axis-aligned box of cell indices, inclusive on both ends: columns
/// [x0, x1], rows [y0, y1]. The default-constructed box is empty. The grid
/// engine's coarse-to-fine pyramid uses boxes as per-node regions of
/// interest: after a level transition the belief's support is known, so the
/// dense per-cell loops only visit rows inside the box (cells outside are
/// exact zeros by construction).
struct CellBox {
  std::int32_t x0 = 0, x1 = -1;
  std::int32_t y0 = 0, y1 = -1;

  [[nodiscard]] bool empty() const noexcept { return x1 < x0 || y1 < y0; }
  [[nodiscard]] std::size_t width() const noexcept {
    return empty() ? 0 : static_cast<std::size_t>(x1 - x0 + 1);
  }
  [[nodiscard]] std::size_t height() const noexcept {
    return empty() ? 0 : static_cast<std::size_t>(y1 - y0 + 1);
  }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return width() * height();
  }
  [[nodiscard]] bool is_full(std::size_t side) const noexcept {
    return x0 == 0 && y0 == 0 &&
           x1 == static_cast<std::int32_t>(side) - 1 &&
           y1 == static_cast<std::int32_t>(side) - 1;
  }
  /// The whole grid.
  [[nodiscard]] static CellBox full(std::size_t side) noexcept {
    const auto s = static_cast<std::int32_t>(side);
    return {0, s - 1, 0, s - 1};
  }
  /// The single cell `cell` of a `side`-wide grid.
  [[nodiscard]] static CellBox at(std::size_t cell, std::size_t side) noexcept {
    const auto x = static_cast<std::int32_t>(cell % side);
    const auto y = static_cast<std::int32_t>(cell / side);
    return {x, x, y, y};
  }
  /// Grown by `margin` cells on every edge, clipped to the grid.
  [[nodiscard]] CellBox dilated(std::int32_t margin,
                                std::size_t side) const noexcept;

  friend bool operator==(const CellBox&, const CellBox&) = default;
};

/// Row addressing of a belief restricted to a CellBox on a `side`-wide
/// grid: one view over both storage layouts. Grid row y of the box
/// (box.y0 <= y <= box.y1) starts at `rows + (y - box.y0) * stride` and
/// holds the cells of columns box.x0..box.x1.
///  * Dense layout (a side² buffer): `rows` points at cell (x0, y0) and
///    stride = side.
///  * ROI-packed layout (a BeliefStore slot): `rows` points at the slice
///    and stride = box.width().
/// Over a full box the two layouts are the same side² contiguous cells, and
/// every `_in` op hands that buffer to its whole-buffer form.
template <typename T>
struct BasicBoxView {
  T* rows = nullptr;
  std::size_t stride = 0;
  CellBox box;
  std::size_t side = 0;

  BasicBoxView() = default;
  BasicBoxView(T* first_row, std::size_t row_stride, const CellBox& cells,
               std::size_t grid_side) noexcept
      : rows(first_row), stride(row_stride), box(cells), side(grid_side) {}
  /// A mutable view reads as a const one.
  template <typename U>
    requires(std::is_same_v<const U, T> && !std::is_same_v<U, T>)
  BasicBoxView(const BasicBoxView<U>& v) noexcept
      : rows(v.rows), stride(v.stride), box(v.box), side(v.side) {}

  /// `box` inside a dense side² buffer.
  [[nodiscard]] static BasicBoxView dense(std::span<T> mass, std::size_t side,
                                          const CellBox& box) noexcept {
    return {mass.data() + static_cast<std::size_t>(box.y0) * side +
                static_cast<std::size_t>(box.x0),
            side, box, side};
  }
  /// `box` packed row-major into `slice` (box.cell_count() cells).
  [[nodiscard]] static BasicBoxView packed(std::span<T> slice,
                                           std::size_t side,
                                           const CellBox& box) noexcept {
    return {slice.data(), box.width(), box, side};
  }

  [[nodiscard]] T* row(std::int32_t y) const noexcept {
    return rows + static_cast<std::size_t>(y - box.y0) * stride;
  }
  /// The cells of `cells`, a box inside this view's box, in this layout.
  [[nodiscard]] BasicBoxView sub(const CellBox& cells) const noexcept {
    if (cells.empty()) return {nullptr, stride, cells, side};
    return {row(cells.y0) + (cells.x0 - box.x0), stride, cells, side};
  }
  [[nodiscard]] bool full() const noexcept { return box.is_full(side); }
  /// The side² buffer behind a full box (meaningless otherwise).
  [[nodiscard]] std::span<T> whole() const noexcept {
    return {rows, side * side};
  }
  /// Grid cell id of the cell `offset` elements past `rows`.
  [[nodiscard]] std::size_t cell_at_offset(std::size_t offset) const noexcept {
    return (static_cast<std::size_t>(box.y0) + offset / stride) * side +
           static_cast<std::size_t>(box.x0) + offset % stride;
  }
};
using BoxView = BasicBoxView<double>;
using ConstBoxView = BasicBoxView<const double>;

/// Numeric kernels over contiguous mass buffers. Every function asserts the
/// buffer sizes it needs; none allocates (sparsify_into reuses caller
/// scratch).
///
/// The dense loops route through the runtime-dispatched SIMD primitives in
/// support/simd.hpp; with `BNLOC_SIMD=off` they reproduce the historical
/// scalar loops bit for bit. The `_in` variants restrict work to a BoxView
/// under the caller-guaranteed invariant that the mass outside the box is
/// exactly zero. A full box hands the whole buffer to the whole-buffer form
/// (its SIMD lane sums run across rows); a partial box hands each row to
/// the same primitive with the row's length, so the dense and the packed
/// layout of one box give the same bits.
namespace beliefops {

/// Reset to the uniform distribution.
void set_uniform(std::span<double> mass) noexcept;
/// Rasterize a prior (density at cell centers, then normalize).
void set_from_prior(const GridShape& shape, std::span<double> mass,
                    const PositionPrior& prior);
/// All mass in the cell containing p (anchor delta).
void set_delta(const GridShape& shape, std::span<double> mass,
               Vec2 p) noexcept;

/// Pointwise multiply by a non-negative factor grid (same shape), with an
/// additive floor that prevents conflicting evidence from zeroing the
/// belief; renormalizes. `factor` need not be normalized.
void multiply(std::span<double> mass, std::span<const double> factor,
              double floor);

/// Linear damping: mass = (1-lambda)*mass + lambda*previous.
void mix(std::span<double> mass, std::span<const double> previous,
         double lambda) noexcept;

void normalize(std::span<double> mass) noexcept;

/// Mean of a dense belief: the full-box mean_in.
[[nodiscard]] Vec2 mean(const GridShape& shape,
                        std::span<const double> mass) noexcept;
/// Covariance of a dense belief about its mean `mu`: the full-box
/// covariance_in.
[[nodiscard]] Cov2 covariance(const GridShape& shape,
                              std::span<const double> mass, Vec2 mu) noexcept;
/// Shannon entropy in nats; uniform gives log(cell_count).
[[nodiscard]] double entropy(std::span<const double> mass) noexcept;
/// Half L1 distance between two beliefs (total variation), in [0, 1].
[[nodiscard]] double total_variation(std::span<const double> a,
                                     std::span<const double> b);

/// Top cells covering `mass_fraction` of probability, capped at
/// `max_cells`; mass renormalized over the kept cells. Cells are taken in
/// one total order, mass descending and then cell id ascending, until the
/// fraction, the first zero mass or the cap, so the summary depends on the
/// belief alone. Writes into `out` (cleared first, capacity reused) and
/// uses `order_scratch` for the selection — the allocation-free form the
/// engine's publish loop runs every round.
void sparsify_into(std::span<const double> mass, double mass_fraction,
                   std::size_t max_cells, SparseBelief& out,
                   std::vector<std::uint32_t>& order_scratch);

/// Maximum entry of a non-negative buffer (0 for an empty or all-zero
/// one). Bit-equal to a std::max_element scan — max is exact under any
/// association — so every SIMD mode returns the same value.
double peak(std::span<const double> mass) noexcept;

// --- Box-restricted variants (pyramid ROI) -------------------------------
// Caller invariant: mass outside the box is exactly zero. Binary ops need
// both views over the same box (either layout each).

/// Pointwise multiply inside the box (factor + floor), renormalizing over
/// the box. Falls back to uniform-in-box if the box mass vanishes. One
/// product_step closed by product_finish.
void multiply_in(BoxView mass, ConstBoxView factor, double floor);

/// One factor of a belief product with its renormalization deferred:
/// divides out `pending` (the total the previous step returned; 0 = none)
/// while multiplying by factor + floor inside the box, and returns the
/// box's new total, still to be divided out by the next step or by
/// product_finish. When the box mass vanishes it resets to uniform-in-box
/// and returns 0. Keeps multiply_in's full-box/per-row split, so a chain of
/// steps closed by product_finish equals the same chain of multiply_in
/// calls bit for bit, at one pass over the box per factor instead of two.
[[nodiscard]] double product_step(BoxView mass, ConstBoxView factor,
                                  double floor, double pending);
/// Divide out the last product step's pending total (0: nothing to do).
void product_finish(BoxView mass, double pending) noexcept;

/// Set every box cell to `value` (outside a dense buffer untouched).
void fill_in(BoxView mass, double value) noexcept;

/// Renormalize over the box (uniform-in-box fallback).
void normalize_in(BoxView mass) noexcept;

/// Damping restricted to the box: mass = (1-lambda)*mass + lambda*previous.
void mix_in(BoxView mass, ConstBoxView previous, double lambda) noexcept;

/// Half L1 distance when both beliefs are zero outside the box.
[[nodiscard]] double total_variation_in(ConstBoxView a, ConstBoxView b);

/// Mean over the box cells, row-major. Cells outside the box are exact
/// zeros, so skipping them leaves the sum of the whole-grid scan bit for
/// bit.
[[nodiscard]] Vec2 mean_in(const GridShape& shape, ConstBoxView mass) noexcept;
/// Covariance about `mu` (normally mean_in's result) over the box cells,
/// row-major, plus each cell's own uniform-patch variance; bit-equal to
/// the whole-grid scan like mean_in.
[[nodiscard]] Cov2 covariance_in(const GridShape& shape, ConstBoxView mass,
                                 Vec2 mu) noexcept;

/// Copy the box cells of `from` onto `to` — packs or unpacks when the
/// layouts differ (outside the box a dense `to` is untouched; callers keep
/// it zero).
void copy_in(ConstBoxView from, BoxView to) noexcept;

/// Zero everything outside the box of a dense buffer, renormalize inside
/// (uniform-in-box fallback). Used to mask a level's prior to a node's ROI.
void mask_in(std::span<double> mass, std::size_t side, const CellBox& box);

/// Rasterize a prior inside the box only (density at cell centers,
/// normalized over the box; uniform-in-box fallback) — equivalent to
/// set_from_prior + mask_in without paying for the cells the mask would
/// discard.
void set_from_prior_in(const GridShape& shape, BoxView mass,
                       const PositionPrior& prior);

/// Bounding box of cells with mass >= peak * peak_fraction. Full grid when
/// the buffer has no positive mass.
[[nodiscard]] CellBox support_box(std::span<const double> mass,
                                  std::size_t side,
                                  double peak_fraction) noexcept;

/// sparsify_into restricted to the box: only box cells are candidates, in
/// the same total order (mass descending, then cell id ascending) in either
/// layout. With the zero-outside invariant the summary is the whole-grid
/// sparsify_into's bit for bit, at box cost. `out.cells` holds grid cell
/// ids.
void sparsify_in(ConstBoxView mass, double mass_fraction,
                 std::size_t max_cells, SparseBelief& out,
                 std::vector<std::uint32_t>& order_scratch);

}  // namespace beliefops

/// Flat SoA arena of beliefs on one grid: one contiguous buffer, slot i a
/// row-major slice over its own CellBox (box.width() × box.height() cells;
/// an empty box holds none). The grid engine sizes every per-node and
/// per-link slot to the receiving node's region of interest, so its memory
/// follows the summed ROI cells, not slots × side². A store of full boxes
/// is the dense layout: slot i at [i·side², (i+1)·side²).
class BeliefStore {
 public:
  /// `count` slots over the whole grid.
  BeliefStore(const GridShape& shape, std::size_t count)
      : BeliefStore(shape,
                    std::vector<CellBox>(count, CellBox::full(shape.side))) {}
  /// One zero-filled slot per box.
  BeliefStore(const GridShape& shape, std::vector<CellBox> boxes);

  [[nodiscard]] const GridShape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::size_t count() const noexcept { return boxes_.size(); }
  /// Bytes of belief mass held (the arena, not the bookkeeping).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return data_.size() * sizeof(double);
  }

  /// Slot i's cells, row-major over its box.
  [[nodiscard]] std::span<double> operator[](std::size_t i) noexcept {
    return {data_.data() + offset_[i], offset_[i + 1] - offset_[i]};
  }
  [[nodiscard]] std::span<const double> operator[](
      std::size_t i) const noexcept {
    return {data_.data() + offset_[i], offset_[i + 1] - offset_[i]};
  }
  /// Slot i addressed by grid rows.
  [[nodiscard]] BoxView view(std::size_t i) noexcept {
    return BoxView::packed((*this)[i], shape_.side, boxes_[i]);
  }
  [[nodiscard]] ConstBoxView view(std::size_t i) const noexcept {
    return ConstBoxView::packed((*this)[i], shape_.side, boxes_[i]);
  }

  /// Slot i as a dense side² belief, for consumers that need the whole
  /// grid: the slot itself when its box is full, else unpacked into
  /// `scratch` (zeros outside the box).
  [[nodiscard]] std::span<const double> dense(
      std::size_t i, std::vector<double>& scratch) const;

 private:
  GridShape shape_;
  std::vector<CellBox> boxes_;
  std::vector<std::size_t> offset_;  ///< slot i at [offset_[i], offset_[i+1])
  std::vector<double> data_;
};

/// Copy one belief slice onto another (any mix of stores/spans).
void copy_belief(std::span<const double> from, std::span<double> to) noexcept;

class GridBelief {
 public:
  GridBelief(const Aabb& field, std::size_t cells_per_side);

  [[nodiscard]] std::size_t side() const noexcept { return shape_.side; }
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return mass_.size();
  }
  [[nodiscard]] const Aabb& field() const noexcept { return shape_.field; }
  [[nodiscard]] double cell_size() const noexcept {
    return shape_.cell_width();
  }
  [[nodiscard]] const GridShape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::span<const double> mass() const noexcept {
    return mass_;
  }

  [[nodiscard]] Vec2 cell_center(std::size_t cell) const noexcept {
    return shape_.cell_center(cell);
  }
  [[nodiscard]] std::size_t cell_at(Vec2 p) const noexcept {
    return shape_.cell_at(p);
  }

  /// Reset to the uniform distribution.
  void set_uniform() noexcept { beliefops::set_uniform(mass_); }
  /// Rasterize a prior (density at cell centers, then normalize).
  void set_from_prior(const PositionPrior& prior) {
    beliefops::set_from_prior(shape_, mass_, prior);
  }
  /// All mass in the cell containing p (anchor delta).
  void set_delta(Vec2 p) noexcept { beliefops::set_delta(shape_, mass_, p); }

  /// Pointwise multiply by a non-negative factor grid (same shape), with an
  /// additive floor that prevents conflicting evidence from zeroing the
  /// belief; renormalizes. `factor` need not be normalized.
  void multiply(std::span<const double> factor, double floor) {
    beliefops::multiply(mass_, factor, floor);
  }

  /// Linear damping: this = (1-lambda)*this + lambda*previous.
  void mix_with(const GridBelief& previous, double lambda) noexcept {
    beliefops::mix(mass_, previous.mass_, lambda);
  }

  void normalize() noexcept { beliefops::normalize(mass_); }

  [[nodiscard]] Vec2 mean() const noexcept {
    return beliefops::mean(shape_, mass_);
  }
  [[nodiscard]] Cov2 covariance() const noexcept {
    return beliefops::covariance(shape_, mass_, mean());
  }
  /// Shannon entropy in nats; uniform gives log(cell_count).
  [[nodiscard]] double entropy() const noexcept {
    return beliefops::entropy(mass_);
  }
  /// Half L1 distance to another belief (total variation), in [0, 1].
  [[nodiscard]] double total_variation(const GridBelief& other) const {
    return beliefops::total_variation(mass_, other.mass_);
  }

  /// Top cells covering `mass_fraction` of probability, capped at
  /// `max_cells`; mass renormalized over the kept cells.
  [[nodiscard]] SparseBelief sparsify(double mass_fraction,
                                      std::size_t max_cells) const;

 private:
  GridShape shape_;
  std::vector<double> mass_;
};

}  // namespace bnloc
