// Precomputed grid kernels for belief-propagation messages.
//
// A BP message for a range measurement d is the correlation of the sender's
// belief with the radially symmetric likelihood L(d | r): an annulus of
// radius d. Because L depends only on the inter-cell offset, the annulus is
// precomputed once per measured distance as a sparse set of (dx, dy, weight)
// stamps and replayed for every active source cell — turning an O(G^4)
// convolution into O(active_cells * annulus_cells).
//
// Storage is SoA by scanline: stamps with the same dy and consecutive dx
// collapse into runs over one contiguous weight array, so the replay inner
// loop is a branch-free fused multiply-add over a dense slice (clipped once
// per run at the grid border) that auto-vectorizes — instead of a bounds
// check and a scattered write per stamp. Run iteration order equals the
// original (dy-major, dx-minor) stamp order, so accumulation is
// bit-identical to the naive loop.
//
// The same machinery with a connection-probability profile gives the
// negative-evidence kernel ("j did NOT hear i, so i is probably outside j's
// range").
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "inference/grid_belief.hpp"
#include "radio/connectivity.hpp"
#include "radio/ranging.hpp"

namespace bnloc {

class RangeKernel {
 public:
  /// Annulus likelihood kernel for a measured distance under `ranging`.
  /// `trunc_sigmas` bounds the ring thickness.
  static RangeKernel make_range(double measured, const RangingSpec& ranging,
                                const GridShape& shape,
                                double trunc_sigmas = 3.5);
  /// Convenience overload taking the shape from a belief.
  static RangeKernel make_range(double measured, const RangingSpec& ranging,
                                const GridBelief& grid_shape,
                                double trunc_sigmas = 3.5) {
    return make_range(measured, ranging, grid_shape.shape(), trunc_sigmas);
  }

  /// Disk kernel of the link probability p_link(r); used for negative
  /// evidence as message = 1 - sum_y b(y) * p_link(|x - y|).
  static RangeKernel make_connectivity(const RadioSpec& radio,
                                       const GridShape& shape);
  static RangeKernel make_connectivity(const RadioSpec& radio,
                                       const GridBelief& grid_shape) {
    return make_connectivity(radio, grid_shape.shape());
  }

  /// Accumulate sum_y src(y) * K(x - y) into `out` (dense side² grid
  /// buffer, NOT cleared here).
  void accumulate(const SparseBelief& src, std::span<double> out,
                  std::size_t side) const;
  /// The same over a view: with a partial box (pyramid ROI) only cells
  /// inside it are written, in either storage layout; a dense buffer's
  /// cells outside are untouched. Inside the box the values are
  /// bit-identical to an unclipped replay — every output cell receives
  /// exactly one addition per stamp regardless of how the runs are
  /// traversed.
  void accumulate(const SparseBelief& src, BoxView out) const;

  /// The full BP message for a summary: clear `out`, correlate, normalize
  /// to peak 1. Returns the peak before normalization (0 = the summary put
  /// no mass in range — message carries no information). The peak scan and
  /// the division cover only the touched box (see touched_box); untouched
  /// cells hold exact zeros, so the result is bit-identical to whole-grid
  /// normalization.
  double correlate(const SparseBelief& src, std::span<double> out,
                   std::size_t side) const;
  /// The same over a view: with a partial box the whole computation —
  /// clear, replay, peak, normalize — is restricted to the box, and the
  /// returned peak is the in-box peak.
  double correlate(const SparseBelief& src, BoxView out) const;
  /// correlate() into a view that is already zero over `touched`, which
  /// must be touched_box(src, out.box, out.side): the same replay, peak and
  /// normalization, writing nothing outside `touched`. correlate() is a
  /// clear of the view followed by this.
  double correlate_zeroed(const SparseBelief& src, BoxView out,
                          const CellBox& touched) const;

  /// The cells a replay of `src` can write inside `clip` on a `side`-wide
  /// grid: the summary's cell extent dilated by the kernel footprint,
  /// clipped to `clip`. The empty CellBox{} when the summary or the kernel
  /// is empty or the box misses `clip`. Outside it a correlation is exactly
  /// zero.
  [[nodiscard]] CellBox touched_box(const SparseBelief& src,
                                    const CellBox& clip,
                                    std::size_t side) const noexcept;

  [[nodiscard]] std::size_t stamp_count() const noexcept {
    return weights_.size();
  }
  /// Number of contiguous scanline runs the stamps collapsed into.
  [[nodiscard]] std::size_t run_count() const noexcept {
    return runs_.size();
  }

  /// Visit every stamp as (dx, dy, weight) in storage order — the original
  /// dy-major / dx-minor construction order. Lets tests and benches expand
  /// the run-compressed storage back into the flat stamp list it encodes.
  template <typename Visitor>
  void for_each_stamp(Visitor&& visit) const {
    for (const Run& run : runs_)
      for (std::uint32_t t = 0; t < run.len; ++t)
        visit(run.dx0 + static_cast<std::int32_t>(t), run.dy,
              weights_[run.w0 + t]);
  }

 private:
  /// One scanline run: `len` consecutive stamps starting at offset
  /// (dx0, dy), weights at weights_[w0 .. w0+len).
  struct Run {
    std::int32_t dy;
    std::int32_t dx0;
    std::uint32_t len;
    std::uint32_t w0;
  };

  /// Append a stamp, extending the current run when contiguous.
  void push_stamp(std::int32_t dx, std::int32_t dy, double weight);

  /// Precompute the flat per-stamp cell offsets and the footprint bounds
  /// for the interior (clip-free) replay path on a `side`-wide grid.
  void finalize(std::size_t side);

  std::vector<Run> runs_;
  std::vector<double> weights_;
  /// Flat offset (dy * side + dx) per stamp in storage order, valid for
  /// grids of width side_; empty for a default-constructed kernel.
  std::vector<std::int32_t> flat_off_;
  std::int32_t side_ = 0;
  std::int32_t min_dx_ = 0, max_dx_ = -1;  ///< footprint bounds; empty
  std::int32_t min_dy_ = 0, max_dy_ = -1;  ///< kernel keeps max < min.
};

}  // namespace bnloc
