// Coarse-to-fine grid pyramid: level planning and mass-conserving
// belief upsampling.
//
// The grid engine's per-round cost is dominated by dense per-cell loops
// (kernel replay, belief products), all O(side²) per node per neighbor.
// Early rounds do not need fine resolution — beliefs are still broad, and
// the message content that matters (which annulus, roughly where) survives
// coarse discretization. The pyramid therefore runs the first rounds on a
// coarse grid and refines: at each level transition every node's belief is
// upsampled to the next resolution (area-overlap resampling, so no
// probability mass is invented or lost beyond FP rounding), and the belief's
// support becomes a region-of-interest box that keeps the fine level from
// paying full-grid cost for a belief that has already collapsed to a blob.
// (The first level — a single-level run's only one — takes its box from
// the prior's support instead; core/grid_bncl.cpp holds the one rule.)
//
// Everything here is geometry + resampling; the engine owns the protocol
// consequences (cache rebuilds, republish, crashed-node summary translation).
#pragma once

#include <cstddef>
#include <vector>

#include "inference/grid_belief.hpp"

namespace bnloc {

/// The resolution ladder of one pyramid run: grid sides in ascending order,
/// finishing at the configured (finest) side. `levels == 1` degenerates to
/// a single entry — the single-resolution engine.
struct PyramidPlan {
  std::vector<std::size_t> sides;

  [[nodiscard]] std::size_t levels() const noexcept { return sides.size(); }
  [[nodiscard]] std::size_t finest() const noexcept { return sides.back(); }

  /// Evenly spaced ladder `finest/levels, 2*finest/levels, ..., finest`
  /// (rounded to nearest), floored at 8 cells per side so the coarsest
  /// level can still express an annulus, and deduplicated — requesting more
  /// levels than the resolution supports quietly yields fewer.
  [[nodiscard]] static PyramidPlan make(std::size_t finest_side,
                                        std::size_t levels);
};

/// Resample a belief from a coarse grid onto a finer grid over the same
/// field, conserving mass: each coarse cell's probability is split among
/// the fine cells it overlaps in proportion to overlap area (separable
/// per-axis fractions). Exactly mass-conserving up to FP rounding; callers
/// renormalize afterwards. Requires `fine.side >= coarse.side` and both
/// shapes over the same field rectangle.
void upsample_belief(const GridShape& coarse,
                     std::span<const double> coarse_mass,
                     const GridShape& fine, std::span<double> fine_mass);

/// Translate a sparse summary (cell ids + masses) from a coarse grid to a
/// finer grid over the same field: every source cell is split across the
/// fine cells it overlaps, collisions merged, masses renormalized, entries
/// ordered by descending mass and then ascending cell id (the sparsify
/// order). Used for crashed nodes, whose frozen last broadcast must stay
/// usable after a level switch; this is receiver-local bookkeeping, not new
/// radio traffic.
[[nodiscard]] SparseBelief upsample_summary(const GridShape& coarse,
                                            const GridShape& fine,
                                            const SparseBelief& src);

}  // namespace bnloc
