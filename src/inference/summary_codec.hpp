// The wire format of a SparseBelief: the bytes a grid summary occupies on
// the radio, and the only thing the grid engine's radio carries and meters.
//
//   header   8 bytes: the sent cells' bounding box as four little-endian
//            uint16 — first column x0, first row y0, width w, height h
//            (w = h = 0: the empty summary, nothing follows);
//   bitmap   ceil(w·h / 8) bytes: bit k (byte k / 8, bit k % 8 counted
//            from the least significant) is set when box cell k, counted
//            row-major, is sent;
//   masses   one little-endian uint16 per set bit, in bitmap order.
//
// Masses are quantized linearly against the summary's largest mass,
// q = round(65535 · m / max); a cell whose q rounds to 0 is not sent and
// does not widen the box. Decoding returns the sent cells in ascending cell
// id (the bitmap's row-major order) with masses q / Σq. The grid side is
// not on the wire: sender and receivers share the discretization. Box
// fields are 16 bits, so every side whose cell ids fit the summary's
// uint32_t (side <= 65,535) encodes.
//
// A published summary is a compact blob, so the bitmap costs about a bit
// per box cell where a cell id would cost bytes: at grid 48 a line-drop
// summary of ~18 cells meters ~46 B here against 6 B per cell before.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "inference/grid_belief.hpp"

namespace bnloc {

/// Bytes of the box header that starts every encoded summary.
inline constexpr std::size_t kSummaryHeaderBytes = 8;
/// Largest grid side a summary box can name.
inline constexpr std::size_t kMaxSummarySide = 65535;

/// Encode `summary` (cell ids on a `side`-wide grid, any order, no
/// duplicates, non-negative masses) into `wire`, which is cleared first
/// (capacity reused). `covered_fraction` is not on the wire.
void encode_summary(const SparseBelief& summary, std::size_t side,
                    std::vector<std::uint8_t>& wire);

/// Decode bytes `encode_summary` wrote for a `side`-wide grid into
/// `out.cells` (ascending) and `out.mass` (q / Σq, summing to 1). Leaves
/// `out.covered_fraction` as it was: the wire does not carry it.
void decode_summary(std::span<const std::uint8_t> wire, std::size_t side,
                    SparseBelief& out);

}  // namespace bnloc
