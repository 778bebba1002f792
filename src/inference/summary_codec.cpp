#include "inference/summary_codec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "support/assert.hpp"

namespace bnloc {

namespace {

constexpr double kMassLevels = 65535.0;

void put_u16(std::uint8_t* at, std::size_t v) noexcept {
  at[0] = static_cast<std::uint8_t>(v & 0xffU);
  at[1] = static_cast<std::uint8_t>((v >> 8) & 0xffU);
}

std::size_t get_u16(const std::uint8_t* at) noexcept {
  return static_cast<std::size_t>(at[0]) |
         (static_cast<std::size_t>(at[1]) << 8);
}

}  // namespace

void encode_summary(const SparseBelief& summary, std::size_t side,
                    std::vector<std::uint8_t>& wire) {
  BNLOC_ASSERT(side <= kMaxSummarySide,
               "summary grid side exceeds the wire format's 16-bit box");
  BNLOC_ASSERT(summary.cells.size() == summary.mass.size(),
               "summary cells and masses differ in count");
  float peak = 0.0f;
  for (const float m : summary.mass) {
    BNLOC_ASSERT(m >= 0.0f, "summary masses must be non-negative");
    peak = std::max(peak, m);
  }
  // (cell, q) of every cell that survives quantization, in cell order.
  std::vector<std::pair<std::uint32_t, std::uint16_t>> sent;
  sent.reserve(summary.cells.size());
  std::size_t x0 = side, x1 = 0, y0 = side, y1 = 0;
  for (std::size_t k = 0; peak > 0.0f && k < summary.cells.size(); ++k) {
    const auto q = static_cast<std::uint16_t>(std::lround(
        static_cast<double>(summary.mass[k]) / static_cast<double>(peak) *
        kMassLevels));
    if (q == 0) continue;
    const std::uint32_t cell = summary.cells[k];
    BNLOC_ASSERT(cell < side * side, "summary cell outside the grid");
    sent.emplace_back(cell, q);
    x0 = std::min(x0, cell % side);
    x1 = std::max(x1, cell % side);
    y0 = std::min(y0, cell / side);
    y1 = std::max(y1, cell / side);
  }
  std::sort(sent.begin(), sent.end());
  const std::size_t w = sent.empty() ? 0 : x1 - x0 + 1;
  const std::size_t h = sent.empty() ? 0 : y1 - y0 + 1;
  const std::size_t bitmap_bytes = (w * h + 7) / 8;
  wire.assign(kSummaryHeaderBytes + bitmap_bytes + 2 * sent.size(), 0);
  std::uint8_t* const out = wire.data();
  put_u16(out, sent.empty() ? 0 : x0);
  put_u16(out + 2, sent.empty() ? 0 : y0);
  put_u16(out + 4, w);
  put_u16(out + 6, h);
  std::uint8_t* const bitmap = out + kSummaryHeaderBytes;
  std::uint8_t* const masses = bitmap + bitmap_bytes;
  for (std::size_t k = 0; k < sent.size(); ++k) {
    const auto [cell, q] = sent[k];
    BNLOC_ASSERT(k == 0 || sent[k - 1].first != cell,
                 "summary names a cell twice");
    const std::size_t bit = (cell / side - y0) * w + (cell % side - x0);
    bitmap[bit / 8] |= static_cast<std::uint8_t>(1U << (bit % 8));
    put_u16(masses + 2 * k, q);
  }
}

void decode_summary(std::span<const std::uint8_t> wire, std::size_t side,
                    SparseBelief& out) {
  BNLOC_ASSERT(wire.size() >= kSummaryHeaderBytes,
               "summary wire shorter than its header");
  const std::size_t x0 = get_u16(wire.data());
  const std::size_t y0 = get_u16(wire.data() + 2);
  const std::size_t w = get_u16(wire.data() + 4);
  const std::size_t h = get_u16(wire.data() + 6);
  BNLOC_ASSERT(x0 + w <= side && y0 + h <= side,
               "summary box outside the grid");
  const std::size_t box_cells = w * h;
  const std::size_t bitmap_bytes = (box_cells + 7) / 8;
  BNLOC_ASSERT(wire.size() >= kSummaryHeaderBytes + bitmap_bytes,
               "summary wire shorter than its bitmap");
  const std::uint8_t* const bitmap = wire.data() + kSummaryHeaderBytes;
  out.cells.clear();
  out.mass.clear();
  for (std::size_t b = 0; b < bitmap_bytes; ++b) {
    for (unsigned bits = bitmap[b]; bits != 0; bits &= bits - 1) {
      const std::size_t bit =
          8 * b + static_cast<std::size_t>(std::countr_zero(bits));
      BNLOC_ASSERT(bit < box_cells, "summary bitmap bit past its box");
      out.cells.push_back(static_cast<std::uint32_t>(
          (y0 + bit / w) * side + x0 + bit % w));
    }
  }
  const std::uint8_t* const masses = bitmap + bitmap_bytes;
  BNLOC_ASSERT(wire.size() ==
                   kSummaryHeaderBytes + bitmap_bytes + 2 * out.cells.size(),
               "summary wire size disagrees with its bitmap");
  std::uint64_t total = 0;
  for (std::size_t k = 0; k < out.cells.size(); ++k)
    total += get_u16(masses + 2 * k);
  BNLOC_ASSERT(out.cells.empty() || total > 0, "summary masses are all zero");
  out.mass.resize(out.cells.size());
  for (std::size_t k = 0; k < out.cells.size(); ++k)
    out.mass[k] = static_cast<float>(
        static_cast<double>(get_u16(masses + 2 * k)) /
        static_cast<double>(total));
}

}  // namespace bnloc
