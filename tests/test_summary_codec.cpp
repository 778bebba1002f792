// Unit tests for the summary wire format (inference/summary_codec.hpp).
#include "inference/summary_codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

namespace bnloc {
namespace {

constexpr std::size_t kSides[] = {8, 48, 96, 255, 256, 4096, 65535};

std::size_t u16_at(const std::vector<std::uint8_t>& wire, std::size_t at) {
  return static_cast<std::size_t>(wire[at]) |
         (static_cast<std::size_t>(wire[at + 1]) << 8);
}

/// The format's quantization, worked out here independently of the codec.
std::vector<std::uint64_t> quantized(const std::vector<float>& mass) {
  const float peak = *std::max_element(mass.begin(), mass.end());
  std::vector<std::uint64_t> q;
  for (const float m : mass)
    q.push_back(static_cast<std::uint64_t>(
        std::lround(static_cast<double>(m) / static_cast<double>(peak) *
                    65535.0)));
  return q;
}

/// Encodes `in`, decodes it, and checks both against the format rules:
/// q = round(65535 m / max), cells with q = 0 dropped, the box over the
/// rest, ceil(w h / 8) bitmap bytes, 2 bytes per sent cell, cells back in
/// ascending id with mass q / Σq.
void expect_round_trip(const SparseBelief& in, std::size_t side) {
  const std::vector<std::uint64_t> q_in = quantized(in.mass);
  std::vector<std::pair<std::uint32_t, std::uint64_t>> sent;
  for (std::size_t k = 0; k < in.size(); ++k)
    if (q_in[k] > 0) sent.emplace_back(in.cells[k], q_in[k]);
  ASSERT_FALSE(sent.empty());
  std::sort(sent.begin(), sent.end());
  std::size_t x0 = side, x1 = 0, y0 = side, y1 = 0;
  std::uint64_t total = 0;
  for (const auto& [cell, q] : sent) {
    x0 = std::min(x0, cell % side);
    x1 = std::max(x1, cell % side);
    y0 = std::min(y0, cell / side);
    y1 = std::max(y1, cell / side);
    total += q;
  }
  const std::size_t w = x1 - x0 + 1;
  const std::size_t h = y1 - y0 + 1;

  std::vector<std::uint8_t> wire;
  encode_summary(in, side, wire);
  ASSERT_EQ(wire.size(),
            kSummaryHeaderBytes + (w * h + 7) / 8 + 2 * sent.size());
  EXPECT_EQ(u16_at(wire, 0), x0);
  EXPECT_EQ(u16_at(wire, 2), y0);
  EXPECT_EQ(u16_at(wire, 4), w);
  EXPECT_EQ(u16_at(wire, 6), h);

  SparseBelief out;
  out.covered_fraction = 0.25;
  decode_summary(wire, side, out);
  ASSERT_EQ(out.size(), sent.size());
  ASSERT_EQ(out.mass.size(), sent.size());
  for (std::size_t k = 0; k < sent.size(); ++k) {
    if (k > 0) {
      EXPECT_LT(out.cells[k - 1], out.cells[k]) << "entry " << k;
    }
    EXPECT_EQ(out.cells[k], sent[k].first) << "entry " << k;
    EXPECT_EQ(out.mass[k],
              static_cast<float>(static_cast<double>(sent[k].second) /
                                 static_cast<double>(total)))
        << "entry " << k;
  }
  EXPECT_EQ(out.covered_fraction, 0.25);  // not on the wire

  // The decoded masses quantize back to the same q, so a re-encoding of
  // the decoded summary (what a relay re-sends) is the same bytes.
  const std::vector<std::uint64_t> q_out = quantized(out.mass);
  for (std::size_t k = 0; k < sent.size(); ++k)
    EXPECT_EQ(q_out[k], sent[k].second) << "entry " << k;
}

std::uint32_t cell_at(std::size_t x, std::size_t y, std::size_t side) {
  return static_cast<std::uint32_t>(y * side + x);
}

TEST(SummaryCodec, OneCellInEachCorner) {
  for (const std::size_t side : kSides) {
    SCOPED_TRACE(testing::Message() << "side " << side);
    for (const auto& [x, y] : {std::pair<std::size_t, std::size_t>{0, 0},
                               {side - 1, 0},
                               {0, side - 1},
                               {side - 1, side - 1}}) {
      SparseBelief s;
      s.cells = {cell_at(x, y, side)};
      s.mass = {1.0f};
      expect_round_trip(s, side);
    }
  }
}

TEST(SummaryCodec, BlobInSparsifyOrder) {
  for (const std::size_t side : kSides) {
    SCOPED_TRACE(testing::Message() << "side " << side);
    // A disc of radius 4 about the center, clipped to the grid, listed in
    // descending mass as the sparsify leaves it.
    const auto c = static_cast<double>(side / 2);
    std::vector<std::pair<float, std::uint32_t>> blob;
    for (std::size_t y = 0; y < side; ++y) {
      const double dy = static_cast<double>(y) - c;
      if (std::abs(dy) > 4.0) continue;
      for (std::size_t x = 0; x < side; ++x) {
        const double dx = static_cast<double>(x) - c;
        if (dx * dx + dy * dy > 16.0) continue;
        blob.emplace_back(static_cast<float>(std::exp(-(dx * dx + dy * dy))),
                          cell_at(x, y, side));
      }
    }
    std::sort(blob.begin(), blob.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    SparseBelief s;
    for (const auto& [m, cell] : blob) {
      s.cells.push_back(cell);
      s.mass.push_back(m);
    }
    expect_round_trip(s, side);
  }
}

TEST(SummaryCodec, ScatteredCells) {
  std::mt19937_64 gen(28);
  for (const std::size_t side : kSides) {
    SCOPED_TRACE(testing::Message() << "side " << side);
    // 192 distinct cells (fewer on the 8-wide grid) anywhere in the last
    // window of up to 4096 rows and columns, so the largest sides keep a
    // bitmap of at most 2 MiB.
    const std::size_t window = std::min<std::size_t>(side, 4096);
    std::uniform_int_distribution<std::size_t> at(side - window, side - 1);
    std::uniform_real_distribution<float> mass(0.001f, 1.0f);
    const std::size_t count = std::min<std::size_t>(192, side * side / 2);
    SparseBelief s;
    while (s.size() < count) {
      const std::uint32_t cell = cell_at(at(gen), at(gen), side);
      if (std::find(s.cells.begin(), s.cells.end(), cell) != s.cells.end())
        continue;
      s.cells.push_back(cell);
      s.mass.push_back(mass(gen));
    }
    expect_round_trip(s, side);
  }
}

// Two cells in opposite corners make the box the whole grid: at side
// 65,535 the header's width and height are at their 16-bit limit, and the
// bitmap's 65,535² bits (512 MiB) overflow a 32-bit cell count.
TEST(SummaryCodec, OppositeCornersSpanTheGrid) {
  for (const std::size_t side : kSides) {
    SCOPED_TRACE(testing::Message() << "side " << side);
    SparseBelief s;
    s.cells = {cell_at(side - 1, side - 1, side), cell_at(0, 0, side)};
    s.mass = {0.7f, 0.3f};
    expect_round_trip(s, side);
  }
}

TEST(SummaryCodec, CellsThatRoundToZeroAreNotSent) {
  const std::size_t side = 48;
  SparseBelief s;
  s.cells = {cell_at(20, 20, side), cell_at(21, 20, side),
             cell_at(47, 47, side)};
  // 65535 * 1e-6 rounds to 0: the far cell is neither sent nor boxed.
  s.mass = {0.6f, 0.4f, 0.6e-6f};
  expect_round_trip(s, side);
  std::vector<std::uint8_t> wire;
  encode_summary(s, side, wire);
  EXPECT_EQ(wire.size(), kSummaryHeaderBytes + 1 + 2 * 2);
}

TEST(SummaryCodec, DecodedSummaryReencodesToTheSameBytes) {
  const std::size_t side = 96;
  SparseBelief s;
  std::mt19937_64 gen(3);
  std::uniform_int_distribution<std::size_t> at(30, 41);
  std::uniform_real_distribution<float> mass(0.0f, 1.0f);
  while (s.size() < 40) {
    const std::uint32_t cell = cell_at(at(gen), at(gen), side);
    if (std::find(s.cells.begin(), s.cells.end(), cell) != s.cells.end())
      continue;
    s.cells.push_back(cell);
    s.mass.push_back(mass(gen));
  }
  std::vector<std::uint8_t> wire, again;
  encode_summary(s, side, wire);
  SparseBelief out;
  decode_summary(wire, side, out);
  encode_summary(out, side, again);
  EXPECT_EQ(again, wire);
}

TEST(SummaryCodec, EmptySummaryIsAHeader) {
  std::vector<std::uint8_t> wire{1, 2, 3};
  encode_summary(SparseBelief{}, 48, wire);
  EXPECT_EQ(wire, std::vector<std::uint8_t>(kSummaryHeaderBytes, 0));
  SparseBelief out;
  out.cells = {7};
  out.mass = {1.0f};
  decode_summary(wire, 48, out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(out.mass.empty());
}

}  // namespace
}  // namespace bnloc
