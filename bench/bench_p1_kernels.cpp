// P1 — grid fast path: kernel cache + SoA message correlation.
//
// Measures the PR's fast-path layers at the default configuration (48-cell
// grid, 200-node line-drop scenario) and checks the contract that makes
// them safe to leave on: the fast path changes wall-clock only, never a
// single output bit.
//
//  A. kernel construction — one RangeKernel::make_range per directed link
//     vs the same lookups through KernelCache (symmetric links and repeated
//     distances share kernels).
//  B. message stage — computing every directed link's message (zero-fill +
//     kernel correlation + peak normalization) over the network's published
//     summaries, with the pre-PR kernel replay (flat stamp list, per-stamp
//     border check and scattered write — the seed implementation,
//     reproduced below) vs the PR's scanline-run replay. Outputs are
//     compared bit for bit; this is the ≥ 2× acceptance headline, gated on
//     the ratio of each replay's fastest repetition, the two alternating.
#include "bench_common.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>

using namespace bnloc;
using namespace bnloc::bench;

namespace {

/// The pre-PR message correlation: an array-of-structs stamp list replayed
/// with a bounds check and a scattered write per stamp. Stamps are expanded
/// from the run-compressed kernel in storage order, so the arithmetic —
/// values and evaluation order — is identical and outputs must match bit
/// for bit.
struct StampListKernel {
  struct Stamp {
    std::int32_t dx, dy;
    double weight;
  };
  std::vector<Stamp> stamps;

  explicit StampListKernel(const RangeKernel& k) {
    stamps.reserve(k.stamp_count());
    k.for_each_stamp([&](std::int32_t dx, std::int32_t dy, double w) {
      stamps.push_back({dx, dy, w});
    });
  }

  void accumulate(const SparseBelief& src, std::span<double> out,
                  std::size_t side) const {
    const auto s = static_cast<std::int32_t>(side);
    for (std::size_t e = 0; e < src.cells.size(); ++e) {
      const double m = src.mass[e];
      const auto cx = static_cast<std::int32_t>(src.cells[e] % side);
      const auto cy = static_cast<std::int32_t>(src.cells[e] / side);
      for (const Stamp& st : stamps) {
        const std::int32_t x = cx + st.dx;
        const std::int32_t y = cy + st.dy;
        if (static_cast<std::uint32_t>(x) >= static_cast<std::uint32_t>(s) ||
            static_cast<std::uint32_t>(y) >= static_cast<std::uint32_t>(s))
          continue;
        out[static_cast<std::size_t>(y) * side +
            static_cast<std::size_t>(x)] += m * st.weight;
      }
    }
  }
};

/// One directed message, pre-PR: clear, per-stamp correlation, peak via a
/// linear std::max_element scan (the seed's exact sequence).
double compute_message_old(const StampListKernel& k, const SparseBelief& src,
                           std::span<double> out, std::size_t side) {
  std::fill(out.begin(), out.end(), 0.0);
  k.accumulate(src, out, side);
  const double peak = *std::max_element(out.begin(), out.end());
  if (peak > 0.0)
    for (double& v : out) v /= peak;
  return peak;
}

/// The same message through the PR's stage — RangeKernel::correlate:
/// run-compressed replay with an interior clip-free path, and peak
/// normalization restricted to the touched bounding box (still bit-exact).
/// This is exactly what GridBncl runs per computed message.
double compute_message_new(const RangeKernel& k, const SparseBelief& src,
                           std::span<double> out, std::size_t side) {
  return k.correlate(src, out, side);
}

}  // namespace

int main() {
  const BenchConfig bc = BenchConfig::from_env();
  const ScenarioConfig cfg = default_scenario(bc);
  print_banner("P1", "grid fast path: kernel cache + run replay", bc, cfg);

  const Scenario scenario = build_scenario(cfg);
  const GridBnclConfig gc;  // defaults: 48-cell grid
  const GridShape shape{scenario.field, gc.grid_side};
  const std::size_t side = shape.side;
  const std::size_t n = scenario.node_count();
  const RangingSpec& ranging = scenario.radio.ranging;

  // --- A: kernel construction ---------------------------------------------
  KernelCache cache(ranging, shape);
  {
    std::size_t links = 0;
    std::size_t stamps_direct = 0;
    const Stopwatch direct_watch;
    for (std::size_t i = 0; i < n; ++i)
      for (const Neighbor& nb : scenario.graph.neighbors(i)) {
        const RangeKernel k = RangeKernel::make_range(nb.weight, ranging, shape);
        stamps_direct += k.stamp_count();
        ++links;
      }
    const double direct_s = direct_watch.seconds();

    const Stopwatch cached_watch;
    std::size_t stamps_cached = 0;
    for (std::size_t i = 0; i < n; ++i)
      for (const Neighbor& nb : scenario.graph.neighbors(i))
        stamps_cached += cache.range(nb.weight)->stamp_count();
    const double cached_s = cached_watch.seconds();

    std::printf("A: kernel construction, %zu directed links\n", links);
    AsciiTable t({"variant", "kernels built", "kernels shared", "ms",
                  "speedup"});
    t.add_row({"direct", std::to_string(links), "0",
               AsciiTable::fmt(direct_s * 1e3, 2), "1.00"});
    t.add_row({"cached", std::to_string(cache.stats().built),
               std::to_string(cache.stats().shared),
               AsciiTable::fmt(cached_s * 1e3, 2),
               AsciiTable::fmt(cached_s > 0.0 ? direct_s / cached_s : 0.0,
                               2)});
    t.print(std::cout);
    if (stamps_direct != stamps_cached) {
      std::printf("FAIL: cached kernels disagree with direct construction\n");
      return EXIT_FAILURE;
    }
    std::printf("stamp totals agree (%zu stamps)\n\n", stamps_direct);
  }

  // --- B: message stage, pre-PR stamp replay vs SoA run replay ------------
  // The network state the engine correlates in its first round: every
  // node's published summary is its sparsified prior (anchors publish a
  // delta). Message set = every directed link into a non-anchor receiver
  // with a non-empty sender summary — exactly the engine's message stage.
  {
    BeliefStore priors(shape, n);
    std::vector<SparseBelief> summary(n);
    SparseBelief sp;
    std::vector<std::uint32_t> order_scratch;
    for (std::size_t i = 0; i < n; ++i) {
      if (scenario.is_anchor[i])
        beliefops::set_delta(shape, priors[i], scenario.anchor_position(i));
      else
        beliefops::set_from_prior(shape, priors[i], *scenario.priors[i]);
      beliefops::sparsify_into(priors[i], GridBncl::kSupportMass,
                               GridBncl::kMaxSupportCells, sp, order_scratch);
      summary[i] = sp;
    }

    struct Msg {
      const RangeKernel* kernel;
      const SparseBelief* src;
    };
    std::vector<Msg> msgs;
    std::vector<StampListKernel> aos;  // parallel to msgs
    for (std::size_t i = 0; i < n; ++i) {
      if (scenario.is_anchor[i]) continue;
      for (const Neighbor& nb : scenario.graph.neighbors(i)) {
        if (summary[nb.node].empty()) continue;
        const RangeKernel* k = cache.range(nb.weight);
        msgs.push_back({k, &summary[nb.node]});
        aos.emplace_back(*k);
      }
    }

    // Bitwise identity first (untimed): the run replay must reproduce the
    // stamp replay exactly on every message. The contract is stated for the
    // scalar dispatch mode — vector lanes may fuse the multiply-add — so the
    // comparison pins scalar and the timed section below restores the
    // session's mode (what the engine actually runs).
    const simd::Mode session_mode = simd::active_mode();
    simd::set_mode(simd::Mode::scalar);
    std::vector<double> buf_a(shape.cell_count()), buf_b(shape.cell_count());
    for (std::size_t m = 0; m < msgs.size(); ++m) {
      compute_message_old(aos[m], *msgs[m].src, buf_a, side);
      compute_message_new(*msgs[m].kernel, *msgs[m].src, buf_b, side);
      for (std::size_t c = 0; c < buf_a.size(); ++c)
        if (std::bit_cast<std::uint64_t>(buf_a[c]) !=
            std::bit_cast<std::uint64_t>(buf_b[c])) {
          std::printf("FAIL: run replay diverges from stamp replay "
                      "(message %zu, cell %zu)\n", m, c);
          return EXIT_FAILURE;
        }
    }

    // Timed: each replay is represented by its fastest repetition, since
    // outside load only ever adds time, and the two alternate per
    // repetition so that a burst of load cannot fall on one replay only.
    simd::set_mode(session_mode);
    const std::size_t reps = bc.fast ? 5 : 20;
    double sink_old = 0.0, sink_new = 0.0;
    double old_s = std::numeric_limits<double>::infinity();
    double new_s = old_s;
    for (std::size_t r = 0; r < reps; ++r) {
      const Stopwatch old_watch;
      for (std::size_t m = 0; m < msgs.size(); ++m)
        sink_old += compute_message_old(aos[m], *msgs[m].src, buf_a, side);
      old_s = std::min(old_s, old_watch.seconds());
      const Stopwatch new_watch;
      for (std::size_t m = 0; m < msgs.size(); ++m)
        sink_new += compute_message_new(*msgs[m].kernel, *msgs[m].src, buf_b,
                                        side);
      new_s = std::min(new_s, new_watch.seconds());
    }
    // Checksum tolerance instead of equality: the timed new path runs in
    // the session's dispatch mode, whose peaks may differ from scalar in
    // the last ulps. (Comparing at all also defeats dead-code elimination.)
    if (std::abs(sink_old - sink_new) >
        1e-9 * std::max(std::abs(sink_old), 1.0)) {
      std::printf("FAIL: peak checksums diverge beyond tolerance\n");
      return EXIT_FAILURE;
    }

    const double per_old = old_s * 1e6 / static_cast<double>(msgs.size());
    const double per_new = new_s * 1e6 / static_cast<double>(msgs.size());
    const double speedup = new_s > 0.0 ? old_s / new_s : 0.0;
    std::printf("B: message stage, %zu messages, fastest of %zu alternating "
                "reps (bit-identical outputs)\n", msgs.size(), reps);
    AsciiTable t({"variant", "ms/round", "us/message", "speedup"});
    t.add_row({"pre-PR stamp replay", AsciiTable::fmt(old_s * 1e3, 2),
               AsciiTable::fmt(per_old, 2), "1.00"});
    t.add_row({"SoA run replay", AsciiTable::fmt(new_s * 1e3, 2),
               AsciiTable::fmt(per_new, 2), AsciiTable::fmt(speedup, 2)});
    t.print(std::cout);
    std::printf("message stage speedup: %.2fx (acceptance target >= 2x)\n\n",
                speedup);
    if (speedup < 2.0) {
      std::printf("FAIL: message stage speedup below 2x\n");
      return EXIT_FAILURE;
    }
  }

  return EXIT_SUCCESS;
}
