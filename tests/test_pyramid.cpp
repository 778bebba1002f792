// Coarse-to-fine pyramid: level planning, mass-conserving upsampling,
// summary translation, and the pyramid engine's contract with the classic
// single-resolution path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "core/grid_bncl.hpp"
#include "eval/metrics.hpp"
#include "inference/pyramid.hpp"
#include "obs/telemetry.hpp"

namespace bnloc {
namespace {

std::vector<double> random_mass(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  std::vector<double> v(n);
  double total = 0.0;
  for (double& x : v) total += (x = dist(gen));
  for (double& x : v) x /= total;
  return v;
}

TEST(PyramidPlan, LaddersAreEvenAscendingAndEndAtFinest) {
  const PyramidPlan two = PyramidPlan::make(48, 2);
  EXPECT_EQ(two.sides, (std::vector<std::size_t>{24, 48}));
  const PyramidPlan three = PyramidPlan::make(96, 3);
  EXPECT_EQ(three.sides, (std::vector<std::size_t>{32, 64, 96}));
  const PyramidPlan one = PyramidPlan::make(48, 1);
  EXPECT_EQ(one.sides, (std::vector<std::size_t>{48}));
  EXPECT_EQ(one.finest(), 48UL);
}

TEST(PyramidPlan, FloorsAtEightAndDeduplicates) {
  // 16/4 = 4 would be below the 8-cell floor; the clamped rungs collapse.
  const PyramidPlan plan = PyramidPlan::make(16, 4);
  EXPECT_EQ(plan.sides, (std::vector<std::size_t>{8, 12, 16}));
  // More levels than the resolution supports quietly yields fewer.
  EXPECT_LT(plan.levels(), 4UL);
}

TEST(PyramidUpsample, BeliefMassIsConservedAtIntegerRatio) {
  const GridShape coarse{Aabb::unit(), 24};
  const GridShape fine{Aabb::unit(), 48};
  const std::vector<double> src = random_mass(coarse.cell_count(), 11);
  std::vector<double> dst(fine.cell_count());
  upsample_belief(coarse, src, fine, dst);
  const double total = std::accumulate(dst.begin(), dst.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(PyramidUpsample, BeliefMassIsConservedAtNonIntegerRatio) {
  // 17 -> 31: no fine cell boundary aligns with a coarse one, so every
  // coarse cell splits fractionally across axes — the hard case for
  // area-overlap bookkeeping.
  const GridShape coarse{Aabb::unit(), 17};
  const GridShape fine{Aabb::unit(), 31};
  const std::vector<double> src = random_mass(coarse.cell_count(), 12);
  std::vector<double> dst(fine.cell_count());
  upsample_belief(coarse, src, fine, dst);
  const double total = std::accumulate(dst.begin(), dst.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-12);
  for (const double v : dst) EXPECT_GE(v, 0.0);
}

TEST(PyramidUpsample, DeltaSpreadsOnlyOverOverlappingFineCells) {
  const GridShape coarse{Aabb::unit(), 16};
  const GridShape fine{Aabb::unit(), 32};  // exact 2x: one cell -> 4 cells
  std::vector<double> src(coarse.cell_count(), 0.0);
  const std::size_t cx = 5, cy = 7;
  src[cy * 16 + cx] = 1.0;
  std::vector<double> dst(fine.cell_count());
  upsample_belief(coarse, src, fine, dst);
  double covered = 0.0;
  for (std::size_t y = 0; y < 32; ++y)
    for (std::size_t x = 0; x < 32; ++x) {
      const double v = dst[y * 32 + x];
      if (x / 2 == cx && y / 2 == cy) {
        EXPECT_NEAR(v, 0.25, 1e-12);
        covered += v;
      } else {
        EXPECT_EQ(v, 0.0);
      }
    }
  EXPECT_NEAR(covered, 1.0, 1e-12);
}

TEST(PyramidUpsample, SummaryTranslationKeepsOrderBoundsAndMass) {
  const GridShape coarse{Aabb::unit(), 24};
  const GridShape fine{Aabb::unit(), 48};
  SparseBelief src;
  src.cells = {100, 205, 33, 571};
  src.mass = {0.5f, 0.3f, 0.15f, 0.05f};
  src.covered_fraction = 0.99;
  const SparseBelief out = upsample_summary(coarse, fine, src);
  ASSERT_FALSE(out.empty());
  double total = 0.0;
  for (std::size_t e = 0; e < out.size(); ++e) {
    EXPECT_LT(out.cells[e], fine.cell_count());
    if (e > 0) {
      EXPECT_GE(out.mass[e - 1], out.mass[e]);  // descending
    }
    total += out.mass[e];
  }
  EXPECT_NEAR(total, 1.0, 1e-5);  // float payload masses, renormalized
  EXPECT_DOUBLE_EQ(out.covered_fraction, src.covered_fraction);
}

ScenarioConfig engine_config(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.node_count = 120;
  cfg.anchor_fraction = 0.12;
  cfg.deployment.kind = DeploymentKind::grid_jitter;
  cfg.prior_quality = PriorQuality::exact;
  cfg.seed = seed;
  return cfg;
}

TEST(PyramidEngine, MatchesSingleLevelAccuracyClosely) {
  const Scenario s = build_scenario(engine_config(41));
  GridBnclConfig single;
  GridBnclConfig pyr;
  pyr.pyramid_levels = 2;
  Rng r1(5), r2(5);
  const auto base = GridBncl(single).localize(s, r1);
  const auto fast = GridBncl(pyr).localize(s, r2);
  const ErrorReport base_report = evaluate(s, base);
  const ErrorReport fast_report = evaluate(s, fast);
  EXPECT_DOUBLE_EQ(fast_report.coverage, 1.0);
  // The bench gate (bench_p2_pyramid) enforces the 1 % aggregate bound over
  // many trials; a single scenario draw gets a little slack.
  EXPECT_LE(fast_report.summary.mean, base_report.summary.mean * 1.05);
}

TEST(PyramidEngine, DeterministicGivenSeeds) {
  const Scenario s = build_scenario(engine_config(42));
  GridBnclConfig cfg;
  cfg.pyramid_levels = 3;
  const GridBncl engine(cfg);
  Rng r1(9), r2(9);
  const auto a = engine.localize(s, r1);
  const auto b = engine.localize(s, r2);
  ASSERT_EQ(a.estimates.size(), b.estimates.size());
  for (std::size_t i = 0; i < a.estimates.size(); ++i) {
    ASSERT_EQ(a.estimates[i].has_value(), b.estimates[i].has_value());
    if (!a.estimates[i].has_value()) continue;
    EXPECT_EQ(a.estimates[i]->x, b.estimates[i]->x);
    EXPECT_EQ(a.estimates[i]->y, b.estimates[i]->y);
  }
}

// The engine has one ROI rule per level kind: every run's first level
// bounds each unknown by its prior's support, whatever the pyramid depth. A
// single-level run at side 24 therefore reports exactly the level-0 ROI of
// a two-level run at side 48 (whose coarse rung is side 24); exact priors
// rule out most of the grid, and a flat prior keeps all of it.
TEST(PyramidEngine, FirstLevelRoiIsThePriorSupportAtAnyDepth) {
  const auto l0_roi_cells = [](const Scenario& s, std::size_t side,
                               std::size_t levels) {
    GridBnclConfig cfg;
    cfg.grid_side = side;
    cfg.pyramid_levels = levels;
    obs::Telemetry sink;
    Rng rng(7);
    {
      const obs::TelemetryScope scope(&sink);
      (void)GridBncl(cfg).localize(s, rng);
    }
    return sink.registry.counter("grid.pyramid.l0.roi_cells");
  };
  for (const PriorQuality quality : {PriorQuality::exact, PriorQuality::none}) {
    SCOPED_TRACE(quality == PriorQuality::exact ? "exact" : "none");
    ScenarioConfig scfg;
    scfg.node_count = 60;
    scfg.anchor_fraction = 0.1;
    scfg.deployment.kind = DeploymentKind::line_drop;
    scfg.anchor_placement = AnchorPlacement::random;
    scfg.radio = make_radio(0.12, RangingType::log_normal, 0.10);
    scfg.prior_quality = quality;
    scfg.seed = 23;
    const Scenario s = build_scenario(scfg);
    std::uint64_t unknowns = 0;
    for (std::size_t i = 0; i < s.node_count(); ++i)
      if (!s.is_anchor[i]) ++unknowns;
    const std::uint64_t full_grid = unknowns * 24 * 24;

    const std::uint64_t single = l0_roi_cells(s, 24, 1);
    EXPECT_EQ(single, l0_roi_cells(s, 48, 2));
    if (quality == PriorQuality::exact) {
      EXPECT_GT(single, 0u);
      EXPECT_LT(single, full_grid);
    } else {
      EXPECT_EQ(single, full_grid);
    }
  }
}

// The residual policy's message cache is ROI-packed at every level: a link
// slot holds its last message's support box inside the receiver's ROI,
// never a dense side² grid. On a 200-node line-drop world at grid 96 with
// two levels, that bounds the cache by the largest in-degree times the
// levels' ROI cells, well under what dense slots would need. Round-robin,
// holding no cache, reports exactly its four belief stores per level.
// Negative evidence is off, so no run holds a map. The policies walk
// different level-1 ROIs: each run's fine ROI is its own coarse belief's
// support.
TEST(PyramidEngine, ResidualMessageCacheIsRoiPackedAtEveryLevel) {
  ScenarioConfig scfg;
  scfg.node_count = 200;
  scfg.anchor_fraction = 0.08;
  scfg.deployment.kind = DeploymentKind::line_drop;
  scfg.anchor_placement = AnchorPlacement::random;
  scfg.radio = make_radio(0.12, RangingType::log_normal, 0.10);
  scfg.prior_quality = PriorQuality::exact;
  scfg.seed = 17;
  const Scenario s = build_scenario(scfg);
  // Returns the run's grid state, and its ROI cells; a store holds each
  // unknown's box and one cell per anchor, at each of the two levels.
  struct State {
    std::uint64_t bytes, roi_cells, store_bytes, msgs_reused;
  };
  const auto run = [&](SchedulePolicy policy) {
    GridBnclConfig cfg;
    cfg.grid_side = 96;
    cfg.pyramid_levels = 2;
    cfg.use_negative_evidence = false;
    cfg.sched.policy = policy;
    obs::Telemetry sink;
    sink.trace_enabled = false;
    Rng rng(3);
    {
      const obs::TelemetryScope scope(&sink);
      (void)GridBncl(cfg).localize(s, rng);
    }
    const std::uint64_t roi = sink.registry.counter("grid.pyramid.roi_cells");
    return State{sink.registry.counter("grid.state_bytes"), roi,
                 (roi + 2 * s.anchor_count()) * sizeof(double),
                 sink.registry.counter("grid.messages.reused")};
  };

  const State rr = run(SchedulePolicy::round_robin);
  EXPECT_EQ(rr.bytes, 4 * rr.store_bytes);
  EXPECT_EQ(rr.msgs_reused, 0u);

  std::uint64_t links = 0, max_degree = 0;
  for (const std::size_t i : s.unknown_indices()) {
    links += s.graph.degree(i);
    max_degree = std::max<std::uint64_t>(max_degree, s.graph.degree(i));
  }
  const State rs = run(SchedulePolicy::residual);
  const std::uint64_t packed_bound =
      max_degree * rs.roi_cells * sizeof(double);
  const std::uint64_t dense_bytes =
      links * (48 * 48 + 96 * 96) * sizeof(double);
  EXPECT_LT(packed_bound, dense_bytes);
  EXPECT_GT(rs.msgs_reused, 0u);
  ASSERT_GT(rs.bytes, 5 * rs.store_bytes);
  EXPECT_LE(rs.bytes - 5 * rs.store_bytes, packed_bound);
}

TEST(PyramidEngine, RejectsZeroLevels) {
  GridBnclConfig cfg;
  cfg.pyramid_levels = 0;
  EXPECT_DEATH((void)GridBncl(cfg), "pyramid");
}

}  // namespace
}  // namespace bnloc
