// Integration tests for the three BNCL engines (core/).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/gaussian_bncl.hpp"
#include "core/grid_bncl.hpp"
#include "core/particle_bncl.hpp"
#include "eval/metrics.hpp"
#include "inference/summary_codec.hpp"
#include "obs/telemetry.hpp"
#include "prior/prior.hpp"

namespace bnloc {
namespace {

ScenarioConfig default_config(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.node_count = 120;
  cfg.anchor_fraction = 0.12;
  cfg.deployment.kind = DeploymentKind::grid_jitter;
  cfg.prior_quality = PriorQuality::exact;
  cfg.seed = seed;
  return cfg;
}

class EngineSuite : public ::testing::TestWithParam<int> {
 protected:
  static std::unique_ptr<Localizer> make_engine(int which) {
    switch (which) {
      case 0:
        return std::make_unique<GridBncl>();
      case 1:
        return std::make_unique<ParticleBncl>();
      default:
        return std::make_unique<GaussianBncl>();
    }
  }
};

TEST_P(EngineSuite, LocalizesEveryUnknownReasonably) {
  const Scenario s = build_scenario(default_config(21));
  const auto engine = make_engine(GetParam());
  Rng rng(1);
  const auto r = engine->localize(s, rng);
  const ErrorReport report = evaluate(s, r);
  EXPECT_DOUBLE_EQ(report.coverage, 1.0);
  // With informative priors every engine should be well under half a radio
  // range on average.
  EXPECT_LT(report.summary.mean, 0.5) << engine->name();
}

TEST_P(EngineSuite, DeterministicGivenSeeds) {
  const Scenario s = build_scenario(default_config(22));
  const auto engine = make_engine(GetParam());
  Rng r1(9), r2(9);
  const auto a = engine->localize(s, r1);
  const auto b = engine->localize(s, r2);
  ASSERT_EQ(a.estimates.size(), b.estimates.size());
  for (std::size_t i = 0; i < a.estimates.size(); ++i) {
    ASSERT_EQ(a.estimates[i].has_value(), b.estimates[i].has_value());
    if (a.estimates[i]) {
      EXPECT_DOUBLE_EQ(a.estimates[i]->x, b.estimates[i]->x);
      EXPECT_DOUBLE_EQ(a.estimates[i]->y, b.estimates[i]->y);
    }
  }
}

TEST_P(EngineSuite, AnchorsKeepTheirPositions) {
  const Scenario s = build_scenario(default_config(23));
  const auto engine = make_engine(GetParam());
  Rng rng(2);
  const auto r = engine->localize(s, rng);
  for (std::size_t a : s.anchor_indices())
    EXPECT_EQ(*r.estimates[a], s.true_positions[a]);
}

TEST_P(EngineSuite, ReportsCommunicationAndUncertainty) {
  const Scenario s = build_scenario(default_config(24));
  const auto engine = make_engine(GetParam());
  Rng rng(3);
  const auto r = engine->localize(s, rng);
  EXPECT_GT(r.comm.messages_sent, 0u);
  EXPECT_GT(r.comm.bytes_sent, 0u);
  EXPECT_GT(r.iterations, 0u);
  for (std::size_t i : s.unknown_indices()) {
    ASSERT_TRUE(r.covariances[i].has_value()) << engine->name();
    EXPECT_GE(r.covariances[i]->trace(), 0.0);
  }
}

TEST_P(EngineSuite, PreKnowledgeImprovesAccuracy) {
  ScenarioConfig cfg = default_config(25);
  cfg.node_count = 150;
  cfg.anchor_fraction = 0.06;  // scarce anchors: priors matter most
  cfg.prior_quality = PriorQuality::exact;
  const Scenario with = build_scenario(cfg);
  cfg.prior_quality = PriorQuality::none;
  const Scenario without = build_scenario(cfg);
  const auto engine = make_engine(GetParam());
  Rng r1(4), r2(4);
  const double err_with =
      evaluate(with, engine->localize(with, r1)).summary.mean;
  const double err_without =
      evaluate(without, engine->localize(without, r2)).summary.mean;
  EXPECT_LT(err_with, err_without) << engine->name();
}

TEST_P(EngineSuite, SurvivesPacketLoss) {
  const Scenario s = build_scenario(default_config(26));
  std::unique_ptr<Localizer> engine;
  switch (GetParam()) {
    case 0: {
      GridBnclConfig c;
      c.transport.radio.loss = 0.3;
      engine = std::make_unique<GridBncl>(c);
      break;
    }
    case 1: {
      ParticleBnclConfig c;
      c.transport.radio.loss = 0.3;
      engine = std::make_unique<ParticleBncl>(c);
      break;
    }
    default: {
      GaussianBnclConfig c;
      c.transport.radio.loss = 0.3;
      engine = std::make_unique<GaussianBncl>(c);
      break;
    }
  }
  Rng rng(5);
  const auto r = engine->localize(s, rng);
  const ErrorReport report = evaluate(s, r);
  EXPECT_DOUBLE_EQ(report.coverage, 1.0);
  EXPECT_LT(report.summary.mean, 0.8);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineSuite, ::testing::Values(0, 1, 2),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case 0: return "Grid";
                             case 1: return "Particle";
                             default: return "Gauss";
                           }
                         });

TEST(GridBncl, ChangeTraceShrinks) {
  const Scenario s = build_scenario(default_config(32));
  const GridBncl engine;
  Rng rng(1);
  const auto r = engine.localize(s, rng);
  ASSERT_GE(r.change_per_iteration.size(), 3u);
  // Damped BP: late-iteration change far below the bootstrap change.
  EXPECT_LT(r.change_per_iteration.back(),
            0.5 * r.change_per_iteration.front());
}

TEST(GridBncl, NegativeEvidenceReducesTailError) {
  ScenarioConfig cfg = default_config(33);
  cfg.prior_quality = PriorQuality::none;  // ambiguity-prone setting
  cfg.node_count = 150;
  const Scenario s = build_scenario(cfg);
  GridBnclConfig with_cfg, without_cfg;
  without_cfg.use_negative_evidence = false;
  Rng r1(1), r2(1);
  const auto with = GridBncl(with_cfg).localize(s, r1);
  const auto without = GridBncl(without_cfg).localize(s, r2);
  EXPECT_LT(evaluate(s, with).summary.q90,
            evaluate(s, without).summary.q90);
}

TEST(GridBncl, FinerGridIsMoreAccurate) {
  ScenarioConfig scfg = default_config(35);
  const Scenario s = build_scenario(scfg);
  GridBnclConfig coarse, fine;
  coarse.grid_side = 16;
  fine.grid_side = 64;
  Rng r1(1), r2(1);
  const double e_coarse =
      evaluate(s, GridBncl(coarse).localize(s, r1)).summary.mean;
  const double e_fine =
      evaluate(s, GridBncl(fine).localize(s, r2)).summary.mean;
  EXPECT_LT(e_fine, e_coarse);
}

TEST(GridBncl, NodeParallelUpdateIsBitIdentical) {
  // The per-node parallelism pilot: the Jacobi update is independent across
  // nodes within a round, so any thread count must reproduce the serial
  // beliefs exactly — estimates, covariances, and the convergence trace.
  const Scenario s = build_scenario(default_config(51));
  for (std::size_t threads : {2u, 3u}) {
    GridBnclConfig serial_cfg, par_cfg;
    par_cfg.threads = threads;
    Rng r1(7), r2(7);
    const auto a = GridBncl(serial_cfg).localize(s, r1);
    const auto b = GridBncl(par_cfg).localize(s, r2);
    ASSERT_EQ(a.estimates.size(), b.estimates.size());
    for (std::size_t i = 0; i < a.estimates.size(); ++i) {
      ASSERT_EQ(a.estimates[i].has_value(), b.estimates[i].has_value());
      if (a.estimates[i]) {
        EXPECT_EQ(a.estimates[i]->x, b.estimates[i]->x);
        EXPECT_EQ(a.estimates[i]->y, b.estimates[i]->y);
      }
      ASSERT_EQ(a.covariances[i].has_value(), b.covariances[i].has_value());
      if (a.covariances[i]) {
        EXPECT_EQ(a.covariances[i]->xx, b.covariances[i]->xx);
        EXPECT_EQ(a.covariances[i]->xy, b.covariances[i]->xy);
        EXPECT_EQ(a.covariances[i]->yy, b.covariances[i]->yy);
      }
    }
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.change_per_iteration, b.change_per_iteration);
  }
}

TEST(GridBncl, NodeParallelUpdateSurvivesFaultsAndTtl) {
  // Crashed neighbors + stale-belief TTL exercise the last_heard bookkeeping
  // inside the parallel region.
  ScenarioConfig scfg = default_config(52);
  scfg.faults.crash_fraction = 0.15;
  scfg.faults.outlier_fraction = 0.1;
  const Scenario s = build_scenario(scfg);
  GridBnclConfig serial_cfg, par_cfg;
  serial_cfg.robustness.stale_ttl = 3;
  par_cfg.robustness.stale_ttl = 3;
  par_cfg.threads = 4;
  Rng r1(9), r2(9);
  const auto a = GridBncl(serial_cfg).localize(s, r1);
  const auto b = GridBncl(par_cfg).localize(s, r2);
  ASSERT_EQ(a.estimates.size(), b.estimates.size());
  for (std::size_t i = 0; i < a.estimates.size(); ++i) {
    ASSERT_EQ(a.estimates[i].has_value(), b.estimates[i].has_value());
    if (a.estimates[i]) {
      EXPECT_EQ(a.estimates[i]->x, b.estimates[i]->x);
      EXPECT_EQ(a.estimates[i]->y, b.estimates[i]->y);
    }
  }
  EXPECT_EQ(a.change_per_iteration, b.change_per_iteration);
}

TEST(GridBncl, BayesianCalibrationIsNonTrivial) {
  const Scenario s = build_scenario(default_config(36));
  const GridBncl engine;
  Rng rng(1);
  const auto r = engine.localize(s, rng);
  const double calib = coverage_within_sigma(s, r, 3.0);
  // Loopy BP is overconfident, but a majority of truths must fall inside
  // the reported 3-sigma ellipses for the uncertainty to mean anything.
  EXPECT_GT(calib, 0.5);
}

// The radio charges a grid summary exactly its wire encoding. One round on
// a world where every publish is known in advance: anchors send their
// one-cell delta, and each unknown, its prior uniform over a 9 x 9 block of
// cells, sends all 81 equal-mass cells of it.
TEST(GridBncl, MeteredBytesAreTheEncodedSummaries) {
  Scenario s = build_scenario(default_config(44));
  const GridShape shape{s.field, GridBnclConfig{}.grid_side};
  std::vector<std::uint8_t> wire;
  std::size_t expected = 0;
  for (std::size_t i = 0; i < s.node_count(); ++i) {
    SparseBelief sent;
    if (s.is_anchor[i]) {
      sent.cells = {static_cast<std::uint32_t>(
          shape.cell_at(s.anchor_position(i)))};
      sent.mass = {1.0f};
    } else {
      const std::size_t home = shape.cell_at(s.true_positions[i]);
      const std::size_t cx = std::clamp<std::size_t>(home % shape.side, 4,
                                                     shape.side - 5);
      const std::size_t cy = std::clamp<std::size_t>(home / shape.side, 4,
                                                     shape.side - 5);
      const auto edge = [&](std::size_t x, std::size_t y) {
        return Vec2{s.field.lo.x + static_cast<double>(x) * shape.cell_width(),
                    s.field.lo.y +
                        static_cast<double>(y) * shape.cell_height()};
      };
      s.priors[i] = std::make_shared<UniformPrior>(
          Aabb{edge(cx - 4, cy - 4), edge(cx + 5, cy + 5)});
      for (std::size_t y = cy - 4; y <= cy + 4; ++y)
        for (std::size_t x = cx - 4; x <= cx + 4; ++x) {
          sent.cells.push_back(static_cast<std::uint32_t>(y * shape.side + x));
          sent.mass.push_back(1.0f / 81.0f);
        }
    }
    encode_summary(sent, shape.side, wire);
    expected += wire.size();
  }
  GridBnclConfig cfg;
  cfg.iteration.max_iterations = 1;
  Rng rng(3);
  const auto r = GridBncl(cfg).localize(s, rng);
  EXPECT_EQ(r.comm.messages_sent, s.node_count());
  EXPECT_EQ(r.comm.bytes_sent, expected);
}

// The async reboot relay charges the encoding of the summary it re-sends.
// On an all-anchor network every send — first announcement, heartbeat,
// relay or link-layer retransmission — carries a one-cell summary, so each
// costs that summary's wire size.
TEST(GridBncl, AsyncRelaysMeterTheEncodedSummary) {
  ScenarioConfig sc = default_config(45);
  sc.faults.crash_fraction = 0.3;
  sc.faults.crash_round_min = 2;
  sc.faults.crash_round_max = 6;
  sc.faults.reboot_fraction = 1.0;
  sc.faults.reboot_delay_min = 2;
  sc.faults.reboot_delay_max = 4;
  Scenario s = build_scenario(sc);
  std::fill(s.is_anchor.begin(), s.is_anchor.end(), true);
  GridBnclConfig cfg;
  cfg.transport.async = true;
  cfg.iteration.convergence_tol = 0.0;  // run every round
  obs::Telemetry sink;
  LocalizationResult r;
  {
    const obs::TelemetryScope scope(&sink);
    Rng rng(4);
    r = GridBncl(cfg).localize(s, rng);
  }
  ASSERT_GT(sink.registry.counter("radio.async.relays"), 0u);
  SparseBelief one_cell;
  one_cell.cells = {0};
  one_cell.mass = {1.0f};
  std::vector<std::uint8_t> wire;
  encode_summary(one_cell, GridBnclConfig{}.grid_side, wire);
  EXPECT_EQ(r.comm.bytes_sent,
            (r.comm.messages_sent + r.comm.messages_retried) * wire.size());
}

TEST(ParticleBncl, MoreParticlesHelp) {
  ScenarioConfig scfg = default_config(37);
  scfg.prior_quality = PriorQuality::none;
  const Scenario s = build_scenario(scfg);
  ParticleBnclConfig small, large;
  small.particle_count = 24;
  large.particle_count = 256;
  Rng r1(1), r2(1);
  const double e_small =
      evaluate(s, ParticleBncl(small).localize(s, r1)).summary.mean;
  const double e_large =
      evaluate(s, ParticleBncl(large).localize(s, r2)).summary.mean;
  EXPECT_LT(e_large, e_small);
}

// Per message, a Gaussian summary (five floats) is far smaller than a grid
// summary. Per node the grid engine can send fewer bytes: it falls silent
// once its beliefs settle, while the Gaussian engine publishes every round.
TEST(GaussianBncl, TinyPayloadComparedToGrid) {
  const Scenario s = build_scenario(default_config(38));
  Rng r1(1), r2(1);
  const auto gauss = GaussianBncl().localize(s, r1);
  const auto grid = GridBncl().localize(s, r2);
  const auto per_message = [](const CommStats& c) {
    return static_cast<double>(c.bytes_sent) /
           static_cast<double>(c.messages_sent);
  };
  EXPECT_EQ(per_message(gauss.comm), 20.0);
  EXPECT_LT(per_message(gauss.comm), per_message(grid.comm));
}

TEST(GaussianBncl, ConvergesWithPriors) {
  const Scenario s = build_scenario(default_config(39));
  const GaussianBncl engine;
  Rng rng(1);
  const auto r = engine.localize(s, rng);
  EXPECT_TRUE(r.converged);
}

}  // namespace
}  // namespace bnloc
