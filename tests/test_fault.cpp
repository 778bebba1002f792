// Unit tests for the fault-injection layer (src/fault/) and the robust
// countermeasures it exercises.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/gaussian_bncl.hpp"
#include "core/grid_bncl.hpp"
#include "deploy/scenario.hpp"
#include "eval/metrics.hpp"
#include "fault/anchor_vetting.hpp"
#include "radio/ranging.hpp"

namespace bnloc {
namespace {

ScenarioConfig base_config() {
  ScenarioConfig cfg;
  cfg.node_count = 150;
  cfg.anchor_fraction = 0.2;
  cfg.seed = 42;
  return cfg;
}

/// CSR slot offsets for indexing FaultLabels::link_outlier.
std::vector<std::size_t> slot_offsets(const Graph& g) {
  std::vector<std::size_t> off(g.node_count() + 1, 0);
  for (std::size_t v = 0; v < g.node_count(); ++v)
    off[v + 1] = off[v] + g.degree(v);
  return off;
}

TEST(FaultInjector, ZeroSpecIsNoOp) {
  ScenarioConfig plain = base_config();
  ScenarioConfig zero = base_config();
  zero.faults = FaultSpec{};
  zero.faults.seed = 999;  // seed alone must not enable anything
  const Scenario a = build_scenario(plain);
  const Scenario b = build_scenario(zero);
  EXPECT_FALSE(b.faults.active);
  EXPECT_TRUE(b.faults.link_outlier.empty());
  ASSERT_EQ(a.graph.edge_count(), b.graph.edge_count());
  for (std::size_t i = 0; i < a.node_count(); ++i) {
    EXPECT_EQ(b.reported_positions[i], b.true_positions[i]);
    const auto na = a.graph.neighbors(i);
    const auto nb = b.graph.neighbors(i);
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t k = 0; k < na.size(); ++k)
      EXPECT_DOUBLE_EQ(na[k].weight, nb[k].weight);
  }
}

TEST(FaultInjector, LabelsAreDeterministic) {
  ScenarioConfig cfg = base_config();
  cfg.faults.outlier_fraction = 0.2;
  cfg.faults.faulty_anchor_fraction = 0.3;
  cfg.faults.crash_fraction = 0.2;
  cfg.faults.reboot_fraction = 0.5;
  cfg.faults.seed = 7;
  const Scenario a = build_scenario(cfg);
  const Scenario b = build_scenario(cfg);
  EXPECT_EQ(a.faults.link_outlier, b.faults.link_outlier);
  EXPECT_EQ(a.faults.anchor_faulty, b.faults.anchor_faulty);
  EXPECT_EQ(a.faults.death_round, b.faults.death_round);
  ASSERT_FALSE(a.faults.reboot_round.empty());
  EXPECT_EQ(a.faults.reboot_round, b.faults.reboot_round);
  for (std::size_t i = 0; i < a.node_count(); ++i) {
    EXPECT_EQ(a.reported_positions[i], b.reported_positions[i]);
    const auto na = a.graph.neighbors(i);
    const auto nb = b.graph.neighbors(i);
    for (std::size_t k = 0; k < na.size(); ++k)
      EXPECT_DOUBLE_EQ(na[k].weight, nb[k].weight);
  }
}

TEST(FaultInjector, FaultSeedChangesDraws) {
  ScenarioConfig cfg = base_config();
  cfg.faults.outlier_fraction = 0.2;
  cfg.faults.seed = 1;
  const Scenario a = build_scenario(cfg);
  cfg.faults.seed = 2;
  const Scenario b = build_scenario(cfg);
  EXPECT_NE(a.faults.link_outlier, b.faults.link_outlier);
}

TEST(FaultInjector, RebootScheduleFollowsCrashSchedule) {
  ScenarioConfig cfg = base_config();
  cfg.faults.crash_fraction = 0.3;
  cfg.faults.reboot_fraction = 1.0;
  cfg.faults.reboot_delay_min = 4;
  cfg.faults.reboot_delay_max = 12;
  const Scenario s = build_scenario(cfg);
  ASSERT_EQ(s.faults.reboot_round.size(), s.node_count());
  std::size_t rebooters = 0;
  for (std::size_t i = 0; i < s.node_count(); ++i) {
    if (s.faults.death_round[i] == kNeverCrashes) {
      // A node that never crashes never reboots.
      EXPECT_EQ(s.faults.reboot_round[i], kNeverCrashes);
      continue;
    }
    ASSERT_NE(s.faults.reboot_round[i], kNeverCrashes);
    const std::size_t delay =
        s.faults.reboot_round[i] - s.faults.death_round[i];
    EXPECT_GE(delay, cfg.faults.reboot_delay_min);
    EXPECT_LE(delay, cfg.faults.reboot_delay_max);
    ++rebooters;
  }
  EXPECT_GT(rebooters, 0u);
}

TEST(FaultInjector, ZeroRebootFractionKeepsCrashOnlyScenariosIdentical) {
  // reboot_fraction = 0 must consume no draws: the crash-only scenario is
  // bit-identical to one built before the reboot knob existed.
  ScenarioConfig cfg = base_config();
  cfg.faults.crash_fraction = 0.25;
  const Scenario a = build_scenario(cfg);
  cfg.faults.reboot_fraction = 0.0;  // explicit, same meaning
  const Scenario b = build_scenario(cfg);
  EXPECT_TRUE(a.faults.reboot_round.empty());
  EXPECT_EQ(a.faults.death_round, b.faults.death_round);
}

TEST(FaultInjector, PartialRebootFractionLeavesSomeNodesDead) {
  ScenarioConfig cfg = base_config();
  cfg.faults.crash_fraction = 0.5;
  cfg.faults.reboot_fraction = 0.5;
  const Scenario s = build_scenario(cfg);
  std::size_t back = 0, stay_dead = 0;
  for (std::size_t i = 0; i < s.node_count(); ++i) {
    if (s.faults.death_round[i] == kNeverCrashes) continue;
    if (s.faults.reboot_round[i] == kNeverCrashes)
      ++stay_dead;
    else
      ++back;
  }
  EXPECT_GT(back, 0u);
  EXPECT_GT(stay_dead, 0u);
}

TEST(FaultInjector, OutliersArePositivelyBiasedAndLabeled) {
  ScenarioConfig cfg = base_config();
  const Scenario clean = build_scenario(cfg);
  cfg.faults.outlier_fraction = 0.3;
  const Scenario dirty = build_scenario(cfg);
  ASSERT_TRUE(dirty.faults.active);
  const auto off = slot_offsets(dirty.graph);
  std::size_t outliers = 0, links = 0;
  for (std::size_t u = 0; u < dirty.node_count(); ++u) {
    const auto nc = clean.graph.neighbors(u);
    const auto nd = dirty.graph.neighbors(u);
    ASSERT_EQ(nc.size(), nd.size());  // contamination keeps the topology
    for (std::size_t k = 0; k < nd.size(); ++k) {
      ++links;
      const double true_dist = distance(dirty.true_positions[u],
                                        dirty.true_positions[nd[k].node]);
      if (dirty.faults.link_outlier[off[u] + k]) {
        ++outliers;
        // NLOS bounce path: measurement exceeds the true distance.
        EXPECT_GE(nd[k].weight, true_dist);
      } else {
        EXPECT_DOUBLE_EQ(nd[k].weight, nc[k].weight);
      }
    }
  }
  EXPECT_EQ(outliers, 2 * dirty.faults.outlier_link_count());
  const double rate =
      static_cast<double>(outliers) / static_cast<double>(links);
  EXPECT_NEAR(rate, 0.3, 0.08);
}

TEST(FaultInjector, FaultFamiliesAreIndependent) {
  // Enabling crashes must not perturb the link measurements or anchors.
  ScenarioConfig cfg = base_config();
  const Scenario clean = build_scenario(cfg);
  cfg.faults.crash_fraction = 0.5;
  const Scenario crashed = build_scenario(cfg);
  EXPECT_GT(crashed.faults.crashed_count(), 0u);
  EXPECT_EQ(crashed.faults.faulty_anchor_count(), 0u);
  EXPECT_EQ(crashed.faults.outlier_link_count(), 0u);
  for (std::size_t i = 0; i < clean.node_count(); ++i) {
    EXPECT_EQ(crashed.reported_positions[i], crashed.true_positions[i]);
    const auto na = clean.graph.neighbors(i);
    const auto nb = crashed.graph.neighbors(i);
    for (std::size_t k = 0; k < na.size(); ++k)
      EXPECT_DOUBLE_EQ(na[k].weight, nb[k].weight);
  }
  for (std::size_t d : crashed.faults.death_round)
    if (d != kNeverCrashes) {
      EXPECT_GE(d, cfg.faults.crash_round_min);
      EXPECT_LE(d, cfg.faults.crash_round_max);
    }
}

TEST(FaultInjector, DriftMovesOnlyFaultyAnchors) {
  ScenarioConfig cfg = base_config();
  cfg.faults.faulty_anchor_fraction = 0.5;
  const Scenario s = build_scenario(cfg);
  std::size_t faulty = 0;
  for (std::size_t i = 0; i < s.node_count(); ++i) {
    if (!s.is_anchor[i]) {
      EXPECT_FALSE(s.faults.anchor_faulty[i]);
      EXPECT_EQ(s.reported_positions[i], s.true_positions[i]);
      continue;
    }
    if (s.faults.anchor_faulty[i]) {
      ++faulty;
      EXPECT_GT(distance(s.reported_positions[i], s.true_positions[i]), 0.0);
      EXPECT_TRUE(s.field.contains(s.reported_positions[i]));
    } else {
      EXPECT_EQ(s.reported_positions[i], s.true_positions[i]);
    }
  }
  EXPECT_EQ(faulty, static_cast<std::size_t>(
                        std::round(0.5 * static_cast<double>(
                                             s.anchor_count()))));
}

TEST(Contamination, LikelihoodIsAPdfInMeasurement) {
  for (const RangingType type :
       {RangingType::gaussian, RangingType::log_normal}) {
    RangingSpec spec;
    spec.type = type;
    spec.noise_factor = 0.1;
    spec.range = 0.15;
    const RangingSpec robust = spec.contaminated(0.2, 1.5);
    const double d = 0.1;
    const double dm = 1e-5;
    double mass_plain = 0.0, mass_robust = 0.0;
    for (double m = dm; m < 2.0; m += dm) {
      mass_plain += spec.likelihood(m, d) * dm;
      mass_robust += robust.likelihood(m, d) * dm;
    }
    EXPECT_NEAR(mass_plain, 1.0, 0.02);
    EXPECT_NEAR(mass_robust, 1.0, 0.02);
  }
}

TEST(Contamination, TailExplainsLongMeasurements) {
  RangingSpec spec;
  spec.type = RangingType::gaussian;
  spec.noise_factor = 0.1;
  spec.range = 0.15;
  const RangingSpec robust = spec.contaminated(0.1, 1.5);
  const double d = 0.1;
  const double far = d + 8.0 * spec.sigma_at(d);  // way past the gaussian
  EXPECT_GT(robust.likelihood(far, d), 100.0 * spec.likelihood(far, d));
  // Short measurements keep (1-eps) of the nominal mass, no tail below d.
  EXPECT_NEAR(robust.likelihood(d - 0.01, d), 0.9 * spec.likelihood(d - 0.01, d),
              1e-12);
  // Epsilon zero reproduces the nominal likelihood exactly.
  EXPECT_DOUBLE_EQ(spec.contaminated(0.0, 1.5).likelihood(far, d),
                   spec.likelihood(far, d));
}

TEST(AnchorVetting, FlagsDriftedAnchorsWithUsefulPrecision) {
  ScenarioConfig cfg = base_config();
  cfg.node_count = 200;
  cfg.anchor_fraction = 0.25;
  cfg.faults.faulty_anchor_fraction = 0.3;
  DetectionReport total;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    cfg.seed = 100 + seed;
    const Scenario s = build_scenario(cfg);
    const AnchorVetReport vet = vet_anchors(s);
    const DetectionReport one = score_anchor_detection(s, vet.flagged);
    total.true_positives += one.true_positives;
    total.false_positives += one.false_positives;
    total.false_negatives += one.false_negatives;
  }
  EXPECT_GE(total.precision(), 0.8);
  EXPECT_GE(total.recall(), 0.5);
}

TEST(AnchorVetting, QuietOnCleanScenarios) {
  ScenarioConfig cfg = base_config();
  const Scenario s = build_scenario(cfg);
  const AnchorVetReport vet = vet_anchors(s);
  EXPECT_EQ(vet.flagged_count(), 0u);
}

TEST(FaultMetrics, DetectionReportEdgeCases) {
  const DetectionReport empty;
  EXPECT_DOUBLE_EQ(empty.precision(), 1.0);
  EXPECT_DOUBLE_EQ(empty.recall(), 1.0);
  DetectionReport mixed;
  mixed.true_positives = 3;
  mixed.false_positives = 1;
  mixed.false_negatives = 2;
  EXPECT_DOUBLE_EQ(mixed.precision(), 0.75);
  EXPECT_DOUBLE_EQ(mixed.recall(), 0.6);
}

TEST(RobustEngines, RunOnFullyFaultedScenario) {
  ScenarioConfig cfg = base_config();
  cfg.node_count = 80;
  cfg.faults.outlier_fraction = 0.2;
  cfg.faults.faulty_anchor_fraction = 0.2;
  cfg.faults.crash_fraction = 0.2;
  const Scenario s = build_scenario(cfg);

  GridBnclConfig gc;
  gc.robustness.robust_likelihood = true;
  gc.robustness.anchor_vetting = true;
  gc.robustness.stale_ttl = 3;
  Rng grid_rng(5);
  const LocalizationResult grid = GridBncl(gc).localize(s, grid_rng);

  GaussianBnclConfig xc;
  xc.robustness.robust_likelihood = true;
  xc.robustness.anchor_vetting = true;
  xc.robustness.stale_ttl = 3;
  Rng gauss_rng(5);
  const LocalizationResult gauss = GaussianBncl(xc).localize(s, gauss_rng);

  for (std::size_t i = 0; i < s.node_count(); ++i) {
    if (s.is_anchor[i]) continue;
    ASSERT_TRUE(grid.estimates[i].has_value());
    ASSERT_TRUE(gauss.estimates[i].has_value());
    EXPECT_TRUE(std::isfinite(grid.estimates[i]->x));
    EXPECT_TRUE(std::isfinite(gauss.estimates[i]->x));
    EXPECT_TRUE(s.field.contains(*grid.estimates[i]));
  }
}

}  // namespace
}  // namespace bnloc
