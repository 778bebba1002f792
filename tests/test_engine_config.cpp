// The unified engine-config API (core/engine_config.hpp): every shared knob
// round-trips through each engine's config() accessor, and the engine names
// the experiment tables key on are pinned.
#include <gtest/gtest.h>

#include "core/gaussian_bncl.hpp"
#include "core/grid_bncl.hpp"
#include "core/particle_bncl.hpp"
#include "support/version.hpp"

namespace bnloc {
namespace {

RobustnessConfig sample_robustness() {
  RobustnessConfig r;
  r.robust_likelihood = true;
  r.contamination_epsilon = 0.23;
  r.contamination_tail_scale = 2.25;
  r.anchor_vetting = true;
  r.stale_ttl = 7;
  return r;
}

IterationConfig sample_iteration() {
  IterationConfig it;
  it.max_iterations = 33;
  it.convergence_tol = 0.0625;
  return it;
}

void expect_equal(const RobustnessConfig& a, const RobustnessConfig& b) {
  EXPECT_EQ(a.robust_likelihood, b.robust_likelihood);
  EXPECT_EQ(a.contamination_epsilon, b.contamination_epsilon);
  EXPECT_EQ(a.contamination_tail_scale, b.contamination_tail_scale);
  EXPECT_EQ(a.anchor_vetting, b.anchor_vetting);
  EXPECT_EQ(a.stale_ttl, b.stale_ttl);
}

void expect_equal(const IterationConfig& a, const IterationConfig& b) {
  EXPECT_EQ(a.max_iterations, b.max_iterations);
  EXPECT_EQ(a.convergence_tol, b.convergence_tol);
}

TEST(EngineConfig, GridRoundTripsSharedKnobs) {
  GridBnclConfig cfg;
  cfg.iteration = sample_iteration();
  cfg.robustness = sample_robustness();
  cfg.transport.radio.loss = 0.375;
  const GridBncl engine(cfg);
  expect_equal(engine.config().iteration, sample_iteration());
  expect_equal(engine.config().robustness, sample_robustness());
  EXPECT_EQ(engine.config().transport.radio.loss, 0.375);
}

TEST(EngineConfig, ParticleRoundTripsSharedKnobs) {
  ParticleBnclConfig cfg;
  cfg.iteration = sample_iteration();
  cfg.robustness = sample_robustness();
  cfg.transport.radio.loss = 0.375;
  const ParticleBncl engine(cfg);
  expect_equal(engine.config().iteration, sample_iteration());
  expect_equal(engine.config().robustness, sample_robustness());
  EXPECT_EQ(engine.config().transport.radio.loss, 0.375);
}

TEST(EngineConfig, GaussianRoundTripsSharedKnobs) {
  GaussianBnclConfig cfg;
  cfg.iteration = sample_iteration();
  cfg.robustness = sample_robustness();
  cfg.transport.radio.loss = 0.375;
  cfg.huber_k = 2.5;
  const GaussianBncl engine(cfg);
  expect_equal(engine.config().iteration, sample_iteration());
  expect_equal(engine.config().robustness, sample_robustness());
  EXPECT_EQ(engine.config().transport.radio.loss, 0.375);
  EXPECT_EQ(engine.config().huber_k, 2.5);
}

TEST(EngineConfig, GridFastPathKnobsRoundTrip) {
  GridBnclConfig cfg;
  cfg.threads = 3;
  const GridBncl engine(cfg);
  EXPECT_EQ(engine.config().threads, 3u);
}

// The names below key experiment tables, BENCH_*.json lines, and trace
// files; a silent rename would orphan all recorded history.
TEST(EngineConfig, EngineNamesArePinned) {
  EXPECT_EQ(GridBncl().name(), "bncl-grid");
  EXPECT_EQ(ParticleBncl().name(), "bncl-particle");
  EXPECT_EQ(GaussianBncl().name(), "bncl-gauss");

  GridBnclConfig g;
  g.use_negative_evidence = false;
  EXPECT_EQ(GridBncl(g).name(), "bncl-grid-noneg");
  g.robustness.robust_likelihood = true;
  EXPECT_EQ(GridBncl(g).name(), "bncl-grid-noneg-robust");
  g.use_negative_evidence = true;
  EXPECT_EQ(GridBncl(g).name(), "bncl-grid-robust");

  ParticleBnclConfig p;
  p.robustness.robust_likelihood = true;
  EXPECT_EQ(ParticleBncl(p).name(), "bncl-particle-robust");

  GaussianBnclConfig ga;
  ga.robustness.robust_likelihood = true;
  EXPECT_EQ(GaussianBncl(ga).name(), "bncl-gauss-robust");

  GridBnclConfig gs;
  gs.sched.policy = SchedulePolicy::residual;
  EXPECT_EQ(GridBncl(gs).name(), "bncl-grid-sched");
  gs.transport.async = true;
  EXPECT_EQ(GridBncl(gs).name(), "bncl-grid-async-sched");
}

TEST(EngineConfig, SharedDefaultsAreNeutral) {
  const RobustnessConfig r;
  EXPECT_FALSE(r.robust_likelihood);
  EXPECT_FALSE(r.anchor_vetting);
  EXPECT_EQ(r.stale_ttl, 0u);
  EXPECT_EQ(TransportConfig{}.radio.loss, 0.0);
}

TEST(Version, MacroAndFunctionAgree) {
  EXPECT_STREQ(bnloc::version(), BNLOC_VERSION);
  EXPECT_EQ(BNLOC_VERSION_NUMBER,
            BNLOC_VERSION_MAJOR * 10000 + BNLOC_VERSION_MINOR * 100 +
                BNLOC_VERSION_PATCH);
}

}  // namespace
}  // namespace bnloc
