// Residual-prioritized message scheduling (ROADMAP item 1): unit tests for
// the scheduler's ranking/budget/starvation mechanics, plus integration
// tests pinning the grid engine's contracts under the residual policy —
// bit-identical replay at any thread count (sync and async), accuracy
// parity with round-robin under the PR 1 fault specs, and the interaction
// with the robustness ladder (deferral is engine-internal bookkeeping, so
// a quiet-by-deferral link must never trip stale-TTL or a quorum hold).
#include "inference/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/grid_bncl.hpp"
#include "eval/metrics.hpp"
#include "obs/telemetry.hpp"

namespace bnloc {
namespace {

ScheduleConfig sched_config(double frac, std::size_t starvation) {
  ScheduleConfig sc;
  sc.policy = SchedulePolicy::residual;
  sc.link_budget_frac = frac;
  sc.starvation_rounds = starvation;
  return sc;
}

// --- Scheduler mechanics --------------------------------------------------

TEST(ResidualScheduler, BudgetIsACeilingWithAtLeastOneGrant) {
  ResidualScheduler s(sched_config(0.5, 4), 16, 16);
  s.begin_round();
  for (std::uint32_t k = 0; k < 5; ++k) s.add_candidate(0, k, 1.0);
  s.commit_round();
  // ceil(0.5 * 5) = 3 grants, 2 deferrals.
  EXPECT_EQ(s.round_stats().processed, 3u);
  EXPECT_EQ(s.round_stats().deferred, 2u);

  // A lone candidate is always granted, however tight the budget.
  ResidualScheduler tight(sched_config(0.05, 4), 16, 16);
  tight.begin_round();
  tight.add_candidate(0, 3, 1e-9);
  tight.commit_round();
  EXPECT_FALSE(tight.deferred(3));
  EXPECT_EQ(tight.round_stats().processed, 1u);
}

TEST(ResidualScheduler, HighestResidualWinsRegardlessOfScanOrder) {
  // 3 candidates -> budget 2
  ResidualScheduler s(sched_config(0.34, 4), 16, 16);
  s.begin_round();
  s.add_candidate(0, 0, 0.2);  // scan order must not matter
  s.add_candidate(1, 1, 0.9);
  s.add_candidate(2, 2, 0.5);
  s.commit_round();
  EXPECT_TRUE(s.deferred(0));
  EXPECT_FALSE(s.deferred(1));
  EXPECT_FALSE(s.deferred(2));
}

TEST(ResidualScheduler, TiesBreakOnNodeThenSlot) {
  // Equal residuals: the total order falls back to (node asc, slot asc), so
  // the grant set is a pure function of the candidates — no float-tie
  // nondeterminism. 4 candidates -> budget 1.
  ResidualScheduler s(sched_config(0.25, 4), 16, 16);
  s.begin_round();
  s.add_candidate(7, 11, 0.5);
  s.add_candidate(3, 9, 0.5);
  s.add_candidate(3, 4, 0.5);
  s.add_candidate(9, 1, 0.5);
  s.commit_round();
  EXPECT_FALSE(s.deferred(4));  // node 3, slot 4 ranks first
  EXPECT_TRUE(s.deferred(9));
  EXPECT_TRUE(s.deferred(11));
  EXPECT_TRUE(s.deferred(1));
}

TEST(ResidualScheduler, StarvationFloorBoundsConsecutiveDeferrals) {
  // Two candidates, budget 1: the low-residual slot loses every round until
  // the floor promotes it. With starvation_rounds = 2 it may be deferred in
  // exactly two consecutive rounds, then must be granted.
  ResidualScheduler s(sched_config(0.5, 2), 16, 16);
  for (int round = 0; round < 2; ++round) {
    s.begin_round();
    s.add_candidate(0, 0, 0.9);
    s.add_candidate(1, 1, 0.1);
    s.commit_round();
    EXPECT_FALSE(s.deferred(0));
    EXPECT_TRUE(s.deferred(1)) << "round " << round;
    EXPECT_EQ(s.round_stats().promotions, 0u);
  }
  s.begin_round();
  s.add_candidate(0, 0, 0.9);
  s.add_candidate(1, 1, 0.1);
  s.commit_round();
  EXPECT_FALSE(s.deferred(1)) << "floor exhausted: must be promoted";
  EXPECT_EQ(s.round_stats().promotions, 1u);
  EXPECT_EQ(s.round_stats().processed, 2u);
  EXPECT_EQ(s.round_stats().deferred, 0u);

  // The grant reset the streak: the next deferral cycle starts from zero.
  s.begin_round();
  s.add_candidate(0, 0, 0.9);
  s.add_candidate(1, 1, 0.1);
  s.commit_round();
  EXPECT_TRUE(s.deferred(1));
  EXPECT_EQ(s.round_stats().promotions, 0u);
}

TEST(ResidualScheduler, BeginRoundClearsLastRoundsDeferrals) {
  ResidualScheduler s(sched_config(0.5, 4), 16, 16);
  s.begin_round();
  s.add_candidate(0, 0, 0.9);
  s.add_candidate(1, 1, 0.1);
  s.commit_round();
  ASSERT_TRUE(s.deferred(1));
  // Slot 1's sender went quiet: it is not a candidate this round, and the
  // stale defer bit must not leak into the new round's decisions.
  s.begin_round();
  s.commit_round();
  EXPECT_FALSE(s.deferred(1));
  EXPECT_EQ(s.round_stats().deferred, 0u);
}

TEST(ResidualScheduler, ResetSlotClearsStarvationDebt) {
  ResidualScheduler s(sched_config(0.5, 3), 16, 16);
  for (int round = 0; round < 2; ++round) {
    s.begin_round();
    s.add_candidate(0, 0, 0.9);
    s.add_candidate(1, 1, 0.1);
    s.commit_round();
    ASSERT_TRUE(s.deferred(1));
  }
  s.reset_slot(1);  // receiver rebooted: its schedule state is gone
  // The full floor applies again — three more deferrals before promotion.
  for (int round = 0; round < 3; ++round) {
    s.begin_round();
    s.add_candidate(0, 0, 0.9);
    s.add_candidate(1, 1, 0.1);
    s.commit_round();
    EXPECT_TRUE(s.deferred(1)) << "round " << round;
    EXPECT_EQ(s.round_stats().promotions, 0u);
  }
  s.begin_round();
  s.add_candidate(0, 0, 0.9);
  s.add_candidate(1, 1, 0.1);
  s.commit_round();
  EXPECT_FALSE(s.deferred(1));
  EXPECT_EQ(s.round_stats().promotions, 1u);
}

TEST(ResidualScheduler, LedgerCountsSkippedVersionsInThePendingSum) {
  // An async receiver can skip versions: a slot that integrated node 0's
  // first publish and next sees its third still owes the second's residual.
  ResidualScheduler s(sched_config(0.5, 4), 2, 2);
  s.stage_publish(0, 0.25);
  s.commit_publish(0, 1);
  s.stage_publish(1, 0.5);  // another sender's publish interleaves
  s.commit_publish(1, 2);
  s.stage_publish(0, 0.5);
  s.commit_publish(0, 3);
  s.stage_publish(0, 0.125);
  s.commit_publish(0, 4);

  s.integrate(0, 1);
  EXPECT_EQ(s.pending(0, 4), 0.625);  // versions 3 and 4; 3 was skipped
  EXPECT_EQ(s.pending(0, 3), 0.5);
  s.integrate(0, 4);
  EXPECT_EQ(s.pending(0, 4), 0.0);
  // A slot that never integrated owes the sender's whole history.
  EXPECT_EQ(s.pending(1, 4), 0.875);
}

// --- Grid-engine integration ----------------------------------------------

ScenarioConfig scenario_config(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.node_count = 120;
  cfg.anchor_fraction = 0.12;
  cfg.deployment.kind = DeploymentKind::grid_jitter;
  cfg.prior_quality = PriorQuality::exact;
  cfg.seed = seed;
  return cfg;
}

GridBnclConfig residual_config() {
  GridBnclConfig gc;
  gc.sched.policy = SchedulePolicy::residual;
  return gc;
}

void expect_identical_runs(const LocalizationResult& a,
                           const LocalizationResult& b) {
  ASSERT_EQ(a.estimates.size(), b.estimates.size());
  for (std::size_t i = 0; i < a.estimates.size(); ++i) {
    ASSERT_EQ(a.estimates[i].has_value(), b.estimates[i].has_value());
    if (a.estimates[i]) {
      EXPECT_EQ(a.estimates[i]->x, b.estimates[i]->x);
      EXPECT_EQ(a.estimates[i]->y, b.estimates[i]->y);
    }
  }
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.change_per_iteration, b.change_per_iteration);
}

TEST(GridBnclSched, ResidualPolicyIsBitIdenticalAcrossThreads) {
  // The schedule is decided by a serial scan over per-round pure reads and
  // published as a bitmap the parallel update only reads — so any thread
  // count must reproduce the serial run exactly, deferrals and all.
  const Scenario s = build_scenario(scenario_config(61));
  GridBnclConfig serial_cfg = residual_config();
  GridBnclConfig par_cfg = residual_config();
  par_cfg.threads = 4;
  Rng r1(7), r2(7);
  const auto a = GridBncl(serial_cfg).localize(s, r1);
  const auto b = GridBncl(par_cfg).localize(s, r2);
  expect_identical_runs(a, b);
}

TEST(GridBnclSched, AsyncReplayIsBitIdenticalAcrossThreads) {
  // Under the async transport the contract is sharper: the thread count
  // must not change which packets exist or their order — the event-history
  // hashes of the two runs must match, not just the estimates.
  const Scenario s = build_scenario(scenario_config(62));
  GridBnclConfig gc = residual_config();
  gc.transport.async = true;
  gc.transport.radio.loss = 0.1;
  gc.transport.radio.latency = 0.25;
  GridBnclConfig gc4 = gc;
  gc4.threads = 4;
  Rng r1(11), r2(11);
  const auto a = GridBncl(gc).localize(s, r1);
  const auto b = GridBncl(gc4).localize(s, r2);
  ASSERT_NE(a.transport_hash, 0u);
  EXPECT_EQ(a.transport_hash, b.transport_hash);
  expect_identical_runs(a, b);
}

// The residual policy owns the message and product caches; round-robin
// recomputes every input every round. With the whole budget
// (`link_budget_frac = 1`) the policy defers nothing, so its caches only
// replay what round-robin recomputes: every replayed message and product
// must reproduce round-robin's run bit for bit, across loss, threads, the
// pyramid, both transports and the robustness ladder, while round-robin
// reuses nothing.
TEST(GridBnclSched, FullBudgetMatchesRoundRobinBitForBit) {
  const auto run = [](const Scenario& s, GridBnclConfig cfg,
                      SchedulePolicy policy, obs::Telemetry& sink) {
    cfg.sched.policy = policy;
    cfg.sched.link_budget_frac = 1.0;
    sink.trace_enabled = false;
    const obs::TelemetryScope scope(&sink);
    Rng rng(9);
    return GridBncl(cfg).localize(s, rng);
  };
  // `settles`: the run goes quiet enough that whole receivers stop
  // changing, so products replay too. Under loss a dropped delivery changes
  // some input of nearly every receiver every round, and none do.
  const auto expect_same = [&](const Scenario& s, const GridBnclConfig& cfg,
                               bool settles = true) {
    obs::Telemetry rr_sink, rs_sink;
    const LocalizationResult rr =
        run(s, cfg, SchedulePolicy::round_robin, rr_sink);
    const LocalizationResult rs =
        run(s, cfg, SchedulePolicy::residual, rs_sink);
    ASSERT_EQ(rr.estimates.size(), rs.estimates.size());
    for (std::size_t i = 0; i < rr.estimates.size(); ++i) {
      ASSERT_EQ(rr.estimates[i].has_value(), rs.estimates[i].has_value());
      if (!rr.estimates[i]) continue;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(rr.estimates[i]->x),
                std::bit_cast<std::uint64_t>(rs.estimates[i]->x));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(rr.estimates[i]->y),
                std::bit_cast<std::uint64_t>(rs.estimates[i]->y));
    }
    EXPECT_EQ(rr.change_per_iteration, rs.change_per_iteration);
    EXPECT_EQ(rr.iterations, rs.iterations);
    EXPECT_EQ(rr.comm.messages_sent, rs.comm.messages_sent);
    EXPECT_EQ(rr.transport_hash, rs.transport_hash);

    EXPECT_EQ(rs_sink.registry.counter("sched.links_deferred"), 0u);
    EXPECT_GT(rs_sink.registry.counter("grid.messages.reused"), 0u);
    if (settles) {
      EXPECT_GT(rs_sink.registry.counter("grid.products.reused"), 0u);
    }
    EXPECT_EQ(rr_sink.registry.counter("grid.messages.reused"), 0u);
    EXPECT_EQ(rr_sink.registry.counter("grid.products.reused"), 0u);
  };

  const Scenario s = build_scenario(scenario_config(40));
  {
    SCOPED_TRACE("default");
    expect_same(s, {});
  }
  {
    SCOPED_TRACE("packet loss");
    GridBnclConfig cfg;
    cfg.transport.radio.loss = 0.2;
    expect_same(s, cfg, false);
  }
  {
    SCOPED_TRACE("node-parallel");
    GridBnclConfig cfg;
    cfg.threads = 4;
    expect_same(s, cfg);
  }
  {
    SCOPED_TRACE("async transport, lossy");
    GridBnclConfig cfg;
    cfg.transport.async = true;
    cfg.transport.radio.loss = 0.1;
    expect_same(s, cfg, false);
  }
  {
    // Pyramid sides 21 and 42: rows and ROI widths are not multiples of 4,
    // so the ROI-packed slots exercise every SIMD tail.
    SCOPED_TRACE("pyramid, odd sides");
    GridBnclConfig cfg;
    cfg.grid_side = 42;
    cfg.pyramid_levels = 2;
    expect_same(s, cfg);
  }
  {
    // Uninformative priors give full level-0 boxes inside a pyramid run.
    SCOPED_TRACE("pyramid, no pre-knowledge");
    ScenarioConfig scfg = scenario_config(40);
    scfg.prior_quality = PriorQuality::none;
    GridBnclConfig cfg;
    cfg.grid_side = 42;
    cfg.pyramid_levels = 2;
    expect_same(build_scenario(scfg), cfg);
  }
  {
    // A 200-node line-drop world at grid 96 with two levels: partial ROI
    // boxes at both levels, and the largest caches of the legs.
    SCOPED_TRACE("pyramid, grid 96, line drop");
    ScenarioConfig scfg;
    scfg.node_count = 200;
    scfg.anchor_fraction = 0.08;
    scfg.deployment.kind = DeploymentKind::line_drop;
    scfg.anchor_placement = AnchorPlacement::random;
    scfg.radio = make_radio(0.12, RangingType::log_normal, 0.10);
    scfg.prior_quality = PriorQuality::exact;
    scfg.seed = 17;
    GridBnclConfig cfg;
    cfg.grid_side = 96;
    cfg.pyramid_levels = 2;
    expect_same(build_scenario(scfg), cfg);
  }
  {
    SCOPED_TRACE("robustness stack");
    ScenarioConfig scfg = scenario_config(41);
    scfg.faults.crash_fraction = 0.1;
    scfg.faults.outlier_fraction = 0.15;
    GridBnclConfig cfg;
    cfg.robustness.robust_likelihood = true;
    cfg.robustness.stale_ttl = 3;
    expect_same(build_scenario(scfg), cfg);
  }
  {
    SCOPED_TRACE("crash and reboot, stale TTL");
    ScenarioConfig scfg = scenario_config(61);
    scfg.faults.crash_fraction = 0.2;
    scfg.faults.reboot_fraction = 0.5;
    GridBnclConfig cfg;
    cfg.robustness.stale_ttl = 3;
    expect_same(build_scenario(scfg), cfg);
  }
}

// What one run's grid state holds, read off its counters.
struct GridState {
  std::uint64_t state_bytes = 0;  ///< `grid.state_bytes`, summed over levels
  std::uint64_t store_bytes = 0;  ///< one belief store per level, summed
  std::uint64_t roi_bytes = 0;    ///< the unknowns' ROI cells, summed
  std::uint64_t msgs_reused = 0;
};

GridState grid_state(const Scenario& s, const GridBnclConfig& cfg) {
  obs::Telemetry sink;
  sink.trace_enabled = false;
  {
    const obs::TelemetryScope scope(&sink);
    Rng rng(9);
    (void)GridBncl(cfg).localize(s, rng);
  }
  const obs::Registry& reg = sink.registry;
  // A store holds each unknown's ROI box and one cell per anchor.
  const std::uint64_t roi_cells = reg.counter("grid.pyramid.roi_cells");
  const std::uint64_t anchor_cells =
      reg.counter("grid.pyramid.levels") * s.anchor_count();
  return {reg.counter("grid.state_bytes"),
          (roi_cells + anchor_cells) * sizeof(double),
          roi_cells * sizeof(double), reg.counter("grid.messages.reused")};
}

// Negative evidence is off in these legs, so no run holds a map and the
// grid state is the belief stores plus whatever cache the policy keeps.
std::vector<std::pair<const char*, GridBnclConfig>> cache_legs() {
  GridBnclConfig base;
  base.use_negative_evidence = false;
  GridBnclConfig async = base;
  async.transport.async = true;
  async.transport.radio.loss = 0.1;
  GridBnclConfig threaded = base;
  threaded.threads = 4;
  GridBnclConfig pyramid = base;
  pyramid.grid_side = 42;
  pyramid.pyramid_levels = 2;
  return {{"default", base},
          {"async transport, lossy", async},
          {"node-parallel", threaded},
          {"pyramid, odd sides", pyramid}};
}

// Round-robin keeps no message or product cache: its grid state is
// exactly four ROI-packed belief stores per level (prior, belief, staged
// and last published), whatever the transport, thread count or depth.
TEST(GridBnclSched, RoundRobinHoldsOnlyTheBeliefStores) {
  const Scenario s = build_scenario(scenario_config(40));
  for (const auto& [name, cfg] : cache_legs()) {
    SCOPED_TRACE(name);
    const GridState st = grid_state(s, cfg);
    EXPECT_GT(st.store_bytes, 0u);
    EXPECT_EQ(st.state_bytes, 4 * st.store_bytes);
    EXPECT_EQ(st.msgs_reused, 0u);
  }
}

// The residual policy's caches are its replay state: a fifth store holds
// each node's last product, and each link slot holds its last message's
// support box inside the receiver's ROI. A receiver's links therefore hold
// at most its in-degree times its ROI, which bounds the message cache by
// the largest in-degree times the unknowns' ROI cells.
TEST(GridBnclSched, ResidualCacheHoldsProductsAndLinkSupportBoxes) {
  const Scenario s = build_scenario(scenario_config(40));
  std::uint64_t max_degree = 0;
  for (const std::size_t i : s.unknown_indices())
    max_degree = std::max<std::uint64_t>(max_degree, s.graph.degree(i));
  for (auto [name, cfg] : cache_legs()) {
    SCOPED_TRACE(name);
    cfg.sched.policy = SchedulePolicy::residual;
    const GridState st = grid_state(s, cfg);
    EXPECT_GT(st.msgs_reused, 0u);
    ASSERT_GT(st.state_bytes, 5 * st.store_bytes);
    EXPECT_LE(st.state_bytes - 5 * st.store_bytes,
              max_degree * st.roi_bytes);
  }
}

// The pyramid together with the residual policy: the level switch resets
// the schedule while the residual ledger carries across levels. Runs at 1
// and 4 threads and with telemetry (counters, trace and spans) on and off
// must agree bit for bit, and the combination must really have run:
// deferred links at both levels. `sink` receives the observed run's
// telemetry. Returns the serial run.
LocalizationResult expect_pyramid_schedule_is_deterministic(
    GridBnclConfig gc, obs::Telemetry& sink,
    const ScenarioConfig& scfg = scenario_config(61)) {
  gc.grid_side = 42;
  gc.pyramid_levels = 2;
  const Scenario s = build_scenario(scfg);
  sink.spans_enabled = true;
  LocalizationResult observed;
  {
    const obs::TelemetryScope scope(&sink);
    Rng rng(7);
    observed = GridBncl(gc).localize(s, rng);
  }
  EXPECT_GT(sink.registry.counter("sched.links_deferred"), 0u);
  EXPECT_EQ(sink.registry.counter("grid.pyramid.levels"), 2u);

  GridBnclConfig par = gc;
  par.threads = 4;
  Rng r1(7), r2(7);
  const auto serial = GridBncl(gc).localize(s, r1);
  const auto parallel = GridBncl(par).localize(s, r2);
  {
    SCOPED_TRACE("telemetry on vs off");
    expect_identical_runs(observed, serial);
    EXPECT_EQ(observed.transport_hash, serial.transport_hash);
  }
  {
    SCOPED_TRACE("1 vs 4 threads");
    expect_identical_runs(serial, parallel);
    EXPECT_EQ(serial.transport_hash, parallel.transport_hash);
  }
  return serial;
}

TEST(GridBnclSched, PyramidWithResidualPolicyIsDeterministic) {
  obs::Telemetry sink;
  expect_pyramid_schedule_is_deterministic(residual_config(), sink);
}

TEST(GridBnclSched, PyramidWithResidualPolicyAsyncReplayIsDeterministic) {
  GridBnclConfig gc = residual_config();
  gc.transport.async = true;
  gc.transport.radio.loss = 0.1;
  gc.transport.radio.latency = 0.25;
  obs::Telemetry sink;
  EXPECT_NE(expect_pyramid_schedule_is_deterministic(gc, sink).transport_hash,
            0u);
}

// Negative evidence through crashes, reboots and the stale TTL: a far
// node's summary version resets when it reboots and its map is dropped
// while it is dead, a deferred non-link replays the older map it
// integrated while the map store has moved on, and the level switch
// rebuilds every map on the finer grid. The helper asserts the deferrals.
TEST(GridBnclSched, PyramidWithResidualPolicyUnderCrashesIsDeterministic) {
  ScenarioConfig scfg = scenario_config(61);
  scfg.faults.crash_fraction = 0.2;
  scfg.faults.reboot_fraction = 0.5;
  GridBnclConfig gc = residual_config();
  ASSERT_TRUE(gc.use_negative_evidence);
  gc.robustness.stale_ttl = 3;
  obs::Telemetry sink;
  expect_pyramid_schedule_is_deterministic(gc, sink, scfg);
  EXPECT_GT(sink.registry.counter("grid.reboots"), 0u);
}

TEST(GridBnclSched, FaultedAccuracyStaysAtParityWithRoundRobin) {
  // The PR 1 fault specs (NLOS outliers + crashes) with the robust ladder
  // armed: deferring low-residual links must not degrade the posterior —
  // the deferred tail is by construction the part that barely moves it.
  ScenarioConfig scfg = scenario_config(63);
  scfg.faults.outlier_fraction = 0.1;
  scfg.faults.crash_fraction = 0.15;
  const Scenario s = build_scenario(scfg);

  GridBnclConfig rr;
  rr.robustness.robust_likelihood = true;
  rr.robustness.stale_ttl = 3;
  GridBnclConfig rs = rr;
  rs.sched.policy = SchedulePolicy::residual;
  Rng r1(5), r2(5);
  const double rr_mean =
      evaluate(s, GridBncl(rr).localize(s, r1)).summary.mean;
  const double rs_mean =
      evaluate(s, GridBncl(rs).localize(s, r2)).summary.mean;
  EXPECT_LT(rs_mean, 0.6);
  // Single-seed parity band: well inside the spread between seeds, far
  // tighter than any real regression (the P4 bench gates the mean at 1%
  // over aggregated trials; one seed needs slack for legitimate
  // iteration-count differences).
  EXPECT_LT(rs_mean, rr_mean * 1.15 + 0.02);
}

TEST(GridBnclSched, DeferralDoesNotTripStaleTtlOrQuorum) {
  // A deferred link is *engine-internal* lateness: the summary arrived, the
  // receiver just chose to integrate it later. The robustness ladder's
  // staleness bookkeeping (last_heard) must therefore keep ticking for
  // deferred links — with a tight budget, a short TTL, and a quorum gate
  // armed, runs must still localize everyone. If deferral counted as
  // silence, the TTL would decay live links out of the posterior and the
  // quorum gate would hold nodes indefinitely.
  const Scenario s = build_scenario(scenario_config(64));
  GridBnclConfig gc = residual_config();
  gc.sched.link_budget_frac = 0.15;  // defer aggressively
  gc.sched.starvation_rounds = 6;
  gc.robustness.stale_ttl = 2;  // shorter than the starvation floor
  gc.robustness.update_quorum = 0.5;

  obs::Telemetry sink;
  LocalizationResult r;
  {
    const obs::TelemetryScope scope(&sink);
    Rng rng(3);
    r = GridBncl(gc).localize(s, rng);
  }
  // The schedule actually deferred (the test is vacuous otherwise)...
  EXPECT_GT(sink.registry.counter("sched.links_deferred"), 0u);
  EXPECT_GT(sink.registry.counter("sched.links_processed"), 0u);
  // ...and nothing decayed or deadlocked: full coverage, sane accuracy.
  const ErrorReport report = evaluate(s, r);
  EXPECT_DOUBLE_EQ(report.coverage, 1.0);
  EXPECT_LT(report.summary.mean, 0.5);
}

}  // namespace
}  // namespace bnloc
