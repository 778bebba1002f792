// P4 — residual-prioritized message scheduling: the ROADMAP item 1 gate.
//
// Runs the grid engine under its two scheduling policies on the default
// 200-node line-drop scenario and enforces the PR's acceptance targets at
// grid 48 and 96:
//
//   work:     residual policy >= 30% fewer grid.cell_visits per trial
//   accuracy: residual mean error within 1% of round-robin
//
// plus the replay-determinism contract for BOTH policies: aggregates are
// bit-identical at 1 vs 4 harness/engine threads, and a direct async run's
// transport event-history hash is identical at 1 vs 4 engine threads (the
// schedule is decided by a serial scan over per-round pure reads, so the
// thread count must not be able to change a single decision).
//
// Why the work falls: round-robin rebuilds every unknown from all of its
// inputs every round, and a deferred link replays its cached message (one
// box multiply, the cost of any input), so the per-link saving is only the
// kernel correlation — the cell-visit win comes from *receivers
// whose every changed input was deferred* collapsing to the whole-product
// fast path (3 box ops instead of the full rebuild's ~(links+4)). That is
// why the engine feeds the scheduler receiver-coherent priorities (all of
// a receiver's changed links share its summed pending residual): the
// budget cut then lands on receiver boundaries and whole receivers go
// static, concentrated in the already-settled regions, while
// high-residual neighborhoods keep integrating every round.
// `grid.kernel_cells` (reported, not gated) falls too: deferred links skip
// the correlation outright.
#include "bench_common.hpp"

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

using namespace bnloc;
using namespace bnloc::bench;

namespace {

struct Measured {
  AggregateRow row;
  double cell_visits = 0.0;   // grid.cell_visits per trial
  double kernel_cells = 0.0;  // grid.kernel_cells per trial
  double sched_processed = 0.0, sched_deferred = 0.0, sched_promoted = 0.0;
};

Measured measure(const GridBncl& engine, const ScenarioConfig& cfg,
                 std::size_t trials) {
  Measured m;
  obs::RunTelemetry rt;
  rt.aggregate.trace_enabled = false;
  RunOptions opt = RunOptions::from_env();
  opt.telemetry = &rt;
  m.row = run_algorithm(engine, cfg, trials, opt);
  const auto& reg = rt.aggregate.registry;
  const double tr = static_cast<double>(trials);
  m.cell_visits = static_cast<double>(reg.counter("grid.cell_visits")) / tr;
  m.kernel_cells = static_cast<double>(reg.counter("grid.kernel_cells")) / tr;
  m.sched_processed =
      static_cast<double>(reg.counter("sched.links_processed")) / tr;
  m.sched_deferred =
      static_cast<double>(reg.counter("sched.links_deferred")) / tr;
  m.sched_promoted =
      static_cast<double>(reg.counter("sched.starvation_promotions")) / tr;
  return m;
}

GridBnclConfig policy_config(std::size_t side, SchedulePolicy policy) {
  GridBnclConfig gc;
  gc.grid_side = side;
  gc.sched.policy = policy;
  return gc;
}

}  // namespace

int main() {
  BenchConfig bc = BenchConfig::from_env();
  // The acceptance targets are defined on the default 200-node scenario —
  // fewer nodes leave fewer links to schedule and flatten the comparison.
  // Fast mode still trims trials, not the network.
  bc.nodes = std::max<std::size_t>(bc.nodes, 200);
  const ScenarioConfig base = default_scenario(bc);
  print_banner("P4", "residual-prioritized scheduling gates", bc, base);
  BenchJson bj("P4", bc);

  std::printf("simd dispatch: %s\n\n", simd::active_name());
  bool ok = true;

  std::printf("Part A: work and accuracy gates\n");
  AsciiTable t({"grid_side", "policy", "mean/R", "q90/R", "cell visits/tr",
                "visit ratio", "kernel cells/tr", "iters", "gate"});
  for (const std::size_t side : {std::size_t{48}, std::size_t{96}}) {
    const Measured rr = measure(
        GridBncl(policy_config(side, SchedulePolicy::round_robin)), base,
        bc.trials);
    const Measured rs = measure(
        GridBncl(policy_config(side, SchedulePolicy::residual)), base,
        bc.trials);
    bj.add(rr.row, "grid_side=" + std::to_string(side) + ",policy=round_robin");
    bj.add(rs.row, "grid_side=" + std::to_string(side) + ",policy=residual");

    const double ratio =
        rr.cell_visits > 0.0 ? rs.cell_visits / rr.cell_visits : 1.0;
    const bool work_ok = ratio <= 0.70;
    const bool error_ok = rs.row.error.mean <= rr.row.error.mean * 1.01;
    ok = ok && work_ok && error_ok;

    t.add_row({std::to_string(side), "round_robin",
               AsciiTable::fmt(rr.row.error.mean, 4),
               AsciiTable::fmt(rr.row.error.q90, 4),
               AsciiTable::fmt(rr.cell_visits, 0), "1.00",
               AsciiTable::fmt(rr.kernel_cells, 0),
               AsciiTable::fmt(rr.row.iterations, 1), ""});
    t.add_row({"", "residual", AsciiTable::fmt(rs.row.error.mean, 4),
               AsciiTable::fmt(rs.row.error.q90, 4),
               AsciiTable::fmt(rs.cell_visits, 0),
               AsciiTable::fmt(ratio, 2),
               AsciiTable::fmt(rs.kernel_cells, 0),
               AsciiTable::fmt(rs.row.iterations, 1),
               std::string(work_ok ? "work ok" : "WORK FAIL") + ", " +
                   (error_ok ? "error ok" : "ERROR FAIL")});
    std::printf("  side %zu scheduler: %.0f links granted, %.0f deferred, "
                "%.0f starvation promotions per trial\n",
                side, rs.sched_processed, rs.sched_deferred,
                rs.sched_promoted);
  }
  t.print(std::cout);

  std::printf("\nPart B: replay determinism (both policies)\n");
  for (const SchedulePolicy policy :
       {SchedulePolicy::round_robin, SchedulePolicy::residual}) {
    const char* pname =
        policy == SchedulePolicy::round_robin ? "round_robin" : "residual";
    GridBnclConfig gc = policy_config(48, policy);

    // Aggregates at 1 vs 4 harness threads must match bit for bit (the
    // engine also runs its node-parallel phases at gc.threads = 4 below).
    RunOptions serial, par;
    serial.threads = 1;
    par.threads = 4;
    const AggregateRow t1 = run_algorithm(GridBncl(gc), base, bc.trials,
                                          serial);
    GridBnclConfig gc4 = gc;
    gc4.threads = 4;
    const AggregateRow t4 = run_algorithm(GridBncl(gc4), base, bc.trials,
                                          par);
    const bool rows_identical = same_summaries(t1, t4);

    // Async leg: the transport event-history hash of a direct engine run
    // must be identical at 1 vs 4 engine threads — the scan may not let
    // the thread count change which packets exist, let alone their order.
    GridBnclConfig ac = gc;
    ac.transport.async = true;
    ac.transport.radio.loss = 0.1;
    ac.transport.radio.latency = 0.25;
    GridBnclConfig ac4 = ac;
    ac4.threads = 4;
    const Scenario s = build_scenario(base);
    Rng r1 = make_algo_rng(GridBncl(ac).name(), base.seed);
    Rng r4 = make_algo_rng(GridBncl(ac4).name(), base.seed);
    const LocalizationResult run1 = GridBncl(ac).localize(s, r1);
    const LocalizationResult run4 = GridBncl(ac4).localize(s, r4);
    const bool hash_identical = run1.transport_hash != 0 &&
                                run1.transport_hash == run4.transport_hash;
    ok = ok && rows_identical && hash_identical;
    std::printf("  %s: aggregates(1 vs 4 threads) %s, async transport hash "
                "%016llx vs %016llx -> %s\n",
                pname, rows_identical ? "identical" : "MISMATCH",
                static_cast<unsigned long long>(run1.transport_hash),
                static_cast<unsigned long long>(run4.transport_hash),
                rows_identical && hash_identical ? "PASS" : "FAIL");
  }

  std::printf("\ngates: residual <= 0.70x round-robin cell visits and mean "
              "error within 1%% at grid 48 and 96; bit-identical replay for "
              "both policies\n");
  if (!ok) {
    std::printf("FAIL: scheduling acceptance gate not met\n");
    return EXIT_FAILURE;
  }
  std::printf("all scheduling gates met\n");
  return EXIT_SUCCESS;
}
