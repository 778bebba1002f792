// P2 — coarse-to-fine pyramid: end-to-end grid-engine speedup gates.
//
// Runs the grid engine single-level vs pyramid (pyramid_levels = 2) on the
// default 200-node line-drop scenario and enforces the PR's acceptance
// targets:
//
//   grid_side = 48:  pyramid >= 2x faster, mean error within 1 %
//   grid_side = 96:  pyramid >= 4x faster, mean error within 1 %
//
// Timing uses the best (minimum) per-trial mean across a few repetitions of
// each configuration — the standard defence against machine jitter; a
// loaded box can only make a run slower, never faster, so the minimum is
// the most reproducible estimate of the true cost. Accuracy is averaged
// over bc.trials scenario draws per repetition, so the error gate sees the
// same aggregate both engines report everywhere else.
//
// A pyramid run schedules its early rounds on a coarse ladder rung (48 ->
// 24, 96 -> 48), restarts each finer rung from the node priors inside a
// region of interest located by the upsampled coarse posterior, and caps
// transitional summary payloads — see docs/ARCHITECTURE.md. The speedup is
// a genuine end-to-end number: same scenarios, same iteration budget, same
// convergence tolerance.
#include "bench_common.hpp"

#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

using namespace bnloc;
using namespace bnloc::bench;

namespace {

struct Measured {
  AggregateRow row;     // aggregate of the last repetition (for the JSON)
  double best_seconds;  // min over repetitions of the per-trial mean
  double cell_visits;   // grid.cell_visits per trial (last repetition)
  double kernel_cells;  // grid.kernel_cells per trial (last repetition)
  // grid.pyramid.l<N>.{roi_cells, cell_visits} per trial, finest first.
  std::vector<std::pair<double, double>> levels;
};

Measured measure(const GridBncl& engine, const ScenarioConfig& cfg,
                 std::size_t trials, std::size_t reps) {
  Measured m;
  m.best_seconds = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    // Telemetry on the timed run is fair game: the counters are plain
    // integer adds and the contract (P1 part C, F15) is that they never
    // change an output bit — only the wall column could notice, and the
    // min-over-reps absorbs that.
    obs::RunTelemetry rt;
    rt.aggregate.trace_enabled = false;
    RunOptions opt = RunOptions::from_env();
    opt.telemetry = &rt;
    m.row = run_algorithm(engine, cfg, trials, opt);
    if (r == 0 || m.row.seconds < m.best_seconds)
      m.best_seconds = m.row.seconds;
    const auto& reg = rt.aggregate.registry;
    const double tr = static_cast<double>(trials);
    m.cell_visits = static_cast<double>(reg.counter("grid.cell_visits")) / tr;
    m.kernel_cells =
        static_cast<double>(reg.counter("grid.kernel_cells")) / tr;
    m.levels.clear();
    for (std::size_t lvl = 0;; ++lvl) {
      char roi_name[48], visits_name[48];
      std::snprintf(roi_name, sizeof roi_name, "grid.pyramid.l%zu.roi_cells",
                    lvl);
      std::snprintf(visits_name, sizeof visits_name,
                    "grid.pyramid.l%zu.cell_visits", lvl);
      const std::uint64_t roi = reg.counter(roi_name);
      if (roi == 0) break;
      m.levels.emplace_back(static_cast<double>(roi) / tr,
                            static_cast<double>(reg.counter(visits_name)) /
                                tr);
    }
  }
  return m;
}

}  // namespace

int main() {
  BenchConfig bc = BenchConfig::from_env();
  // The acceptance targets are defined on the default 200-node scenario:
  // fewer nodes leave beliefs broader (larger regions of interest), which
  // flattens the pyramid's advantage. Fast mode still trims trials and
  // repetitions, but not the network.
  bc.nodes = std::max<std::size_t>(bc.nodes, 200);
  const ScenarioConfig base = default_scenario(bc);
  print_banner("P2", "coarse-to-fine pyramid speedup gates", bc, base);
  BenchJson bj("P2", bc);

  struct Gate {
    std::size_t side;
    double min_speedup;
  };
  const Gate gates[] = {{48, 2.0}, {96, 4.0}};
  const std::size_t reps = bc.fast ? 2 : 3;
  struct Work {
    std::size_t side;
    Measured single;
    Measured pyramid;
  };
  std::vector<Work> work;

  std::printf("simd dispatch: %s\n\n", simd::active_name());
  AsciiTable t({"grid_side", "variant", "mean/R", "q90/R", "best ms/run",
                "speedup", "gate"});
  bool ok = true;
  for (const Gate& g : gates) {
    GridBnclConfig single;
    single.grid_side = g.side;
    GridBnclConfig pyr = single;
    pyr.pyramid_levels = 2;

    const Measured ms =
        measure(GridBncl(single), base, bc.trials, reps);
    const Measured mp = measure(GridBncl(pyr), base, bc.trials, reps);
    bj.add(ms.row, "grid_side=" + std::to_string(g.side) + ",levels=1");
    bj.add(mp.row, "grid_side=" + std::to_string(g.side) + ",levels=2");

    const double speedup =
        mp.best_seconds > 0.0 ? ms.best_seconds / mp.best_seconds : 0.0;
    const bool speed_ok = speedup >= g.min_speedup;
    const bool error_ok = mp.row.error.mean <= ms.row.error.mean * 1.01;
    ok = ok && speed_ok && error_ok;

    t.add_row({std::to_string(g.side), "single",
               AsciiTable::fmt(ms.row.error.mean, 4),
               AsciiTable::fmt(ms.row.error.q90, 4),
               AsciiTable::fmt(ms.best_seconds * 1e3, 1), "1.00", ""});
    t.add_row({"", "pyramid L2", AsciiTable::fmt(mp.row.error.mean, 4),
               AsciiTable::fmt(mp.row.error.q90, 4),
               AsciiTable::fmt(mp.best_seconds * 1e3, 1),
               AsciiTable::fmt(speedup, 2),
               std::string(speed_ok ? "speed ok" : "SPEED FAIL") + ", " +
                   (error_ok ? "error ok" : "ERROR FAIL")});
    work.push_back({g.side, ms, mp});
  }
  t.print(std::cout);

  // Work accounting: why the pyramid is faster. grid.cell_visits counts
  // one touch per ROI cell per dense belief op; the per-level rows show
  // the coarse rung doing most rounds on a quarter-size grid while the
  // fine rung runs inside small regions of interest.
  std::printf("\n");
  for (const Work& wk : work) {
    std::printf("work/trial at %zu: single %.2e cell visits, %.2e kernel "
                "cells; pyramid %.2e cell visits (%.1fx less), %.2e kernel "
                "cells\n",
                wk.side, wk.single.cell_visits, wk.single.kernel_cells,
                wk.pyramid.cell_visits,
                wk.pyramid.cell_visits > 0.0
                    ? wk.single.cell_visits / wk.pyramid.cell_visits
                    : 0.0,
                wk.pyramid.kernel_cells);
    for (std::size_t lvl = 0; lvl < wk.pyramid.levels.size(); ++lvl)
      std::printf("  pyramid level %zu: %.2e roi cells, %.2e cell visits "
                  "per trial\n",
                  lvl, wk.pyramid.levels[lvl].first,
                  wk.pyramid.levels[lvl].second);
  }
  std::printf("gates: >=2x at 48, >=4x at 96, pyramid mean error within "
              "1%% of single-level\n");
  if (!ok) {
    std::printf("FAIL: pyramid acceptance gate not met\n");
    return EXIT_FAILURE;
  }
  std::printf("all pyramid gates met\n");
  return EXIT_SUCCESS;
}
