// P2 — coarse-to-fine pyramid: end-to-end grid-engine work and speed.
//
// Runs the grid engine single-level vs pyramid (pyramid_levels = 2) on the
// default 200-node line-drop scenario and enforces:
//
//   grid_side = 48:  work and speedup printed, not gated; mean error
//                    within 1 %
//   grid_side = 96:  pyramid >= 2x fewer grid.cell_visits per trial than
//                    single-level, mean error within 1 %; speedup printed
//
// Single-level runs bound every unknown by its prior's support, the same
// ROI rule as the pyramid's level 0. Before they did, they swept the full
// grid and the gates read >= 2x at 48 and >= 4x at 96 (measured 2.2x and
// 4.6x when the pyramid landed, 2.9x and 5.3x just before the ROI rule).
// The rule made single-level runs 2.3x faster at 48 and 2.8x at 96 while
// the pyramid's bits stayed put. Nine full 8-trial runs on a shared 4-vCPU
// x86-64 host now read 1.01-1.31x at 48 (median 1.12x) and 1.53-2.12x
// at 96 (median 1.82x). At 48 the modes nearly tie and the pyramid takes
// 22 rounds to single-level's 14, so that ratio is reported only.
//
// The 96 gate was a wall-time one (>= 1.5x on the min over repetitions)
// until the grid engine began sharing one negative-evidence map per
// published summary among its two-hop receivers. It moved to work because
// the ratio spreads too widely on a shared host to gate: nine identical
// full runs read 1.53-2.12x, and in interleaved fast runs the engine read
// 1.44-2.07x before the maps (two of six runs failing the gate) and
// 1.42-2.28x after. grid.cell_visits — one touch per ROI cell per dense
// belief op — is a deterministic count that the maps do not move: fast
// sizing reads 9.77e7 single-level against 4.17e7 pyramid per trial
// (2.34x), and the gate asks for 2x.
//
// The printed speedup uses the best (minimum) per-trial mean across a few
// repetitions of each configuration — a loaded box can only make a run
// slower, never faster, so the minimum is the most reproducible estimate
// of the true cost. Accuracy is averaged
// over bc.trials scenario draws per repetition, so the error gate sees the
// same aggregate both engines report everywhere else.
//
// A pyramid run schedules its early rounds on a coarse ladder rung (48 ->
// 24, 96 -> 48), restarts each finer rung from the node priors inside a
// region of interest located by the upsampled coarse posterior, and caps
// transitional summary payloads — see docs/ARCHITECTURE.md. Work and
// speedup are genuine end-to-end numbers: same scenarios, same iteration
// budget, same convergence tolerance.
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
  print_banner("P2", "coarse-to-fine pyramid work and speed gates", bc,
               base);
  BenchJson bj("P2", bc);

  struct Gate {
    std::size_t side;
    /// Least single-level / pyramid grid.cell_visits ratio; 0: reported,
    /// not gated.
    double min_work_ratio;
  };
  const Gate gates[] = {{48, 0.0}, {96, 2.0}};
  const std::size_t reps = bc.fast ? 2 : 3;
  struct Work {
    std::size_t side;
    Measured single;
    Measured pyramid;
  };
  std::vector<Work> work;

  std::printf("simd dispatch: %s\n\n", simd::active_name());
  AsciiTable t({"grid_side", "variant", "mean/R", "q90/R", "best ms/run",
                "speedup", "work ratio", "gate"});
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
    const double work_ratio =
        mp.cell_visits > 0.0 ? ms.cell_visits / mp.cell_visits : 0.0;
    const bool work_ok = work_ratio >= g.min_work_ratio;
    const bool error_ok = mp.row.error.mean <= ms.row.error.mean * 1.01;
    ok = ok && work_ok && error_ok;
    const char* work_verdict = g.min_work_ratio <= 0.0 ? "work not gated"
                               : work_ok               ? "work ok"
                                                       : "WORK FAIL";

    t.add_row({std::to_string(g.side), "single",
               AsciiTable::fmt(ms.row.error.mean, 4),
               AsciiTable::fmt(ms.row.error.q90, 4),
               AsciiTable::fmt(ms.best_seconds * 1e3, 1), "1.00", "1.00",
               ""});
    t.add_row({"", "pyramid L2", AsciiTable::fmt(mp.row.error.mean, 4),
               AsciiTable::fmt(mp.row.error.q90, 4),
               AsciiTable::fmt(mp.best_seconds * 1e3, 1),
               AsciiTable::fmt(speedup, 2), AsciiTable::fmt(work_ratio, 2),
               std::string(work_verdict) + ", " +
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
  std::printf("gates: >=%.1fx fewer cell visits at 96 (48 and every speedup "
              "reported only), pyramid mean error within 1%% of "
              "single-level\n",
              gates[1].min_work_ratio);
  if (!ok) {
    std::printf("FAIL: pyramid acceptance gate not met\n");
    return EXIT_FAILURE;
  }
  std::printf("all pyramid gates met\n");
  return EXIT_SUCCESS;
}
