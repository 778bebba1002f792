// T1 — headline comparison table.
//
// All algorithms on the default configuration (line-drop deployment with
// exact pre-knowledge). Reproduced shape: Bayesian engines < cooperative
// least squares < MDS-MAP < DV-Hop < min-max/centroid in error; the
// Bayesian engines additionally report calibrated-ish uncertainty, shown as
// the 2-sigma containment column. The CRLB row gives the information-
// theoretic floor for this configuration.
#include "bench_common.hpp"

#include <cmath>

#include "eval/crlb.hpp"

using namespace bnloc;
using namespace bnloc::bench;

int main() {
  const BenchConfig bc = BenchConfig::from_env();
  const ScenarioConfig base = default_scenario(bc);
  print_banner("T1", "overall algorithm comparison", bc, base);

  const auto suite = default_suite();
  BenchJson bj("T1", bc);
  AsciiTable table = make_result_table();
  for (const auto& algo : suite) {
    const AggregateRow row = run_algorithm(*algo, base, bc.trials);
    add_result_row(table, row);
    bj.add(row);
  }
  table.print(std::cout);

  // Uncertainty calibration of the Bayesian engines (baselines have none).
  // Inside the 2-sigma ellipse means md^2 <= 4; for a calibrated 2-D
  // Gaussian md^2 is chi-square with 2 degrees of freedom, so the nominal
  // share is 1 - e^-2.
  std::printf("\ncalibration (fraction of truths inside the reported "
              "2-sigma ellipse; nominal %.3f = 1 - e^-2 in 2-D):\n",
              1.0 - std::exp(-2.0));
  for (const auto& algo : suite) {
    const std::string name = algo->name();
    if (name.rfind("bncl", 0) != 0) continue;
    RunningStats calib;
    for (std::size_t t = 0; t < bc.trials; ++t) {
      ScenarioConfig cfg = base;
      cfg.seed = base.seed + t;
      const Scenario s = build_scenario(cfg);
      Rng rng = make_algo_rng(name, cfg.seed);
      calib.add(coverage_within_sigma(s, algo->localize(s, rng), 2.0));
    }
    std::printf("  %-14s %.2f\n", name.c_str(), calib.mean());
  }

  // Information floor.
  RunningStats crlb_with, crlb_without;
  for (std::size_t t = 0; t < bc.trials; ++t) {
    ScenarioConfig cfg = base;
    cfg.seed = base.seed + t;
    const Scenario s = build_scenario(cfg);
    crlb_with.add(compute_crlb(s, true).mean);
    crlb_without.add(compute_crlb(s, false).mean);
  }
  std::printf("\nCRLB (mean bound, /R): with priors %.4f, without priors "
              "%.4f\n", crlb_with.mean(), crlb_without.mean());
  return 0;
}
