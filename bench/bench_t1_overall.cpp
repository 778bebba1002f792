// T1 — headline comparison table.
//
// All algorithms on the default configuration (line-drop deployment with
// exact pre-knowledge). Reproduced shape: Bayesian engines < cooperative
// least squares < MDS-MAP < DV-Hop < min-max/centroid in error; the
// Bayesian engines additionally report calibrated-ish uncertainty, shown as
// the 1- and 2-sigma containment columns. The CRLB row gives the information-
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
  // Inside the k-sigma ellipse means md^2 <= k^2; for a calibrated 2-D
  // Gaussian md^2 is chi-square with 2 degrees of freedom, so the nominal
  // share is 1 - e^(-k^2/2): 1 - e^-1/2 at 1 sigma, 1 - e^-2 at 2 sigma.
  // Both shares are read off the same run.
  std::printf("\ncalibration (fraction of truths inside the reported "
              "k-sigma ellipse; 2-D nominals %.3f = 1 - e^-1/2 at 1 sigma, "
              "%.3f = 1 - e^-2 at 2 sigma):\n",
              1.0 - std::exp(-0.5), 1.0 - std::exp(-2.0));
  std::printf("  %-14s %7s %7s\n", "engine", "1-sigma", "2-sigma");
  for (const auto& algo : suite) {
    const std::string name = algo->name();
    if (name.rfind("bncl", 0) != 0) continue;
    RunningStats calib1, calib2;
    for (std::size_t t = 0; t < bc.trials; ++t) {
      ScenarioConfig cfg = base;
      cfg.seed = base.seed + t;
      const Scenario s = build_scenario(cfg);
      Rng rng = make_algo_rng(name, cfg.seed);
      const LocalizationResult result = algo->localize(s, rng);
      calib1.add(coverage_within_sigma(s, result, 1.0));
      calib2.add(coverage_within_sigma(s, result, 2.0));
    }
    std::printf("  %-14s %7.2f %7.2f\n", name.c_str(), calib1.mean(),
                calib2.mean());
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
