// F7 — convergence: error vs BP iteration.
//
// Reproduced shapes: error drops steeply in the first ~5 iterations and
// plateaus by ~10-15; pre-knowledge both lowers the plateau and (because
// every node broadcasts an informative belief from round one) accelerates
// the early iterations; undamped BP oscillates visibly in the belief-change
// trace while damped BP settles monotonically.
#include "bench_common.hpp"

using namespace bnloc;
using namespace bnloc::bench;

namespace {

std::vector<double> error_trace(const ScenarioConfig& base,
                                std::size_t trials, double damping,
                                PriorQuality quality, std::size_t iterations) {
  std::vector<double> per_iter(iterations, 0.0);
  for (std::size_t t = 0; t < trials; ++t) {
    ScenarioConfig cfg = base;
    cfg.seed = base.seed + t;
    cfg.prior_quality = quality;
    const Scenario s = build_scenario(cfg);
    GridBnclConfig gc;
    gc.iteration.max_iterations = iterations;
    gc.iteration.convergence_tol = 0.0;  // run the full trace
    gc.damping = damping;
    const GridBncl engine(gc);
    Rng rng = make_algo_rng("bncl-grid-trace", cfg.seed);
    // Each trace row carries the round's mean |estimate - truth| / R over
    // localized unknowns.
    obs::Telemetry telemetry;
    {
      const obs::TelemetryScope scope(&telemetry);
      (void)engine.localize(s, rng);
    }
    for (const obs::TraceRound& row : telemetry.trace.rows())
      per_iter[row.round - 1] += row.mean_error;
  }
  for (double& v : per_iter) v /= static_cast<double>(trials);
  return per_iter;
}

}  // namespace

int main() {
  const BenchConfig bc = BenchConfig::from_env();
  const ScenarioConfig base = default_scenario(bc);
  print_banner("F7", "convergence over BP iterations", bc, base);

  const std::size_t iterations = 20;
  const auto with_priors =
      error_trace(base, bc.trials, 0.3, PriorQuality::exact, iterations);
  const auto without_priors =
      error_trace(base, bc.trials, 0.3, PriorQuality::none, iterations);
  const auto undamped =
      error_trace(base, bc.trials, 0.0, PriorQuality::exact, iterations);

  AsciiTable t({"iteration", "with priors", "no priors", "undamped+priors"});
  for (std::size_t k = 0; k < iterations; ++k)
    t.add_row(std::to_string(k + 1),
              {with_priors[k], without_priors[k], undamped[k]}, 4);
  t.print(std::cout);

  std::printf("\nplateau (mean of last 3 iterations): with priors %.4f, "
              "no priors %.4f\n",
              (with_priors[iterations - 1] + with_priors[iterations - 2] +
               with_priors[iterations - 3]) / 3.0,
              (without_priors[iterations - 1] +
               without_priors[iterations - 2] +
               without_priors[iterations - 3]) / 3.0);
  return 0;
}
