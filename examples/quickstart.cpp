// Quickstart: localize one simulated sensor network with the Bayesian
// engine and print what happened.
//
//   $ ./quickstart
//
// Walks through the full API surface: configure a scenario, build it, run
// GridBncl, evaluate against ground truth, and inspect one node's belief
// uncertainty.
#include <cmath>
#include <cstdio>

#include "bnloc/bnloc.hpp"

int main() {
  using namespace bnloc;

  // 1. Describe the network: 150 nodes in a unit field, 10% anchors,
  //    radio range 0.15, RSSI-style (log-normal) ranging with 10% noise.
  ScenarioConfig cfg;
  cfg.node_count = 150;
  cfg.anchor_fraction = 0.10;
  cfg.radio = make_radio(0.15, RangingType::log_normal, 0.10);
  cfg.deployment.kind = DeploymentKind::grid_jitter;  // planned grid install
  cfg.prior_quality = PriorQuality::exact;  // engineers know the plan
  cfg.seed = 42;

  // 2. Instantiate it. Everything is deterministic in the seed.
  const Scenario scenario = build_scenario(cfg);
  std::printf("network: %zu nodes (%zu anchors), %zu measured links, "
              "avg degree %.1f\n",
              scenario.node_count(), scenario.anchor_count(),
              scenario.graph.edge_count(), scenario.graph.average_degree());

  // 3. Run the paper's algorithm: grid-based Bayesian-network cooperative
  //    localization with pre-knowledge.
  GridBncl engine;
  Rng rng(7);
  const Stopwatch watch;
  const LocalizationResult result = engine.localize(scenario, rng);
  std::printf("engine: %s, %zu iterations (%s), %.0f ms\n",
              engine.name().c_str(), result.iterations,
              result.converged ? "converged" : "iteration cap",
              watch.milliseconds());
  std::printf("protocol: %.1f broadcasts/node, %.0f bytes/node\n",
              result.comm.messages_per_node(scenario.node_count()),
              result.comm.bytes_per_node(scenario.node_count()));

  // 4. Score against the ground truth the algorithm never saw.
  const ErrorReport report = evaluate(scenario, result);
  std::printf("accuracy: mean error %.3f R, median %.3f R, 90%%-ile %.3f R "
              "(R = radio range), coverage %.0f%%\n",
              report.summary.mean, report.summary.median, report.summary.q90,
              report.coverage * 100.0);

  // 5. Bayesian engines also report *how sure* they are, per node.
  // A calibrated 2-D Gaussian puts 1 - e^-1/2 of the truths inside 1 sigma
  // and 1 - e^-2 inside 2 sigma.
  const double calib1 = coverage_within_sigma(scenario, result, 1.0);
  const double calib2 = coverage_within_sigma(scenario, result, 2.0);
  std::printf("calibration: %.0f%% of true positions inside the reported "
              "1-sigma ellipse (nominal %.1f%%), %.0f%% inside 2-sigma "
              "(nominal %.1f%%)\n",
              calib1 * 100.0, (1.0 - std::exp(-0.5)) * 100.0, calib2 * 100.0,
              (1.0 - std::exp(-2.0)) * 100.0);

  // Peek at the most and least certain unknowns.
  double best = 1e30, worst = -1.0;
  std::size_t best_i = 0, worst_i = 0;
  for (std::size_t i = 0; i < scenario.node_count(); ++i) {
    if (scenario.is_anchor[i] || !result.covariances[i]) continue;
    const double spread = result.covariances[i]->rms_radius();
    if (spread < best) { best = spread; best_i = i; }
    if (spread > worst) { worst = spread; worst_i = i; }
  }
  std::printf("most confident node %zu: +/-%.3f; least confident node %zu: "
              "+/-%.3f (field units)\n", best_i, best, worst_i, worst);
  return 0;
}
