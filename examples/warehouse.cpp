// Warehouse asset tracking: clustered deployment under a hostile radio.
//
// Pallet-mounted tags are stacked in four known storage zones of a
// warehouse. Metal racking makes the link layer ugly: quasi-UDG
// connectivity (a wide grey zone where links come and go) plus 25% packet
// loss on every broadcast. Zone membership is known from the inventory
// system — that is the pre-knowledge — and a handful of ceiling-mounted
// readers act as anchors.
//
// The example runs the grid engine against the strongest classical
// baseline under the same lossy radio, then degrades the inventory system
// (wrong zone records) to show what stale pre-knowledge costs.
#include <cstdio>
#include <iostream>

#include "bnloc/bnloc.hpp"

using namespace bnloc;

namespace {

struct Outcome {
  double mean;
  double q90;
  double coverage;
  double kb_per_node;
};

Outcome run(const Localizer& algo, const ScenarioConfig& cfg,
            std::size_t trials) {
  RunningStats mean, q90, cov, kb;
  for (std::size_t t = 0; t < trials; ++t) {
    ScenarioConfig c = cfg;
    c.seed = cfg.seed + t;
    const Scenario s = build_scenario(c);
    Rng rng = make_algo_rng(algo.name(), c.seed);
    const LocalizationResult r = algo.localize(s, rng);
    const ErrorReport rep = evaluate(s, r);
    mean.add(rep.summary.mean);
    q90.add(rep.summary.q90);
    cov.add(rep.coverage);
    kb.add(r.comm.bytes_per_node(s.node_count()) / 1024.0);
  }
  return {mean.mean(), q90.mean(), cov.mean(), kb.mean()};
}

}  // namespace

int main() {
  std::printf("warehouse tracking: 180 tags in 4 zones, quasi-UDG radio, "
              "25%% packet loss\n\n");

  ScenarioConfig cfg;
  cfg.node_count = 180;
  cfg.anchor_fraction = 0.04;  // a handful of ceiling readers
  cfg.anchor_placement = AnchorPlacement::grid;
  cfg.deployment.kind = DeploymentKind::clusters;
  cfg.deployment.cluster_count = 4;
  cfg.deployment.cluster_sigma_factor = 0.06;
  cfg.radio = make_radio(0.12, RangingType::log_normal, 0.18,
                         ConnectivityType::quasi_udg, 0.5);
  cfg.prior_quality = PriorQuality::exact;
  cfg.seed = 11;
  const std::size_t trials = 5;

  GridBnclConfig gc;
  gc.transport.radio.loss = 0.25;
  const GridBncl bayes(gc);
  const RefinementLocalizer classical;  // cannot model loss; sees the same
                                        // measured graph

  AsciiTable t({"setting", "algorithm", "mean/R", "q90/R", "coverage",
                "kB/node"});
  auto add = [&](const char* setting, const char* name, const Outcome& o) {
    t.add_row({setting, name, AsciiTable::fmt(o.mean, 3),
               AsciiTable::fmt(o.q90, 3), AsciiTable::fmt(o.coverage, 2),
               AsciiTable::fmt(o.kb_per_node, 2)});
  };

  add("inventory correct", "bncl-grid", run(bayes, cfg, trials));
  add("inventory correct", "ls-refine", run(classical, cfg, trials));

  ScenarioConfig stale = cfg;
  stale.prior_quality = PriorQuality::biased;
  stale.prior_bias_factor = 0.15;  // pallets moved, records not updated
  add("inventory stale", "bncl-grid", run(bayes, stale, trials));

  ScenarioConfig none = cfg;
  none.prior_quality = PriorQuality::none;
  add("inventory offline", "bncl-grid", run(bayes, none, trials));

  std::cout << t.to_string();
  std::printf("\nreading: correct zone records beat the classical baseline "
              "outright; stale records give some of that back; losing the "
              "inventory system entirely still localizes every tag, just "
              "with a longer tail.\n");
  return 0;
}
