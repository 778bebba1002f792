#include "deploy/scenario.hpp"

#include <algorithm>
#include <cmath>

#include "support/assert.hpp"

namespace bnloc {

std::size_t Scenario::anchor_count() const noexcept {
  return static_cast<std::size_t>(
      std::count(is_anchor.begin(), is_anchor.end(), true));
}

Vec2 Scenario::anchor_position(std::size_t node) const {
  BNLOC_ASSERT(node < node_count(), "node index out of range");
  BNLOC_ASSERT(is_anchor[node], "position of a non-anchor is hidden");
  // Hand-built scenarios (tests) may omit reported_positions; they then
  // report truthfully.
  return reported_positions.empty() ? true_positions[node]
                                    : reported_positions[node];
}

std::vector<std::size_t> Scenario::anchor_indices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < node_count(); ++i)
    if (is_anchor[i]) out.push_back(i);
  return out;
}

std::vector<std::size_t> Scenario::unknown_indices() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < node_count(); ++i)
    if (!is_anchor[i]) out.push_back(i);
  return out;
}

std::string ScenarioConfig::validate() const {
  if (node_count < 2) return "nodes must be >= 2";
  if (!(anchor_fraction >= 0.0 && anchor_fraction <= 1.0))
    return "anchor_fraction must be in [0, 1]";
  // Errors are reported in units of the range, so an infinite one would
  // score every run perfect.
  if (!(std::isfinite(radio.range) && radio.range > 0.0))
    return "radio_range must be finite and > 0";
  const double noise = radio.ranging.noise_factor;
  if (!(std::isfinite(noise) && noise >= 0.0))
    return "noise must be finite and >= 0";
  if (std::string why = deployment.validate(); !why.empty())
    return "deployment." + why;
  if (std::string why = faults.validate(); !why.empty())
    return "faults." + why;
  return {};
}

Scenario build_scenario(const ScenarioConfig& config) {
  BNLOC_ASSERT_VALID(config);
  Rng rng(config.seed);
  Rng deploy_rng = rng.split(0xdeb107);
  Rng anchor_rng = rng.split(0xa2c408);
  Rng link_rng = rng.split(0x114c);
  Rng prior_rng = rng.split(0xb1a5);

  Scenario s;
  s.field = config.deployment.field;
  s.radio = config.radio;
  s.seed = config.seed;

  Placement placement = deploy(config.deployment, config.node_count,
                               deploy_rng);
  s.true_positions = std::move(placement.positions);

  const auto anchor_count = static_cast<std::size_t>(
      std::max(1.0, std::round(config.anchor_fraction *
                               static_cast<double>(config.node_count))));
  const auto anchors =
      select_anchors(s.true_positions, s.field, anchor_count,
                     config.anchor_placement, anchor_rng);
  s.is_anchor.assign(config.node_count, false);
  for (std::size_t a : anchors) s.is_anchor[a] = true;

  // Apply the requested pre-knowledge quality.
  s.priors.resize(config.node_count);
  const auto uniform = std::make_shared<UniformPrior>(s.field);
  const double bias_mag = config.prior_bias_factor * s.field.width();
  for (std::size_t i = 0; i < config.node_count; ++i) {
    switch (config.prior_quality) {
      case PriorQuality::none:
        s.priors[i] = uniform;
        break;
      case PriorQuality::exact:
        s.priors[i] = placement.priors[i];
        break;
      case PriorQuality::widened:
        s.priors[i] = placement.priors[i]->widened(config.prior_widen_factor);
        break;
      case PriorQuality::biased: {
        // A systematic, per-node-random direction offset: the operator's
        // notion of the drop point is simply wrong by ~bias_mag.
        const double angle = prior_rng.uniform(0.0, 6.283185307179586);
        const Vec2 offset = Vec2{std::cos(angle), std::sin(angle)} * bias_mag;
        s.priors[i] = placement.priors[i]->shifted(offset);
        break;
      }
    }
  }

  std::vector<Edge> edges =
      generate_links(s.true_positions, s.field, config.radio, link_rng);
  s.reported_positions = s.true_positions;

  // Fault injection happens on the raw ingredients (edge list, reported
  // positions) before the CSR graph freezes, off an independent RNG stream
  // so a zero-fault scenario is bit-identical to a fault-free build.
  if (config.faults.any()) {
    std::uint64_t fault_state =
        config.seed ^ (config.faults.seed * 0x9e3779b97f4a7c15ULL);
    Rng fault_rng(splitmix64(fault_state));
    Rng outlier_rng = fault_rng.split(0x0471);
    Rng anchor_fault_rng = fault_rng.split(0xd71f);
    Rng crash_rng = fault_rng.split(0xc4a5);

    const FaultInjector injector(config.faults);
    const std::vector<unsigned char> edge_outlier = injector.contaminate_links(
        edges, s.true_positions, config.radio.ranging, outlier_rng);
    s.faults.anchor_faulty = injector.drift_anchors(
        s.reported_positions, s.is_anchor, s.field, anchor_fault_rng);
    s.faults.death_round =
        injector.schedule_crashes(config.node_count, crash_rng);
    // Reboot draws ride the same crash stream *after* the death draws, and
    // schedule_reboots consumes nothing when reboot_fraction is 0 — so
    // every pre-existing crash-only scenario keeps its exact labels.
    s.faults.reboot_round =
        injector.schedule_reboots(s.faults.death_round, crash_rng);
    s.graph = Graph(config.node_count, edges);
    finalize_fault_labels(s.faults, s.graph, edges, edge_outlier);
  } else {
    s.graph = Graph(config.node_count, edges);
  }
  return s;
}

const char* to_string(PriorQuality quality) noexcept {
  switch (quality) {
    case PriorQuality::none:
      return "none";
    case PriorQuality::exact:
      return "exact";
    case PriorQuality::widened:
      return "widened";
    case PriorQuality::biased:
      return "biased";
  }
  return "?";
}

}  // namespace bnloc
