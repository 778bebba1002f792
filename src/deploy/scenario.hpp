// Scenario: one fully-instantiated localization problem.
//
// A Scenario bundles everything an algorithm may legitimately see (the
// measured link graph, anchor positions, radio spec, priors) together with
// the ground truth it may NOT see (true positions of unknowns), which the
// evaluation layer uses for scoring. Builders are deterministic in the seed.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "deploy/anchors.hpp"
#include "deploy/deployment.hpp"
#include "fault/fault.hpp"
#include "geom/aabb.hpp"
#include "geom/vec2.hpp"
#include "graph/adjacency.hpp"
#include "prior/prior.hpp"
#include "radio/connectivity.hpp"
#include "support/rng.hpp"

namespace bnloc {

/// How faithful the pre-knowledge handed to the algorithm is to the true
/// deployment distribution (experiment F6).
enum class PriorQuality {
  none,     ///< replace every prior with uniform (no pre-knowledge).
  exact,    ///< the true sampling distribution.
  widened,  ///< correct location, standard deviations inflated.
  biased,   ///< location shifted by a systematic offset (wrong knowledge).
};

struct ScenarioConfig {
  std::size_t node_count = 200;
  double anchor_fraction = 0.10;
  DeploymentSpec deployment{};
  AnchorPlacement anchor_placement = AnchorPlacement::random;
  RadioSpec radio = make_radio(0.15, RangingType::log_normal, 0.10);
  PriorQuality prior_quality = PriorQuality::exact;
  double prior_widen_factor = 3.0;
  /// Bias offset magnitude as a fraction of the field width.
  double prior_bias_factor = 0.15;
  /// Fault injection (F13). Empty spec -> bit-identical to a fault-free
  /// build; see fault/fault.hpp.
  FaultSpec faults{};
  std::uint64_t seed = 1;

  /// Empty when build_scenario accepts this config, else the reason. A
  /// field the serve schema also carries is named as the schema spells it
  /// (`nodes`, `radio_range`, `noise`).
  [[nodiscard]] std::string validate() const;
};

struct Scenario {
  Aabb field;
  RadioSpec radio;
  std::vector<Vec2> true_positions;  ///< ground truth; for evaluation only.
  /// Positions as the nodes themselves report them: equal to the truth
  /// except for fault-injected drifting anchors. This is what algorithms
  /// see via anchor_position().
  std::vector<Vec2> reported_positions;
  std::vector<bool> is_anchor;
  std::vector<PriorPtr> priors;  ///< per node; anchors' priors are unused.
  Graph graph;                   ///< measured links (weights = noisy dists).
  /// Ground-truth fault record (evaluation only; empty when no faults).
  FaultLabels faults;
  std::uint64_t seed = 0;

  [[nodiscard]] std::size_t node_count() const noexcept {
    return true_positions.size();
  }
  [[nodiscard]] std::size_t anchor_count() const noexcept;
  [[nodiscard]] std::size_t unknown_count() const noexcept {
    return node_count() - anchor_count();
  }
  /// Position visible to algorithms: the *reported* position, exact for
  /// healthy anchors, drifted for fault-injected ones.
  [[nodiscard]] Vec2 anchor_position(std::size_t node) const;
  [[nodiscard]] std::vector<std::size_t> anchor_indices() const;
  [[nodiscard]] std::vector<std::size_t> unknown_indices() const;
};

/// Build a scenario deterministically from a config (same config + seed ->
/// identical scenario, including link noise).
[[nodiscard]] Scenario build_scenario(const ScenarioConfig& config);

[[nodiscard]] const char* to_string(PriorQuality quality) noexcept;

}  // namespace bnloc
