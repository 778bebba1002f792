// Node placement generators plus the matching pre-knowledge each deployment
// style naturally yields.
//
// A deployment produces two things per node: where it actually landed (the
// ground truth used by the simulator) and what was known in advance about
// where it would land (the prior handed to the Bayesian engines). Keeping
// the two in one generator guarantees the priors are *honest*: they are the
// true sampling distribution, unless an experiment deliberately corrupts
// them (see PriorQuality in scenario.hpp).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/vec2.hpp"
#include "prior/prior.hpp"
#include "support/rng.hpp"

namespace bnloc {

struct Placement {
  std::vector<Vec2> positions;   ///< ground truth, one per node.
  std::vector<PriorPtr> priors;  ///< matching pre-knowledge, one per node.
};

enum class DeploymentKind {
  uniform,      ///< i.i.d. uniform over the field; uninformative priors.
  grid_jitter,  ///< planned grid + Gaussian placement error; cell priors.
  clusters,     ///< scattered around known cluster centers; cluster priors.
  line_drop,    ///< sequential aerial drop along a line; per-node priors.
};

struct DeploymentSpec {
  DeploymentKind kind = DeploymentKind::uniform;
  Aabb field = Aabb::unit();
  // grid_jitter: placement error as a fraction of the grid pitch.
  double grid_jitter_factor = 0.3;
  // clusters: how many and how tight (sigma as a fraction of field width).
  std::size_t cluster_count = 4;
  double cluster_sigma_factor = 0.08;
  // line_drop: lateral scatter and along-track spacing error, as fractions
  // of the field width and of the nominal drop spacing respectively.
  double drop_lateral_factor = 0.05;
  double drop_spacing_error = 0.5;

  /// Empty when deploy() accepts this spec, else the reason.
  [[nodiscard]] std::string validate() const;
};

/// Place `count` nodes according to `spec`. Positions are clamped to the
/// field (a node cannot land outside the surveyed region).
[[nodiscard]] Placement deploy(const DeploymentSpec& spec, std::size_t count,
                               Rng& rng);

[[nodiscard]] const char* to_string(DeploymentKind kind) noexcept;

}  // namespace bnloc
