#include "core/robustness.hpp"

#include "fault/anchor_vetting.hpp"

namespace bnloc {

AnchorRoles::AnchorRoles(const Scenario& scenario,
                         const RobustnessConfig& robustness)
    : scenario_(&scenario),
      acts_anchor_(scenario.is_anchor.begin(), scenario.is_anchor.end()),
      demoted_prior_(scenario.node_count()) {
  if (!robustness.anchor_vetting) return;
  const AnchorVetReport vet = vet_anchors(scenario);
  for (std::size_t i = 0; i < scenario.node_count(); ++i) {
    if (!scenario.is_anchor[i] || !vet.flagged[i]) continue;
    acts_anchor_[i] = 0;
    demoted_prior_[i] = GaussianPrior::isotropic(scenario.anchor_position(i),
                                                 scenario.radio.range);
    ++demoted_;
  }
}

}  // namespace bnloc
