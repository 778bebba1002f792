// The robustness ladder shared by the three BNCL engines
// (RobustnessConfig, core/engine_config.hpp): which nodes act as anchors
// once vetting has run, the ranging model the likelihood uses, and the
// partial-neighborhood quorum gate. Each engine keeps its own action on a
// quorum hold; the state machine that decides the hold lives here once.
#pragma once

#include <cstddef>
#include <vector>

#include "core/engine_config.hpp"
#include "deploy/scenario.hpp"
#include "prior/prior.hpp"
#include "radio/ranging.hpp"

namespace bnloc {

/// Anchor roles after vetting (fault/anchor_vetting.hpp). A flagged anchor
/// acts as an unknown whose pre-knowledge is a radio-range-wide Gaussian
/// around its reported position, so a drifted anchor is evidence to be
/// weighed, not truth to obey.
class AnchorRoles {
 public:
  /// Vets only under `robustness.anchor_vetting`; otherwise every reported
  /// anchor acts as one. `scenario` must outlive the roles.
  AnchorRoles(const Scenario& scenario, const RobustnessConfig& robustness);

  [[nodiscard]] bool acts_anchor(std::size_t i) const noexcept {
    return acts_anchor_[i] != 0;
  }
  /// Node i's prior: the scenario's, or a demoted anchor's wide one.
  [[nodiscard]] const PositionPrior& prior(std::size_t i) const noexcept {
    return demoted_prior_[i] ? *demoted_prior_[i] : *scenario_->priors[i];
  }
  /// Reported anchors the vetting demoted.
  [[nodiscard]] std::size_t demoted() const noexcept { return demoted_; }

 private:
  const Scenario* scenario_;
  std::vector<unsigned char> acts_anchor_;
  std::vector<PriorPtr> demoted_prior_;
  std::size_t demoted_ = 0;
};

/// The ranging model behind the grid and particle likelihoods: the
/// scenario's nominal spec, or under `robust_likelihood` its
/// ε-contamination mixture with a one-sided NLOS tail.
[[nodiscard]] inline RangingSpec likelihood_ranging(
    const Scenario& scenario, const RobustnessConfig& robustness) {
  if (!robustness.robust_likelihood) return scenario.radio.ranging;
  return scenario.radio.ranging.contaminated(
      robustness.contamination_epsilon, robustness.contamination_tail_scale);
}

/// Partial-neighborhood quorum gate (RobustnessConfig::update_quorum and
/// quorum_patience), one state machine per node. A node starts armed (the
/// gate may hold from round one; under the async transport that
/// synchronizes the bootstrap against in-flight first summaries), disarms
/// after `quorum_patience` consecutive holds, and re-arms whenever a full
/// quorum is observed or the node reboots. The hold streak is the whole
/// state: a node is armed while its streak is below the patience.
class QuorumGate {
 public:
  QuorumGate(const RobustnessConfig& robustness, std::size_t node_count)
      : quorum_(robustness.update_quorum),
        patience_(robustness.quorum_patience),
        streak_(quorum_ > 0.0 ? node_count : 0, 0) {}

  /// Does `node` hold its previous belief this round? `usable()` counts its
  /// usable neighbors; it runs only when the gate is on and `degree > 0`.
  /// A call writes only `node`'s state, so node-parallel phases may call it.
  template <typename CountUsable>
  [[nodiscard]] bool hold(std::size_t node, std::size_t degree,
                          CountUsable&& usable) {
    if (streak_.empty() || degree == 0) return false;
    if (static_cast<double>(usable()) >=
        quorum_ * static_cast<double>(degree)) {
      streak_[node] = 0;  // a full quorum re-arms the gate
      return false;
    }
    if (streak_[node] >= patience_) return false;  // disarmed: free-run
    ++streak_[node];
    return true;
  }

  /// A fresh boot re-arms the gate: wait for the inbox to refill before
  /// committing to an update.
  void rearm(std::size_t node) noexcept {
    if (!streak_.empty()) streak_[node] = 0;
  }

 private:
  double quorum_;
  std::size_t patience_;
  std::vector<std::size_t> streak_;  ///< consecutive holds; empty when off
};

}  // namespace bnloc
