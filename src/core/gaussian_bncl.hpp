// GaussianBncl: single-Gaussian (EKF-style) flavor of BNCL.
//
// Each belief is one 2-D Gaussian. A range measurement to neighbor j is
// linearized around the current means and folded in as a rank-1 information
// update whose noise includes j's own positional uncertainty. Cheapest of
// the three engines — constant memory and O(degree) work per node per
// round — at the cost of unimodality: it cannot represent the ring-shaped
// ambiguity a node with one anchor neighbor truly has, which is exactly the
// gap the grid/particle engines close (T1, T10).
#pragma once

#include <string>

#include "core/engine_config.hpp"
#include "core/localizer.hpp"

namespace bnloc {

struct GaussianBnclConfig {
  /// Shared outer-loop knobs. `convergence_tol` here is the *max* mean
  /// motion per round as a fraction of the radio range.
  IterationConfig iteration{.max_iterations = 40, .convergence_tol = 0.002};
  double damping = 0.5;           ///< mean-update damping in [0, 1).

  /// Fault countermeasures (F13); see core/engine_config.hpp. For this
  /// engine `robust_likelihood` selects Huber-style residual downweighting:
  /// a range residual beyond `huber_k` sigmas has its observation noise
  /// inflated so one NLOS outlier cannot drag the linearized update (IRLS
  /// weight w = k*sigma/|r|). The ε-contamination fields are unused here.
  RobustnessConfig robustness;
  double huber_k = 1.5;  ///< Huber gate width, in sigmas.

  /// Transport selection (PR6); see core/engine_config.hpp. This engine
  /// broadcasts every round, so under the async transport each round's
  /// Gaussian summary becomes a sequence-numbered packet and receivers fold
  /// in whatever their inbox last accepted (sequence-gated against
  /// duplicates and reordering). Heartbeats and reboot relays are moot here
  /// — the every-round publish already re-seeds rebooted neighbors.
  TransportConfig transport;

  /// Empty when GaussianBncl accepts this config, else the reason.
  [[nodiscard]] std::string validate() const;
};

class GaussianBncl final : public Localizer {
 public:
  explicit GaussianBncl(GaussianBnclConfig config = {});

  [[nodiscard]] std::string name() const override {
    std::string name = config_.robustness.robust_likelihood
                           ? "bncl-gauss-robust"
                           : "bncl-gauss";
    if (config_.transport.async) name += "-async";
    return name;
  }
  [[nodiscard]] LocalizationResult localize(const Scenario& scenario,
                                            Rng& rng) const override;

  [[nodiscard]] const GaussianBnclConfig& config() const noexcept {
    return config_;
  }

 private:
  GaussianBnclConfig config_;
};

}  // namespace bnloc
