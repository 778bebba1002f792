// ParticleBncl: nonparametric-belief-propagation flavor of BNCL.
//
// Beliefs are weighted particle clouds (Ihler et al., 2005 style). Each
// iteration, every unknown reweights a refreshed particle cloud by
//
//   w_p  proportional to  p_i(x_p) * prod_j [ (1/M) sum_k L(d_ij | ||x_p - y_jk||) ],
//
// where y_jk are M particles subsampled from neighbor j's cloud, followed by
// systematic resampling and KDE regularization. Part of each cloud is
// re-drawn from the prior and from neighbor "range rings" every iteration so
// the posterior support can move away from a poor initial sample — the
// standard mixture-proposal trick, with the importance correction dropped
// (documented approximation, also used in published SPAWN implementations).
#pragma once

#include <string>

#include "core/engine_config.hpp"
#include "core/localizer.hpp"

namespace bnloc {

struct ParticleBnclConfig {
  std::size_t particle_count = 128;  ///< K particles per node.
  /// Shared outer-loop knobs. `convergence_tol` here is the mean estimate
  /// movement per round as a fraction of the radio range.
  IterationConfig iteration{.max_iterations = 16, .convergence_tol = 0.01};

  /// Fault countermeasures (F13); see core/engine_config.hpp. For this
  /// engine `robust_likelihood` selects the ε-contamination range
  /// likelihood in the particle reweighting so an NLOS outlier link cannot
  /// zero the particles near the true position.
  RobustnessConfig robustness;

  /// Transport selection (PR6); see core/engine_config.hpp. Under the async
  /// transport each round's subsampled cloud is a sequence-numbered packet;
  /// receivers reweight against whatever cloud their inbox last accepted.
  /// Like the Gaussian engine this one broadcasts every round, so
  /// heartbeats and reboot relays are moot.
  TransportConfig transport;

  /// Empty when ParticleBncl accepts this config, else the reason.
  [[nodiscard]] std::string validate() const;
};

class ParticleBncl final : public Localizer {
 public:
  explicit ParticleBncl(ParticleBnclConfig config = {});

  [[nodiscard]] std::string name() const override {
    std::string name = config_.robustness.robust_likelihood
                           ? "bncl-particle-robust"
                           : "bncl-particle";
    if (config_.transport.async) name += "-async";
    return name;
  }
  [[nodiscard]] LocalizationResult localize(const Scenario& scenario,
                                            Rng& rng) const override;

  [[nodiscard]] const ParticleBnclConfig& config() const noexcept {
    return config_;
  }

 private:
  ParticleBnclConfig config_;
};

}  // namespace bnloc
