#include "core/gaussian_bncl.hpp"

#include <algorithm>
#include <cmath>

#include <optional>

#include "core/robustness.hpp"
#include "inference/gaussian2d.hpp"
#include "net/transport.hpp"
#include "obs/telemetry.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace bnloc {

namespace {

/// Anchor belief standard deviation (anchors are exact).
constexpr double kAnchorSigma = 1e-4;

}  // namespace

std::string GaussianBnclConfig::validate() const {
  if (!(damping >= 0.0 && damping < 1.0)) return "damping must be in [0, 1)";
  if (std::string why = robustness.validate(); !why.empty())
    return "robustness." + why;
  if (std::string why = transport.validate(); !why.empty())
    return "transport." + why;
  return {};
}

GaussianBncl::GaussianBncl(GaussianBnclConfig config) : config_(config) {
  BNLOC_ASSERT_VALID(config_);
}

LocalizationResult GaussianBncl::localize(const Scenario& scenario,
                                          Rng& rng) const {
  const Stopwatch watch;
  const std::size_t n = scenario.node_count();
  LocalizationResult result = make_result_skeleton(scenario);
  const bool tracing = obs::trace_active();
  if (tracing) obs::trace_begin(name());
  obs::count("gauss.runs");
  const obs::Span run_span("gauss.run");

  // Anchor vetting: a flagged anchor starts from its wide prior — its
  // reported mean with a radio-range-wide covariance — and is re-estimated
  // like an unknown, so its lie is softened instead of propagated at anchor
  // confidence.
  const AnchorRoles roles(scenario, config_.robustness);

  std::vector<Gaussian2> belief(n), prior(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (roles.acts_anchor(i)) {
      belief[i].mean = scenario.anchor_position(i);
      belief[i].cov = Cov2::isotropic(kAnchorSigma * kAnchorSigma);
    } else {
      const PositionPrior& p = roles.prior(i);
      // An informative prior's mean is the best linearization point; for an
      // uninformative (uniform) prior, every node starting at the field
      // center makes all inter-node directions degenerate, so scatter the
      // starting means by sampling instead.
      belief[i].mean = p.is_informative() ? p.mean() : p.sample(rng);
      belief[i].cov = p.covariance();
    }
    prior[i] = belief[i];
    prior[i].mean = scenario.is_anchor[i] ? belief[i].mean
                                          : scenario.priors[i]->mean();
  }
  Transport<Gaussian2> transport(scenario, config_.transport,
                                 config_.robustness.stale_ttl,
                                 rng.split(0x5ad10));
  // Every node's starting belief is on file from the outset, so under sync
  // a dropped delivery falls back to it (versions are the publishing round,
  // ignored by this engine).
  for (std::size_t u = 0; u < n; ++u) transport.reset(u, 1, belief[u]);
  // A Gaussian summary is mean + covariance: 5 floats = 20 bytes.
  constexpr std::size_t kPayloadBytes = 20;
  QuorumGate quorum(config_.robustness, n);

  std::vector<Gaussian2> staged = belief;
  std::vector<std::optional<Vec2>> traced_estimates;  // tracing only
  // Work counter: range factors folded into an information accumulator —
  // this engine's unit of useful work, the analogue of grid.cell_visits
  // (the engine is serial, so a plain accumulator is thread-safe).
  std::uint64_t factor_visits = 0;
  obs::Span rounds_span("gauss.rounds");
  std::size_t iter = 0;
  for (; iter < config_.iteration.max_iterations; ++iter) {
    transport.begin_round();
    std::size_t huber_downweighted = 0;
    std::size_t quorum_held = 0;

    // Reboot cold restart: the node's belief re-initializes from its prior
    // (linearized at the prior mean — the RAM holding the refined estimate
    // is gone), and so does its published state, so the sync fallback on a
    // dropped delivery is the prior too. Every-round publishing re-seeds
    // neighbors from this round on.
    for (const std::uint32_t r : transport.rebooted()) {
      if (roles.acts_anchor(r)) continue;
      belief[r] = prior[r];
      staged[r] = prior[r];
      transport.reset(r, iter + 1, prior[r]);
      quorum.rearm(r);
      obs::count("gauss.reboots");
    }

    for (std::size_t u = 0; u < n; ++u) {
      if (transport.crashed(u)) continue;  // published state freezes at death
      transport.publish(u, iter + 1, belief[u], kPayloadBytes);
    }

    double max_motion = 0.0;
    double sum_motion = 0.0;
    std::size_t unknowns = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (roles.acts_anchor(i)) continue;
      if (transport.crashed(i)) continue;  // dead nodes stop computing too
      const auto nbs = scenario.graph.neighbors(i);

      // Usable summary for the k-th incoming link this round, or nullptr
      // (never heard, or TTL-retired). Pure read.
      const auto slot_src = [&](std::size_t k) -> const Gaussian2* {
        return transport.input(transport.slot(i, k)).payload;
      };

      // Partial-neighborhood quorum: with most of the neighborhood
      // unreachable, hold the previous estimate rather than follow the
      // skewed remainder.
      const bool held = quorum.hold(i, nbs.size(), [&] {
        std::size_t usable = 0;
        for (std::size_t k = 0; k < nbs.size(); ++k)
          if (slot_src(k) != nullptr) ++usable;
        return usable;
      });
      if (held) {
        ++quorum_held;
        staged[i] = belief[i];
        continue;
      }

      InfoAccumulator acc(prior[i]);
      for (std::size_t k = 0; k < nbs.size(); ++k) {
        const Neighbor& nb = nbs[k];
        const Gaussian2* src_ptr = slot_src(k);
        if (src_ptr == nullptr) continue;
        const Gaussian2& src = *src_ptr;
        double sigma = scenario.radio.ranging.sigma_at(nb.weight);
        if (config_.robustness.robust_likelihood) {
          // Huber/IRLS: beyond k sigmas, weight w = k*sigma/|r| — realized
          // here by inflating the observation noise by 1/sqrt(w).
          const double residual =
              std::abs(nb.weight - distance(belief[i].mean, src.mean));
          const double gate = config_.huber_k * sigma;
          if (residual > gate) {
            sigma *= std::sqrt(residual / gate);
            ++huber_downweighted;
          }
        }
        acc.add_range(src, belief[i].mean, nb.weight, sigma);
        ++factor_visits;
      }
      Gaussian2 post = acc.posterior();
      // Damp the mean; keep the fresher covariance.
      post.mean = lerp(post.mean, belief[i].mean, config_.damping);
      post.mean = scenario.field.clamp(post.mean);
      const double motion =
          distance(post.mean, belief[i].mean) / scenario.radio.range;
      max_motion = std::max(max_motion, motion);
      sum_motion += motion;
      ++unknowns;
      staged[i] = post;
    }
    for (std::size_t i = 0; i < n; ++i)
      if (!roles.acts_anchor(i) && !transport.crashed(i)) belief[i] = staged[i];

    const double mean_motion =
        unknowns ? sum_motion / static_cast<double>(unknowns) : 0.0;
    result.change_per_iteration.push_back(mean_motion);
    // Fixed-point 1e-9 of the serially-folded residual: thread-invariant.
    obs::observe_scaled("gauss.round.residual", mean_motion, 1e9);
    if (tracing) {
      traced_estimates.assign(n, std::nullopt);
      for (std::size_t i = 0; i < n; ++i)
        if (!scenario.is_anchor[i]) traced_estimates[i] = belief[i].mean;
      obs::RobustActivity robust;
      robust.links_downweighted = huber_downweighted;
      robust.stale_links = transport.stale_links();
      robust.crashed_nodes = transport.crashed_count();
      robust.anchors_demoted = roles.demoted();
      robust.quorum_held = quorum_held;
      obs::record_round(scenario, iter + 1, mean_motion, traced_estimates,
                        transport.stats(), robust);
    }
    if (max_motion < config_.iteration.convergence_tol && quorum_held == 0 &&
        iter >= 2) {
      result.converged = true;
      ++iter;
      break;
    }
  }
  rounds_span.close();
  obs::count("gauss.factor_visits", factor_visits);
  obs::count(result.converged ? "gauss.converged" : "gauss.maxed_out");

  for (std::size_t i = 0; i < n; ++i) {
    if (scenario.is_anchor[i]) continue;
    result.estimates[i] = belief[i].mean;
    result.covariances[i] = belief[i].cov;
  }
  result.iterations = iter;
  result.comm = transport.stats();
  result.transport_hash = transport.hash();
  result.seconds = watch.seconds();
  return result;
}

}  // namespace bnloc
