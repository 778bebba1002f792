#include "core/particle_bncl.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/robustness.hpp"
#include "inference/particle_set.hpp"
#include "net/transport.hpp"
#include "obs/telemetry.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace bnloc {

namespace {

/// Neighbor particles subsampled into each published message (M).
constexpr std::size_t kMessageSubsample = 24;
static_assert(kMessageSubsample >= 1, "message subsample empty");

/// Fractions of a cloud re-drawn every round from the prior and on
/// neighbor range rings (the mixture proposal).
constexpr double kPriorRefreshFraction = 0.15;
constexpr double kRingRefreshFraction = 0.25;
static_assert(kPriorRefreshFraction + kRingRefreshFraction < 1.0,
              "refresh fractions must leave room for surviving particles");

/// Ignore messages from neighbors whose published cloud has RMS spread
/// above this many radio ranges: a near-uniform cloud carries no
/// information, only Monte-Carlo noise, and multiplying several such noisy
/// factors randomizes the weights (the particle analogue of the grid
/// engine's informative-coverage gate).
constexpr double kInformativeSpread = 1.5;

/// What a node puts on the air each round: the subsampled cloud plus its RMS
/// spread (the receiver-side informativeness gate travels with the payload).
struct ParticleSummary {
  std::vector<Vec2> pts;
  double spread = 1e30;
};

}  // namespace

std::string ParticleBnclConfig::validate() const {
  if (particle_count < 8) return "particle_count must be >= 8";
  if (std::string why = robustness.validate(); !why.empty())
    return "robustness." + why;
  if (std::string why = transport.validate(); !why.empty())
    return "transport." + why;
  return {};
}

ParticleBncl::ParticleBncl(ParticleBnclConfig config) : config_(config) {
  BNLOC_ASSERT_VALID(config_);
}

LocalizationResult ParticleBncl::localize(const Scenario& scenario,
                                          Rng& rng) const {
  const Stopwatch watch;
  const std::size_t n = scenario.node_count();
  const std::size_t k_particles = config_.particle_count;
  LocalizationResult result = make_result_skeleton(scenario);
  const bool tracing = obs::trace_active();
  if (tracing) obs::trace_begin(name());
  obs::count("particle.runs");
  const obs::Span run_span("particle.run");
  obs::Span setup_span("particle.setup");

  // Anchor vetting: flagged anchors trade their delta cloud for a
  // radio-range-wide one and re-estimate like unknowns.
  const AnchorRoles roles(scenario, config_.robustness);
  const RangingSpec ranging = likelihood_ranging(scenario, config_.robustness);

  Rng init_rng = rng.split(0x9a111);
  std::vector<ParticleSet> belief;
  belief.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    belief.push_back(roles.acts_anchor(i)
                         ? ParticleSet::delta(scenario.anchor_position(i),
                                              k_particles)
                         : ParticleSet::from_prior(roles.prior(i), k_particles,
                                                   init_rng));
  }
  const double spread_gate = kInformativeSpread * scenario.radio.range;

  Transport<ParticleSummary> transport(scenario, config_.transport,
                                       config_.robustness.stale_ttl,
                                       rng.split(0x5ad10));
  Rng work_rng = rng.split(0x40c);
  QuorumGate quorum(config_.robustness, n);

  std::vector<Vec2> prev_mean(n);
  for (std::size_t i = 0; i < n; ++i) prev_mean[i] = belief[i].mean();

  std::vector<double> weights(k_particles);
  std::vector<std::optional<Vec2>> traced_estimates;  // tracing only
  setup_span.close();
  // Work counter: particle-times-cloud-point likelihood evaluations in the
  // reweight pass — this engine's unit of useful work, the analogue of
  // grid.cell_visits (the engine is serial, so a plain accumulator works).
  std::uint64_t weight_evals = 0;
  obs::Span rounds_span("particle.rounds");
  std::size_t iter = 0;
  for (; iter < config_.iteration.max_iterations; ++iter) {
    transport.begin_round();
    std::size_t quorum_held = 0;

    // Reboot cold restart: the rebooted node re-draws its cloud from its
    // prior (the RAM holding the refined particles is gone) and its
    // published clouds are cleared, so under sync a dropped delivery from it
    // serves nothing until it has published twice. Every-round publishing
    // re-seeds neighbors from the next round on.
    for (const std::uint32_t r : transport.rebooted()) {
      if (roles.acts_anchor(r)) continue;
      belief[r] = ParticleSet::from_prior(roles.prior(r), k_particles,
                                          work_rng);
      prev_mean[r] = belief[r].mean();
      transport.reset(r, 0, {});
      quorum.rearm(r);
      obs::count("particle.reboots");
    }

    // Publish: every node broadcasts a subsample of its cloud each round
    // (particle beliefs have no cheap silence criterion; this matches the
    // constant-duty-cycle NBP protocol). A crashed node's published cloud
    // freezes at its last alive state.
    for (std::size_t u = 0; u < n; ++u) {
      if (transport.crashed(u)) continue;
      const auto idx =
          belief[u].subsample(kMessageSubsample, work_rng);
      ParticleSummary summary;
      summary.pts.reserve(idx.size());
      for (std::size_t p : idx) summary.pts.push_back(belief[u].point(p));
      summary.spread = belief[u].covariance().rms_radius();
      const std::size_t bytes = summary.pts.size() * 8;
      transport.publish(u, iter + 1, std::move(summary), bytes);
    }

    // Update: refresh part of the cloud, then reweight against messages.
    // `k` is the neighbor's index in `to`'s CSR list.
    const auto usable_cloud = [&](std::size_t to,
                                  std::size_t k) -> const std::vector<Vec2>* {
      const ParticleSummary* s = transport.input(transport.slot(to, k)).payload;
      if (s == nullptr || s->pts.empty() || s->spread > spread_gate)
        return nullptr;
      return &s->pts;
    };
    double mean_motion = 0.0;
    std::size_t unknowns = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (roles.acts_anchor(i)) continue;
      if (transport.crashed(i)) continue;  // dead nodes stop computing too
      ParticleSet& b = belief[i];
      const auto nbs = scenario.graph.neighbors(i);

      // Partial-neighborhood quorum: with most of the neighborhood
      // unreachable, hold the cloud rather than reweight against the skewed
      // remainder. (With diffuse priors every cloud is wider than the
      // spread gate, so nobody counts as usable: the gate's bounded
      // patience is what releases such starts.)
      const bool held = quorum.hold(i, nbs.size(), [&] {
        std::size_t usable = 0;
        for (std::size_t kk = 0; kk < nbs.size(); ++kk)
          if (usable_cloud(i, kk) != nullptr) ++usable;
        return usable;
      });
      if (held) {
        ++quorum_held;
        continue;
      }

      // -- proposal refresh: prior samples + neighbor range-ring samples.
      std::vector<Vec2> pts(b.points().begin(), b.points().end());
      const auto n_prior = static_cast<std::size_t>(
          kPriorRefreshFraction * static_cast<double>(k_particles));
      const auto n_ring =
          nbs.empty() ? 0
                      : static_cast<std::size_t>(
                            kRingRefreshFraction *
                            static_cast<double>(k_particles));
      for (std::size_t r = 0; r < n_prior; ++r) {
        const std::size_t slot = work_rng.uniform_index(k_particles);
        pts[slot] = roles.prior(i).sample(work_rng);
      }
      for (std::size_t r = 0; r < n_ring; ++r) {
        const std::size_t kk = work_rng.uniform_index(nbs.size());
        const std::vector<Vec2>* cloud = usable_cloud(i, kk);
        if (!cloud) continue;
        const Vec2 y = (*cloud)[work_rng.uniform_index(cloud->size())];
        const double noisy_r = std::max(
            1e-6, nbs[kk].weight +
                      work_rng.normal(0.0, ranging.sigma_at(nbs[kk].weight)));
        const double theta = work_rng.uniform(0.0, 6.283185307179586);
        const std::size_t slot = work_rng.uniform_index(k_particles);
        pts[slot] = scenario.field.clamp(
            y + Vec2{std::cos(theta), std::sin(theta)} * noisy_r);
      }
      // -- reweight against prior and messages.
      for (std::size_t p = 0; p < pts.size(); ++p) {
        double w = roles.prior(i).density(pts[p]) + 1e-12;
        for (std::size_t kk = 0; kk < nbs.size(); ++kk) {
          const std::vector<Vec2>* cloud = usable_cloud(i, kk);
          if (!cloud) continue;
          double msg = 0.0;
          for (const Vec2& y : *cloud)
            msg += ranging.likelihood(nbs[kk].weight, distance(pts[p], y));
          weight_evals += cloud->size();
          msg /= static_cast<double>(cloud->size());
          // Floor keeps one conflicting link from zeroing the particle.
          w *= msg + 1e-6;
        }
        weights[p] = w;
      }
      b = ParticleSet::from_points(std::move(pts));
      b.set_weights(weights);
      b.resample_systematic(work_rng);
      b.regularize(work_rng);

      const Vec2 m = b.mean();
      mean_motion += distance(m, prev_mean[i]) / scenario.radio.range;
      prev_mean[i] = m;
      ++unknowns;
    }

    const double avg_motion =
        unknowns ? mean_motion / static_cast<double>(unknowns) : 0.0;
    result.change_per_iteration.push_back(avg_motion);
    // Fixed-point 1e-9 of the serially-folded residual: thread-invariant.
    obs::observe_scaled("particle.round.residual", avg_motion, 1e9);
    if (tracing) {
      // prev_mean[i] holds the committed round mean for every non-anchor
      // (crashed nodes keep their last alive mean, same as the final output).
      traced_estimates.assign(n, std::nullopt);
      for (std::size_t i = 0; i < n; ++i)
        if (!scenario.is_anchor[i]) traced_estimates[i] = prev_mean[i];
      obs::RobustActivity robust;
      robust.stale_links = transport.stale_links();
      robust.crashed_nodes = transport.crashed_count();
      robust.anchors_demoted = roles.demoted();
      robust.quorum_held = quorum_held;
      obs::record_round(scenario, iter + 1, avg_motion, traced_estimates,
                        transport.stats(), robust);
    }
    if (avg_motion < config_.iteration.convergence_tol && quorum_held == 0 &&
        iter >= 2) {
      result.converged = true;
      ++iter;
      break;
    }
  }
  rounds_span.close();
  obs::count("particle.weight_evals", weight_evals);
  obs::count(result.converged ? "particle.converged" : "particle.maxed_out");

  for (std::size_t i = 0; i < n; ++i) {
    if (scenario.is_anchor[i]) continue;
    result.estimates[i] = belief[i].mean();
    result.covariances[i] = belief[i].covariance();
  }
  result.iterations = iter;
  result.comm = transport.stats();
  result.transport_hash = transport.hash();
  result.seconds = watch.seconds();
  return result;
}

}  // namespace bnloc
