#include "baselines/refinement.hpp"

#include <algorithm>
#include <cmath>

#include "baselines/dvhop.hpp"
#include "baselines/minmax.hpp"
#include "obs/telemetry.hpp"
#include "support/timer.hpp"

namespace bnloc {

LocalizationResult MultilaterationLocalizer::localize(
    const Scenario& scenario, Rng& /*rng*/) const {
  const Stopwatch watch;
  LocalizationResult result = make_result_skeleton(scenario);
  for (std::size_t i = 0; i < scenario.node_count(); ++i) {
    if (scenario.is_anchor[i]) continue;
    std::vector<Vec2> pos;
    std::vector<double> dist;
    for (const Neighbor& nb : scenario.graph.neighbors(i)) {
      if (!scenario.is_anchor[nb.node]) continue;
      pos.push_back(scenario.anchor_position(nb.node));
      dist.push_back(nb.weight);
    }
    if (auto p = lateration(pos, dist))
      result.estimates[i] = scenario.field.clamp(*p);
  }
  result.comm.rounds = 1;
  result.comm.messages_sent = scenario.anchor_count();
  for (std::size_t a : scenario.anchor_indices())
    result.comm.messages_received += scenario.graph.degree(a);
  result.comm.bytes_sent = scenario.anchor_count() * 8;
  result.iterations = 1;
  result.converged = true;
  result.seconds = watch.seconds();
  return result;
}

LocalizationResult RefinementLocalizer::localize(const Scenario& scenario,
                                                 Rng& rng) const {
  const Stopwatch watch;
  const std::size_t n = scenario.node_count();
  LocalizationResult result = make_result_skeleton(scenario);

  // --- Stage 1: coarse initialization. -----------------------------------
  const DvHopLocalizer dvhop;
  const MinMaxLocalizer minmax;
  LocalizationResult init_dv = dvhop.localize(scenario, rng);
  LocalizationResult init_mm = minmax.localize(scenario, rng);
  result.comm.merge(init_dv.comm);

  std::vector<Vec2> estimate(n);
  std::vector<double> confidence(n, config_.initial_confidence);
  for (std::size_t i = 0; i < n; ++i) {
    if (scenario.is_anchor[i]) {
      estimate[i] = scenario.anchor_position(i);
      confidence[i] = 1.0;
    } else if (init_dv.estimates[i]) {
      estimate[i] = *init_dv.estimates[i];
    } else if (init_mm.estimates[i]) {
      estimate[i] = *init_mm.estimates[i];
    } else {
      estimate[i] = scenario.field.center();
      confidence[i] = config_.initial_confidence * 0.5;
    }
  }

  // --- Stage 2: iterative weighted Gauss-Newton refinement. --------------
  // Trace begins here so stage 1's dvhop run doesn't clobber this trace.
  const bool tracing = obs::trace_active();
  if (tracing) obs::trace_begin(name());
  obs::count("refine.runs");
  std::vector<std::optional<Vec2>> traced_estimates;  // tracing only
  obs::Span rounds_span("refine.rounds");
  std::vector<Vec2> staged = estimate;
  std::size_t iter = 0;
  for (; iter < config_.max_iterations; ++iter) {
    double max_motion = 0.0;
    double sum_motion = 0.0;
    std::size_t unknowns = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (scenario.is_anchor[i]) continue;
      const auto nbs = scenario.graph.neighbors(i);
      if (nbs.empty()) continue;
      // Gauss-Newton normal equations for sum_j w_j (||x - p_j|| - d_j)^2,
      // assembled as 2x2 directly.
      double lxx = 0, lxy = 0, lyy = 0, gx = 0, gy = 0, wsum = 0;
      for (const Neighbor& nb : nbs) {
        Vec2 u = estimate[i] - estimate[nb.node];
        double dist = u.norm();
        if (dist < 1e-9) {
          // Coincident estimates: nudge in a deterministic direction.
          u = {1.0, 0.0};
          dist = 1e-9;
        } else {
          u = u / dist;
        }
        const double w = confidence[nb.node];
        const double residual = dist - nb.weight;
        lxx += w * u.x * u.x;
        lxy += w * u.x * u.y;
        lyy += w * u.y * u.y;
        gx += w * u.x * residual;
        gy += w * u.y * residual;
        wsum += w;
      }
      if (wsum <= 0.0) continue;
      const double det = lxx * lyy - lxy * lxy;
      Vec2 step;
      if (det > 1e-12) {
        step = {-(lyy * gx - lxy * gy) / det, -(lxx * gy - lxy * gx) / det};
      } else {
        // Rank-1 geometry (collinear neighbors): gradient step.
        step = {-gx / wsum, -gy / wsum};
      }
      // Trust region: never move more than one radio range per iteration.
      const double len = step.norm();
      if (len > scenario.radio.range)
        step = step * (scenario.radio.range / len);
      const Vec2 next = scenario.field.clamp(
          estimate[i] + step * config_.step_damping);
      const double motion =
          distance(next, estimate[i]) / scenario.radio.range;
      max_motion = std::max(max_motion, motion);
      sum_motion += motion;
      ++unknowns;
      staged[i] = next;
      // Confidence grows toward the mean of neighbor confidences as the
      // node stabilizes.
      confidence[i] =
          std::min(1.0, 0.5 * confidence[i] + 0.5 * (wsum /
                    static_cast<double>(nbs.size())));
    }
    for (std::size_t i = 0; i < n; ++i)
      if (!scenario.is_anchor[i]) estimate[i] = staged[i];

    // Protocol cost: one position broadcast per node per round.
    result.comm.rounds += 1;
    result.comm.messages_sent += n;
    result.comm.bytes_sent += n * 12;
    for (std::size_t u = 0; u < n; ++u)
      result.comm.messages_received += scenario.graph.degree(u);

    const double mean_motion =
        unknowns ? sum_motion / static_cast<double>(unknowns) : 0.0;
    result.change_per_iteration.push_back(mean_motion);
    if (tracing) {
      traced_estimates.assign(n, std::nullopt);
      for (std::size_t i = 0; i < n; ++i)
        if (!scenario.is_anchor[i]) traced_estimates[i] = estimate[i];
      obs::record_round(scenario, iter + 1, mean_motion, traced_estimates,
                        result.comm);
    }
    if (max_motion < config_.convergence_tol && iter >= 2) {
      result.converged = true;
      ++iter;
      break;
    }
  }
  rounds_span.close();
  obs::count(result.converged ? "refine.converged" : "refine.maxed_out");

  for (std::size_t i = 0; i < n; ++i)
    if (!scenario.is_anchor[i]) result.estimates[i] = estimate[i];
  result.iterations = iter;
  result.seconds = watch.seconds();
  return result;
}

}  // namespace bnloc
