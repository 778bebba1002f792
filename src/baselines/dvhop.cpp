#include "baselines/dvhop.hpp"

#include <cmath>

#include "graph/shortest_path.hpp"
#include "linalg/solve.hpp"
#include "obs/telemetry.hpp"
#include "support/assert.hpp"
#include "support/timer.hpp"

namespace bnloc {

std::optional<Vec2> lateration(std::span<const Vec2> anchors,
                               std::span<const double> distances) {
  BNLOC_ASSERT(anchors.size() == distances.size(),
               "lateration input size mismatch");
  if (anchors.size() < 3) return std::nullopt;
  // Standard linearization: subtract the last equation from the others.
  const std::size_t m = anchors.size() - 1;
  const Vec2 ref = anchors.back();
  const double dref = distances.back();
  Matrix a(m, 2);
  std::vector<double> b(m);
  for (std::size_t k = 0; k < m; ++k) {
    a(k, 0) = 2.0 * (anchors[k].x - ref.x);
    a(k, 1) = 2.0 * (anchors[k].y - ref.y);
    b[k] = anchors[k].norm_sq() - ref.norm_sq() + dref * dref -
           distances[k] * distances[k];
  }
  const auto x = solve_least_squares(a, b);
  if (!x) return std::nullopt;
  const Vec2 p{(*x)[0], (*x)[1]};
  if (!std::isfinite(p.x) || !std::isfinite(p.y)) return std::nullopt;
  return p;
}

LocalizationResult DvHopLocalizer::localize(const Scenario& scenario,
                                            Rng& /*rng*/) const {
  const Stopwatch watch;
  LocalizationResult result = make_result_skeleton(scenario);
  const bool tracing = obs::trace_active();
  if (tracing) obs::trace_begin(name());
  obs::count("dvhop.runs");
  const auto anchors = scenario.anchor_indices();
  if (anchors.size() < config_.min_anchors) {
    result.seconds = watch.seconds();
    return result;
  }

  // Phase 1: hop-count flood from every anchor.
  obs::Span flood_span("dvhop.hop_flood");
  const auto hops = multi_source_hops(scenario.graph, anchors);
  flood_span.close();

  // Phase 2: per-anchor average hop length from anchor-to-anchor geometry.
  obs::Span corrections_span("dvhop.corrections");
  std::vector<double> hop_len(anchors.size(), 0.0);
  for (std::size_t a = 0; a < anchors.size(); ++a) {
    double dist_sum = 0.0;
    std::size_t hop_sum = 0;
    for (std::size_t b = 0; b < anchors.size(); ++b) {
      if (a == b) continue;
      const std::size_t h = hops[a][anchors[b]];
      if (h == kUnreachableHops) continue;
      dist_sum += distance(scenario.anchor_position(anchors[a]),
                           scenario.anchor_position(anchors[b]));
      hop_sum += h;
    }
    hop_len[a] = hop_sum > 0 ? dist_sum / static_cast<double>(hop_sum)
                             : scenario.radio.range;
  }

  corrections_span.close();

  // Phase 3: unknowns adopt the correction of their nearest (fewest hops)
  // anchor and trilaterate on hop-estimated distances.
  obs::Span lateration_span("dvhop.lateration");
  for (std::size_t i = 0; i < scenario.node_count(); ++i) {
    if (scenario.is_anchor[i]) continue;
    std::size_t nearest = anchors.size();
    std::size_t best_h = kUnreachableHops;
    for (std::size_t a = 0; a < anchors.size(); ++a) {
      if (hops[a][i] < best_h) {
        best_h = hops[a][i];
        nearest = a;
      }
    }
    if (nearest == anchors.size()) continue;  // disconnected from anchors
    const double correction = hop_len[nearest];
    std::vector<Vec2> pos;
    std::vector<double> dist;
    for (std::size_t a = 0; a < anchors.size(); ++a) {
      const std::size_t h = hops[a][i];
      if (h == kUnreachableHops) continue;
      pos.push_back(scenario.anchor_position(anchors[a]));
      dist.push_back(correction * static_cast<double>(h));
    }
    if (pos.size() < config_.min_anchors) continue;
    if (auto p = lateration(pos, dist))
      result.estimates[i] = scenario.field.clamp(*p);
  }
  lateration_span.close();

  // Protocol cost: each anchor flood traverses the whole network once
  // (every node rebroadcasts the best hop count once per anchor), plus the
  // correction-factor flood.
  const std::size_t n = scenario.node_count();
  result.comm.rounds = 2;
  result.comm.messages_sent = (anchors.size() + 1) * n;
  result.comm.bytes_sent = result.comm.messages_sent * 12;
  for (std::size_t u = 0; u < n; ++u)
    result.comm.messages_received +=
        (anchors.size() + 1) * scenario.graph.degree(u);
  result.iterations = 1;
  result.converged = true;
  // One-shot algorithm: the trace is a single row of the final state.
  if (tracing)
    obs::record_round(scenario, 1, 0.0, result.estimates, result.comm);
  result.seconds = watch.seconds();
  return result;
}

}  // namespace bnloc
