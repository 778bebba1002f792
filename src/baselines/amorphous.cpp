#include "baselines/amorphous.hpp"

#include <cmath>

#include "baselines/dvhop.hpp"
#include "graph/shortest_path.hpp"

namespace bnloc {

double expected_hop_progress(double local_density) {
  // Kleinrock & Silvester (1978):
  //   progress/R = 1 + e^{-n} - Integral_{-1}^{1}
  //       exp(-(n/pi)(arccos t - t sqrt(1 - t^2))) dt,
  // with n the expected neighbor count. Simpson integration is plenty.
  const double n = std::max(local_density, 0.1);
  const auto integrand = [n](double t) {
    const double inner = std::acos(t) - t * std::sqrt(1.0 - t * t);
    return std::exp(-(n / 3.141592653589793) * inner);
  };
  const std::size_t steps = 400;  // even
  const double h = 2.0 / static_cast<double>(steps);
  double integral = integrand(-1.0) + integrand(1.0);
  for (std::size_t k = 1; k < steps; ++k) {
    const double t = -1.0 + h * static_cast<double>(k);
    integral += integrand(t) * (k % 2 == 1 ? 4.0 : 2.0);
  }
  integral *= h / 3.0;
  return 1.0 + std::exp(-n) - integral;
}

LocalizationResult AmorphousLocalizer::localize(const Scenario& scenario,
                                                Rng& /*rng*/) const {
  LocalizationResult result = make_result_skeleton(scenario);
  const auto anchors = scenario.anchor_indices();
  const std::size_t n = scenario.node_count();
  if (anchors.size() < config_.min_anchors) return result;

  const auto hops = multi_source_hops(scenario.graph, anchors);

  // Smoothed hop values: average own hop count with the neighbors', then
  // subtract 0.5 (Nagpal's gradient smoothing).
  std::vector<std::vector<double>> value(anchors.size(),
                                         std::vector<double>(n));
  for (std::size_t a = 0; a < anchors.size(); ++a) {
    for (std::size_t i = 0; i < n; ++i) {
      if (hops[a][i] == kUnreachableHops) {
        value[a][i] = -1.0;
        continue;
      }
      if (!config_.smooth_hops) {
        value[a][i] = static_cast<double>(hops[a][i]);
        continue;
      }
      double sum = static_cast<double>(hops[a][i]);
      std::size_t count = 1;
      for (const Neighbor& nb : scenario.graph.neighbors(i)) {
        if (hops[a][nb.node] == kUnreachableHops) continue;
        sum += static_cast<double>(hops[a][nb.node]);
        ++count;
      }
      value[a][i] =
          std::max(0.0, sum / static_cast<double>(count) - 0.5);
    }
  }

  const double hop_dist =
      expected_hop_progress(scenario.graph.average_degree()) *
      scenario.radio.range;

  for (std::size_t i = 0; i < n; ++i) {
    if (scenario.is_anchor[i]) continue;
    std::vector<Vec2> pos;
    std::vector<double> dist;
    for (std::size_t a = 0; a < anchors.size(); ++a) {
      if (value[a][i] < 0.0) continue;
      pos.push_back(scenario.anchor_position(anchors[a]));
      dist.push_back(value[a][i] * hop_dist);
    }
    if (pos.size() < config_.min_anchors) continue;
    if (auto p = lateration(pos, dist))
      result.estimates[i] = scenario.field.clamp(*p);
  }

  // Protocol cost mirrors DV-Hop's flood, plus one local exchange for the
  // smoothing pass.
  result.comm.rounds = 2;
  result.comm.messages_sent = (anchors.size() + 1) * n;
  result.comm.bytes_sent = result.comm.messages_sent * 12;
  for (std::size_t u = 0; u < n; ++u)
    result.comm.messages_received +=
        (anchors.size() + 1) * scenario.graph.degree(u);
  result.iterations = 1;
  result.converged = true;
  return result;
}

}  // namespace bnloc
