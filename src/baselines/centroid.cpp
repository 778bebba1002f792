#include "baselines/centroid.hpp"

namespace bnloc {

LocalizationResult CentroidLocalizer::localize(const Scenario& scenario,
                                               Rng& /*rng*/) const {
  LocalizationResult result = make_result_skeleton(scenario);

  for (std::size_t i = 0; i < scenario.node_count(); ++i) {
    if (scenario.is_anchor[i]) continue;
    Vec2 acc{};
    double total_weight = 0.0;
    for (const Neighbor& nb : scenario.graph.neighbors(i)) {
      if (!scenario.is_anchor[nb.node]) continue;
      const double w =
          config_.distance_weighted ? 1.0 / std::max(nb.weight, 1e-6) : 1.0;
      acc += scenario.anchor_position(nb.node) * w;
      total_weight += w;
    }
    if (total_weight > 0.0) result.estimates[i] = acc / total_weight;
  }

  // Protocol cost: every anchor beacons once; no iterative traffic.
  result.comm.rounds = 1;
  result.comm.messages_sent = scenario.anchor_count();
  for (std::size_t a : scenario.anchor_indices()) {
    result.comm.messages_received += scenario.graph.degree(a);
    result.comm.bytes_sent += 8;  // one coordinate pair
  }
  result.iterations = 1;
  result.converged = true;
  return result;
}

}  // namespace bnloc
