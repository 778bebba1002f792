#include "baselines/minmax.hpp"

#include <algorithm>

namespace bnloc {

LocalizationResult MinMaxLocalizer::localize(const Scenario& scenario,
                                             Rng& /*rng*/) const {
  LocalizationResult result = make_result_skeleton(scenario);

  for (std::size_t i = 0; i < scenario.node_count(); ++i) {
    if (scenario.is_anchor[i]) continue;
    bool any = false;
    Aabb box{{-1e30, -1e30}, {1e30, 1e30}};
    for (const Neighbor& nb : scenario.graph.neighbors(i)) {
      if (!scenario.is_anchor[nb.node]) continue;
      const Vec2 a = scenario.anchor_position(nb.node);
      box.lo.x = std::max(box.lo.x, a.x - nb.weight);
      box.lo.y = std::max(box.lo.y, a.y - nb.weight);
      box.hi.x = std::min(box.hi.x, a.x + nb.weight);
      box.hi.y = std::min(box.hi.y, a.y + nb.weight);
      any = true;
    }
    if (!any) continue;
    // Noisy measurements can make the intersection empty; the midpoint of
    // the crossed bounds is still the sensible point estimate.
    result.estimates[i] = scenario.field.clamp(box.center());
  }

  result.comm.rounds = 1;
  result.comm.messages_sent = scenario.anchor_count();
  for (std::size_t a : scenario.anchor_indices()) {
    result.comm.messages_received += scenario.graph.degree(a);
    result.comm.bytes_sent += 8;
  }
  result.iterations = 1;
  result.converged = true;
  return result;
}

}  // namespace bnloc
