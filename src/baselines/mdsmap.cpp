#include "baselines/mdsmap.hpp"

#include <algorithm>
#include <cmath>

#include "graph/shortest_path.hpp"
#include "linalg/eigen.hpp"
#include "linalg/procrustes.hpp"

namespace bnloc {

LocalizationResult MdsMapLocalizer::localize(const Scenario& scenario,
                                             Rng& rng) const {
  const std::size_t n = scenario.node_count();
  LocalizationResult result = make_result_skeleton(scenario);

  // Work on the giant component only: MDS needs finite pairwise distances.
  const auto labels = connected_components(scenario.graph);
  std::vector<std::size_t> comp_size(
      *std::max_element(labels.begin(), labels.end()) + 1, 0);
  for (std::size_t l : labels) ++comp_size[l];
  const std::size_t giant = static_cast<std::size_t>(
      std::max_element(comp_size.begin(), comp_size.end()) -
      comp_size.begin());

  std::vector<std::size_t> members;
  for (std::size_t i = 0; i < n; ++i)
    if (labels[i] == giant) members.push_back(i);
  const std::size_t m = members.size();
  if (m < 3) return result;

  // All-pairs shortest weighted paths within the component.
  Matrix d2(m, m);  // squared distances
  for (std::size_t a = 0; a < m; ++a) {
    const auto dist = dijkstra(scenario.graph, members[a]);
    for (std::size_t b = 0; b < m; ++b) {
      const double d = dist[members[b]];
      d2(a, b) = std::isfinite(d) ? d * d : 0.0;
    }
  }
  // Symmetrize (Dijkstra is exact, but guard against fp asymmetry).
  for (std::size_t a = 0; a < m; ++a)
    for (std::size_t b = a + 1; b < m; ++b) {
      const double v = 0.5 * (d2(a, b) + d2(b, a));
      d2(a, b) = v;
      d2(b, a) = v;
    }

  // Classical MDS: B = -1/2 J D^2 J with J = I - 11^T/m.
  std::vector<double> row_mean(m, 0.0);
  double grand = 0.0;
  for (std::size_t a = 0; a < m; ++a) {
    for (std::size_t b = 0; b < m; ++b) row_mean[a] += d2(a, b);
    row_mean[a] /= static_cast<double>(m);
    grand += row_mean[a];
  }
  grand /= static_cast<double>(m);
  Matrix b_mat(m, m);
  for (std::size_t a = 0; a < m; ++a)
    for (std::size_t b = 0; b < m; ++b)
      b_mat(a, b) = -0.5 * (d2(a, b) - row_mean[a] - row_mean[b] + grand);

  const auto pairs = config_.exact_eigen
                         ? jacobi_eigen(b_mat)
                         : top_eigenpairs(b_mat, 2, rng);
  if (pairs.size() < 2 || pairs[0].value <= 0.0 || pairs[1].value <= 0.0)
    return result;

  std::vector<Vec2> relative(m);
  const double s0 = std::sqrt(pairs[0].value);
  const double s1 = std::sqrt(pairs[1].value);
  for (std::size_t a = 0; a < m; ++a)
    relative[a] = {pairs[0].vector[a] * s0, pairs[1].vector[a] * s1};

  // Align the relative map to the anchors in this component.
  std::vector<Vec2> src, dst;
  for (std::size_t a = 0; a < m; ++a) {
    if (!scenario.is_anchor[members[a]]) continue;
    src.push_back(relative[a]);
    dst.push_back(scenario.anchor_position(members[a]));
  }
  if (src.size() < 3) {
    // Under 3 anchors the similarity transform is under-determined (the
    // reflection cannot be resolved); report nothing rather than a mirror.
    return result;
  }
  const Transform2 tf = fit_procrustes(src, dst, /*allow_scale=*/true);
  for (std::size_t a = 0; a < m; ++a) {
    const std::size_t node = members[a];
    if (scenario.is_anchor[node]) continue;
    result.estimates[node] = scenario.field.clamp(tf.apply(relative[a]));
  }

  // Protocol cost: centralized collection — every node's neighbor list is
  // routed to a sink (~sqrt(n) hops average on a grid-like field).
  const auto route_hops = static_cast<std::size_t>(
      std::max(1.0, std::sqrt(static_cast<double>(n)) / 2.0));
  result.comm.rounds = 1;
  result.comm.messages_sent = n * route_hops;
  result.comm.bytes_sent =
      scenario.graph.edge_count() * 12 * route_hops;
  result.comm.messages_received = result.comm.messages_sent;
  result.iterations = 1;
  result.converged = true;
  return result;
}

}  // namespace bnloc
