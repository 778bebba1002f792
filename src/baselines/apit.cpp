#include "baselines/apit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace bnloc {

bool point_in_triangle(Vec2 p, Vec2 a, Vec2 b, Vec2 c) noexcept {
  const double d1 = (p - a).cross(b - a);
  const double d2 = (p - b).cross(c - b);
  const double d3 = (p - c).cross(a - c);
  const bool has_neg = (d1 < 0) || (d2 < 0) || (d3 < 0);
  const bool has_pos = (d1 > 0) || (d2 > 0) || (d3 > 0);
  return !(has_neg && has_pos);
}

namespace {

/// Measured distance from `node` to `anchor` if they share a link.
double link_distance(const Scenario& s, std::size_t node,
                     std::size_t anchor) {
  for (const Neighbor& nb : s.graph.neighbors(node))
    if (nb.node == anchor) return nb.weight;
  return -1.0;
}

}  // namespace

LocalizationResult ApitLocalizer::localize(const Scenario& scenario,
                                           Rng& /*rng*/) const {
  LocalizationResult result = make_result_skeleton(scenario);
  const std::size_t n = scenario.node_count();
  const std::size_t g = config_.scan_grid;

  std::vector<int> scan(g * g);
  for (std::size_t i = 0; i < n; ++i) {
    if (scenario.is_anchor[i]) continue;

    // Audible anchors and my measured distances to them.
    std::vector<std::size_t> audible;
    std::vector<double> my_dist;
    for (const Neighbor& nb : scenario.graph.neighbors(i)) {
      if (!scenario.is_anchor[nb.node]) continue;
      audible.push_back(nb.node);
      my_dist.push_back(nb.weight);
    }
    if (audible.size() < 3) continue;

    std::fill(scan.begin(), scan.end(), 0);
    std::size_t inside_votes = 0;
    std::size_t tested = 0;
    for (std::size_t x = 0;
         x < audible.size() && tested < config_.max_triangles; ++x) {
      for (std::size_t y = x + 1;
           y < audible.size() && tested < config_.max_triangles; ++y) {
        for (std::size_t z = y + 1;
             z < audible.size() && tested < config_.max_triangles; ++z) {
          ++tested;
          // Approximate PIT: a neighbor that is closer to (or farther
          // from) ALL THREE corners than I am is evidence that moving in
          // some direction leaves the triangle => I am outside.
          bool outside = false;
          for (const Neighbor& nb : scenario.graph.neighbors(i)) {
            if (scenario.is_anchor[nb.node]) continue;
            const double da = link_distance(scenario, nb.node, audible[x]);
            const double db = link_distance(scenario, nb.node, audible[y]);
            const double dc = link_distance(scenario, nb.node, audible[z]);
            if (da < 0.0 || db < 0.0 || dc < 0.0) continue;
            const bool all_closer = da < my_dist[x] && db < my_dist[y] &&
                                    dc < my_dist[z];
            const bool all_farther = da > my_dist[x] && db > my_dist[y] &&
                                     dc > my_dist[z];
            if (all_closer || all_farther) {
              outside = true;
              break;
            }
          }
          const int vote = outside ? -1 : 1;
          if (!outside) ++inside_votes;
          const Vec2 pa = scenario.anchor_position(audible[x]);
          const Vec2 pb = scenario.anchor_position(audible[y]);
          const Vec2 pc = scenario.anchor_position(audible[z]);
          for (std::size_t cy = 0; cy < g; ++cy) {
            for (std::size_t cx = 0; cx < g; ++cx) {
              const Vec2 center{
                  scenario.field.lo.x +
                      scenario.field.width() *
                          (static_cast<double>(cx) + 0.5) /
                          static_cast<double>(g),
                  scenario.field.lo.y +
                      scenario.field.height() *
                          (static_cast<double>(cy) + 0.5) /
                          static_cast<double>(g)};
              if (point_in_triangle(center, pa, pb, pc))
                scan[cy * g + cx] += vote;
            }
          }
        }
      }
    }
    if (inside_votes == 0) continue;  // every triangle voted outside

    // Center of gravity of the maximum-overlap cells.
    const int best = *std::max_element(scan.begin(), scan.end());
    if (best <= 0) continue;
    Vec2 acc{};
    std::size_t count = 0;
    for (std::size_t cy = 0; cy < g; ++cy) {
      for (std::size_t cx = 0; cx < g; ++cx) {
        if (scan[cy * g + cx] != best) continue;
        acc += Vec2{scenario.field.lo.x +
                        scenario.field.width() *
                            (static_cast<double>(cx) + 0.5) /
                            static_cast<double>(g),
                    scenario.field.lo.y +
                        scenario.field.height() *
                            (static_cast<double>(cy) + 0.5) /
                            static_cast<double>(g)};
        ++count;
      }
    }
    result.estimates[i] = acc / static_cast<double>(count);
  }

  // Protocol cost: anchor beacons plus one neighborhood exchange of
  // per-anchor signal strengths.
  result.comm.rounds = 2;
  result.comm.messages_sent = scenario.anchor_count() + n;
  result.comm.bytes_sent = scenario.anchor_count() * 8 + n * 16;
  for (std::size_t u = 0; u < n; ++u)
    result.comm.messages_received += scenario.graph.degree(u);
  result.iterations = 1;
  result.converged = true;
  return result;
}

}  // namespace bnloc
