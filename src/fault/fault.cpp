#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "obs/telemetry.hpp"
#include "radio/ranging.hpp"
#include "support/assert.hpp"

namespace bnloc {

std::size_t FaultLabels::outlier_link_count() const noexcept {
  // Directed slots double-count each undirected link.
  return static_cast<std::size_t>(std::count(link_outlier.begin(),
                                             link_outlier.end(), 1)) /
         2;
}

std::size_t FaultLabels::faulty_anchor_count() const noexcept {
  return static_cast<std::size_t>(
      std::count(anchor_faulty.begin(), anchor_faulty.end(), 1));
}

std::size_t FaultLabels::crashed_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(death_round.begin(), death_round.end(),
                    [](std::size_t r) { return r != kNeverCrashes; }));
}

std::string FaultSpec::validate() const {
  if (!any()) return {};
  if (outlier_fraction > 0.0) {
    if (!(outlier_fraction <= 1.0)) return "outlier_fraction must be <= 1";
    if (!(outlier_tail_scale > 0.0)) return "outlier_tail_scale must be > 0";
  }
  if (crash_fraction > 0.0 && crash_round_min > crash_round_max)
    return "crash_round_min must be <= crash_round_max";
  if (reboot_fraction > 0.0) {
    if (reboot_delay_min > reboot_delay_max)
      return "reboot_delay_min must be <= reboot_delay_max";
    if (reboot_delay_min < 1)
      return "reboot_delay_min must be >= 1: a node cannot reboot in its "
             "death round";
  }
  return {};
}

FaultInjector::FaultInjector(const FaultSpec& spec) : spec_(spec) {
  BNLOC_ASSERT_VALID(spec_);
}

std::vector<unsigned char> FaultInjector::contaminate_links(
    std::vector<Edge>& edges, std::span<const Vec2> positions,
    const RangingSpec& ranging, Rng& rng) const {
  std::vector<unsigned char> outlier(edges.size(), 0);
  if (spec_.outlier_fraction <= 0.0) return outlier;
  BNLOC_ASSERT(ranging.range > 0.0, "ranging range must be positive");
  const double scale = spec_.outlier_tail_scale * ranging.range;
  std::size_t injected = 0;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (!rng.bernoulli(spec_.outlier_fraction)) continue;
    outlier[e] = 1;
    ++injected;
    // The direct path is blocked; the radio measures a longer bounce path:
    // true distance plus an exponential excess (heavy right tail).
    const double true_dist =
        distance(positions[edges[e].u], positions[edges[e].v]);
    edges[e].weight = true_dist + rng.exponential(1.0 / scale);
  }
  if (injected) obs::count("fault.outlier_links", injected);
  return outlier;
}

std::vector<unsigned char> FaultInjector::drift_anchors(
    std::vector<Vec2>& reported, const std::vector<bool>& is_anchor,
    const Aabb& field, Rng& rng) const {
  std::vector<unsigned char> faulty(reported.size(), 0);
  if (spec_.faulty_anchor_fraction <= 0.0) return faulty;
  std::vector<std::size_t> anchors;
  for (std::size_t i = 0; i < reported.size(); ++i)
    if (is_anchor[i]) anchors.push_back(i);
  const auto n_faulty = static_cast<std::size_t>(std::round(
      spec_.faulty_anchor_fraction * static_cast<double>(anchors.size())));
  if (n_faulty == 0) return faulty;
  const auto picks =
      rng.sample_indices(anchors.size(), std::min(n_faulty, anchors.size()));
  const double drift = spec_.anchor_drift * field.width();
  for (std::size_t p : picks) {
    const std::size_t a = anchors[p];
    faulty[a] = 1;
    const double angle = rng.uniform(0.0, 6.283185307179586);
    reported[a] = field.clamp(
        reported[a] + Vec2{std::cos(angle), std::sin(angle)} * drift);
  }
  obs::count("fault.anchors_drifted", picks.size());
  return faulty;
}

std::vector<std::size_t> FaultInjector::schedule_crashes(
    std::size_t node_count, Rng& rng) const {
  std::vector<std::size_t> death(node_count, kNeverCrashes);
  if (spec_.crash_fraction <= 0.0) return death;
  const std::size_t span = spec_.crash_round_max - spec_.crash_round_min + 1;
  std::size_t scheduled = 0;
  for (std::size_t i = 0; i < node_count; ++i)
    if (rng.bernoulli(spec_.crash_fraction)) {
      death[i] = spec_.crash_round_min + rng.uniform_index(span);
      ++scheduled;
    }
  if (scheduled) obs::count("fault.crashes_scheduled", scheduled);
  return death;
}

std::vector<std::size_t> FaultInjector::schedule_reboots(
    std::span<const std::size_t> death_rounds, Rng& rng) const {
  if (spec_.reboot_fraction <= 0.0) return {};
  std::vector<std::size_t> reboot(death_rounds.size(), kNeverCrashes);
  const std::size_t span =
      spec_.reboot_delay_max - spec_.reboot_delay_min + 1;
  std::size_t scheduled = 0;
  for (std::size_t i = 0; i < death_rounds.size(); ++i) {
    if (death_rounds[i] == kNeverCrashes) continue;
    if (!rng.bernoulli(spec_.reboot_fraction)) continue;
    reboot[i] =
        death_rounds[i] + spec_.reboot_delay_min + rng.uniform_index(span);
    ++scheduled;
  }
  if (scheduled) obs::count("fault.reboots_scheduled", scheduled);
  return reboot;
}

void finalize_fault_labels(FaultLabels& labels, const Graph& graph,
                           std::span<const Edge> edges,
                           std::span<const unsigned char> edge_outlier) {
  const std::size_t n = graph.node_count();
  labels.active = true;
  if (labels.anchor_faulty.empty()) labels.anchor_faulty.assign(n, 0);
  if (labels.death_round.empty())
    labels.death_round.assign(n, kNeverCrashes);

  // Per-directed-slot outlier flags, aligned with the CSR neighbor order.
  std::unordered_set<std::uint64_t> bad;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (!edge_outlier[e]) continue;
    const auto lo = static_cast<std::uint64_t>(
        std::min(edges[e].u, edges[e].v));
    const auto hi = static_cast<std::uint64_t>(
        std::max(edges[e].u, edges[e].v));
    bad.insert(lo * static_cast<std::uint64_t>(n) + hi);
  }
  labels.link_outlier.clear();
  for (std::size_t u = 0; u < n; ++u) {
    for (const Neighbor& nb : graph.neighbors(u)) {
      const auto lo = static_cast<std::uint64_t>(std::min(u, nb.node));
      const auto hi = static_cast<std::uint64_t>(std::max(u, nb.node));
      labels.link_outlier.push_back(
          bad.count(lo * static_cast<std::uint64_t>(n) + hi) ? 1 : 0);
    }
  }
}

}  // namespace bnloc
