#include "fault/anchor_vetting.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "obs/telemetry.hpp"

namespace bnloc {

std::size_t AnchorVetReport::flagged_count() const noexcept {
  return static_cast<std::size_t>(
      std::count(flagged.begin(), flagged.end(), 1));
}

namespace {

struct PairEvidence {
  std::size_t a = 0;
  std::size_t b = 0;
  double magnitude = 0.0;  ///< worst residual, in combined sigmas.
  bool violated = false;
};

}  // namespace

AnchorVetReport vet_anchors(const Scenario& scenario,
                            const AnchorVetConfig& config) {
  const obs::Span vet_span("fault.vet_anchors");
  const std::size_t n = scenario.node_count();
  AnchorVetReport report;
  report.flagged.assign(n, 0);
  report.violations.assign(n, 0);
  const RangingSpec& ranging = scenario.radio.ranging;

  // --- Gather pair evidence, keyed by the (a < b) anchor pair -------------
  std::unordered_map<std::uint64_t, PairEvidence> pairs;
  const auto note = [&](std::size_t a, std::size_t b, double magnitude,
                        bool violated) {
    if (a > b) std::swap(a, b);
    PairEvidence& ev =
        pairs[static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(n) +
              static_cast<std::uint64_t>(b)];
    ev.a = a;
    ev.b = b;
    ev.magnitude = std::max(ev.magnitude, magnitude);
    ev.violated = ev.violated || violated;
  };

  for (std::size_t u = 0; u < n; ++u) {
    if (scenario.is_anchor[u]) {
      // Direct anchor-anchor links: two-sided residual against the reported
      // geometry.
      for (const Neighbor& nb : scenario.graph.neighbors(u)) {
        if (!scenario.is_anchor[nb.node] || nb.node <= u) continue;
        const double g = distance(scenario.anchor_position(u),
                                  scenario.anchor_position(nb.node));
        const double sigma = std::max(ranging.sigma_at(nb.weight), 1e-12);
        const double v = std::abs(g - nb.weight) / sigma;
        note(u, nb.node, v, v > config.violation_sigmas);
      }
      continue;
    }
    // Shared-neighbor feasibility: every pair of anchors this unknown heard
    // must have reported positions within ring-intersection reach.
    std::vector<const Neighbor*> anchor_nbs;
    for (const Neighbor& nb : scenario.graph.neighbors(u))
      if (scenario.is_anchor[nb.node]) anchor_nbs.push_back(&nb);
    for (std::size_t i = 0; i + 1 < anchor_nbs.size(); ++i) {
      for (std::size_t j = i + 1; j < anchor_nbs.size(); ++j) {
        const Neighbor& na = *anchor_nbs[i];
        const Neighbor& nbb = *anchor_nbs[j];
        const double g = distance(scenario.anchor_position(na.node),
                                  scenario.anchor_position(nbb.node));
        const double hi = na.weight + nbb.weight;
        const double lo = std::abs(na.weight - nbb.weight);
        const double sigma = std::max(
            std::hypot(ranging.sigma_at(na.weight),
                       ranging.sigma_at(nbb.weight)),
            1e-12);
        const double excess = std::max(g - hi, lo - g);
        const double v = excess / sigma;
        note(na.node, nbb.node, std::max(v, 0.0),
             v > config.violation_sigmas + config.slack_sigmas);
      }
    }
  }

  // --- Greedy culprit attribution -----------------------------------------
  // Flag the anchor carrying the most violated pairs, retire its pairs, and
  // repeat: partners of a flagged anchor get their shared violations back,
  // so ranging against a liar does not convict an honest node.
  std::vector<std::size_t> violated_count(n, 0);
  std::vector<double> violated_sum(n, 0.0);
  std::vector<PairEvidence> live;
  live.reserve(pairs.size());
  for (const auto& [key, ev] : pairs) {
    (void)key;
    if (!ev.violated) continue;
    live.push_back(ev);
    ++violated_count[ev.a];
    ++violated_count[ev.b];
    violated_sum[ev.a] += ev.magnitude;
    violated_sum[ev.b] += ev.magnitude;
  }
  while (true) {
    std::size_t worst = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (violated_count[i] == 0) continue;
      if (worst == n || violated_count[i] > violated_count[worst] ||
          (violated_count[i] == violated_count[worst] &&
           violated_sum[i] > violated_sum[worst]))
        worst = i;
    }
    if (worst == n || violated_count[worst] < config.min_violations) break;
    report.flagged[worst] = 1;
    report.violations[worst] = violated_count[worst];
    for (const PairEvidence& ev : live) {
      if (ev.a != worst && ev.b != worst) continue;
      const std::size_t other = ev.a == worst ? ev.b : ev.a;
      if (violated_count[other] > 0) {
        --violated_count[other];
        violated_sum[other] -= ev.magnitude;
      }
    }
    violated_count[worst] = 0;
    violated_sum[worst] = 0.0;
    std::erase_if(live, [worst](const PairEvidence& ev) {
      return ev.a == worst || ev.b == worst;
    });
  }
  if (const std::size_t flagged = report.flagged_count())
    obs::count("fault.anchors_flagged", flagged);
  return report;
}

}  // namespace bnloc
