// Fault-injection layer: the failure modes a deployed WSN actually has.
//
// Three fault families, each seeded and deterministic in (scenario seed,
// fault seed), each with ground-truth labels the evaluation layer may see
// but algorithms may not:
//
//  * NLOS outliers — with probability `outlier_fraction` a link's measured
//    distance is replaced by a positively-biased heavy-tailed draw
//    (true distance + Exp(tail_scale)), the standard abstraction of a
//    multipath/non-line-of-sight reflection: the direct path is blocked and
//    the radio measures a longer bounce path. Labels are per undirected
//    link, stored per directed CSR slot for O(1) lookup during scoring.
//
//  * Faulty anchors — a fraction of anchors *report* a position offset from
//    their true one by `anchor_drift` (fraction of the field width) in a
//    random direction: mis-surveyed installation, GPS multipath, or a node
//    swapped during maintenance. Algorithms see only the reported position;
//    evaluation keeps the truth and the labels.
//
//  * Crashes — with probability `crash_fraction` a node gets a death round
//    drawn uniformly from [crash_round_min, crash_round_max]; after that
//    round SyncRadio delivers none of its broadcasts (battery death,
//    firmware hang). Labels are the per-node death rounds.
//
// The injector is a no-op when the spec is empty: a zero-fault scenario is
// bit-identical to one built without the fault layer (verified by tests),
// so every existing experiment is unaffected.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/vec2.hpp"
#include "graph/adjacency.hpp"
#include "support/rng.hpp"

namespace bnloc {

struct RangingSpec;

/// Death round sentinel: the node never crashes.
inline constexpr std::size_t kNeverCrashes =
    std::numeric_limits<std::size_t>::max();

struct FaultSpec {
  /// Per-link probability that the measurement is an NLOS outlier.
  double outlier_fraction = 0.0;
  /// Mean of the exponential excess path, as a fraction of the radio range.
  double outlier_tail_scale = 1.5;
  /// Fraction of anchors whose reported position drifts.
  double faulty_anchor_fraction = 0.0;
  /// Drift magnitude as a fraction of the field width.
  double anchor_drift = 0.15;
  /// Per-node probability of dying mid-protocol.
  double crash_fraction = 0.0;
  std::size_t crash_round_min = 2;
  std::size_t crash_round_max = 10;
  /// Fraction of crashed nodes that come back (battery swap / watchdog
  /// reboot). A recovering node's reboot round is its death round plus a
  /// uniform delay from [reboot_delay_min, reboot_delay_max]. 0 keeps the
  /// pre-PR6 semantics: crashes are permanent.
  double reboot_fraction = 0.0;
  std::size_t reboot_delay_min = 4;
  std::size_t reboot_delay_max = 12;
  /// Combined with the scenario seed; the same (config, fault seed) pair
  /// yields byte-identical fault labels.
  std::uint64_t seed = 0;

  /// True when any fault family is enabled.
  [[nodiscard]] bool any() const noexcept {
    return outlier_fraction > 0.0 || faulty_anchor_fraction > 0.0 ||
           crash_fraction > 0.0;
  }

  /// Empty when FaultInjector accepts this spec, else the reason. Each
  /// family's window is checked only while its fraction is > 0, and an
  /// empty spec (`!any()`) injects nothing, so it is always valid.
  [[nodiscard]] std::string validate() const;
};

/// Ground-truth record of what was injected. Evaluation-only: a Localizer
/// consulting these labels is cheating exactly like reading true_positions.
struct FaultLabels {
  bool active = false;
  /// Per directed CSR slot (aligned with Graph neighbor order): 1 when the
  /// link's measurement is an NLOS outlier. Empty when inactive.
  std::vector<unsigned char> link_outlier;
  /// Per node: 1 when the node is an anchor reporting a drifted position.
  std::vector<unsigned char> anchor_faulty;
  /// Per node: round after which the node stops transmitting.
  std::vector<std::size_t> death_round;
  /// Per node: round from which a crashed node transmits again
  /// (kNeverCrashes = stays dead). Empty when reboot_fraction is 0.
  std::vector<std::size_t> reboot_round;

  [[nodiscard]] std::size_t outlier_link_count() const noexcept;
  [[nodiscard]] std::size_t faulty_anchor_count() const noexcept;
  [[nodiscard]] std::size_t crashed_count() const noexcept;
};

/// Applies a FaultSpec to the raw scenario ingredients. Stateless apart from
/// the spec; all randomness comes from the Rng handed in (derived from the
/// scenario seed by build_scenario, so scenarios stay deterministic).
class FaultInjector {
 public:
  explicit FaultInjector(const FaultSpec& spec);

  /// Contaminate measured link distances in place. `positions` supplies the
  /// true geometry for the outlier re-draw; returns per-*edge* labels in the
  /// order of `edges`.
  std::vector<unsigned char> contaminate_links(std::vector<Edge>& edges,
                                               std::span<const Vec2> positions,
                                               const RangingSpec& ranging,
                                               Rng& rng) const;

  /// Pick faulty anchors and offset their reported positions in place.
  /// `reported` starts as a copy of the true positions.
  std::vector<unsigned char> drift_anchors(std::vector<Vec2>& reported,
                                           const std::vector<bool>& is_anchor,
                                           const Aabb& field, Rng& rng) const;

  /// Draw the per-node crash schedule.
  std::vector<std::size_t> schedule_crashes(std::size_t node_count,
                                            Rng& rng) const;

  /// Draw the per-node reboot schedule for an already-drawn crash schedule.
  /// Returns an empty vector when reboot_fraction is 0 (no draws consumed,
  /// so existing crash-only scenarios replay bit-identically).
  std::vector<std::size_t> schedule_reboots(
      std::span<const std::size_t> death_rounds, Rng& rng) const;

  [[nodiscard]] const FaultSpec& spec() const noexcept { return spec_; }

 private:
  FaultSpec spec_;
};

/// Expand per-edge outlier labels to per-directed-CSR-slot labels matching
/// `graph`'s neighbor order.
void finalize_fault_labels(FaultLabels& labels, const Graph& graph,
                           std::span<const Edge> edges,
                           std::span<const unsigned char> edge_outlier);

}  // namespace bnloc
