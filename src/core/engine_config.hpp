// Shared configuration blocks embedded in every BNCL engine config.
//
// The three engines (grid / particle / gaussian) grew the same robustness
// and iteration knobs independently; this header is the single definition
// both of the fields and of their semantics. Engine configs embed these
// structs by value (`config.robustness.stale_ttl`, ...), overriding the
// defaults that differ per engine with designated initializers, so adding a
// knob here adds it to every engine at once.
#pragma once

#include <cstddef>
#include <string>

#include "net/transport.hpp"  // TransportConfig

namespace bnloc {

/// Fault countermeasures (F13). All off by default; every field is a no-op
/// on a fault-free scenario, so enabling the engines' robust variants never
/// changes clean-scenario behavior.
struct RobustnessConfig {
  /// Use a robust range likelihood so a single NLOS outlier link cannot
  /// veto the true position. Grid and particle engines mix the nominal
  /// density with a one-sided exponential NLOS tail (ε-contamination,
  /// parameterized below); the Gaussian engine applies the analogous
  /// Huber/IRLS residual downweighting (GaussianBnclConfig::huber_k).
  bool robust_likelihood = false;
  /// ε-contamination mixture weight of the NLOS tail (grid/particle).
  double contamination_epsilon = 0.1;
  /// NLOS tail scale as a multiple of the radio range (grid/particle).
  double contamination_tail_scale = 1.5;
  /// Residual-vet reported anchor positions (fault/anchor_vetting.hpp);
  /// flagged anchors are demoted to wide-prior unknowns instead of pinning
  /// their neighborhood to a lie.
  bool anchor_vetting = false;
  /// Drop a neighbor's last-received summary after this many consecutive
  /// undelivered rounds, so dead neighbors decay out of the posterior
  /// instead of freezing it. 0 disables (the non-robust behavior).
  std::size_t stale_ttl = 0;
  /// Partial-neighborhood gate: skip a node's belief update in rounds where
  /// fewer than this fraction of its neighbors are usable (heard from and
  /// not TTL-stale). Holding the previous belief beats integrating a
  /// neighborhood that is mostly silence — during a partition, an update
  /// from the 1-2 reachable neighbors would drag the posterior toward
  /// whatever side of the cut they happen to sit on; under the async
  /// transport it also keeps early rounds from committing to straggler
  /// partial inboxes while summaries are still in flight. 0 disables.
  double update_quorum = 0.0;
  /// Maximum consecutive rounds the quorum gate may hold a node. When the
  /// streak is exhausted the gate *disarms* — the node updates with
  /// whatever is reachable — until a full quorum is next observed, which
  /// re-arms it. This bounds how long a permanent cut can freeze a node,
  /// and it makes starts where quorum is structurally unreachable
  /// self-releasing instead of deadlocked: with diffuse priors nobody has
  /// passed the informative-coverage publish gate yet, so a patience-less
  /// whole-neighborhood quorum would hold every node forever (nobody
  /// updates because nobody is informative because nobody updates).
  std::size_t quorum_patience = 4;

  /// Empty when every engine accepts these knobs, else the reason.
  [[nodiscard]] std::string validate() const {
    if (!(update_quorum >= 0.0 && update_quorum <= 1.0))
      return "update_quorum must be in [0, 1]";
    return {};
  }
};

/// Belief-update message scheduling policy (ROADMAP item 1; the residual
/// ordering follows the hierarchical scheduling argument of
/// arXiv:1509.02534).
enum class SchedulePolicy {
  /// Integrate every link every round — the paper's broadcast semantics
  /// and the historical engine behavior, bit for bit.
  round_robin,
  /// Process only the top-residual fraction of this round's *changed*
  /// links; the rest replay their cached message and integrate the new
  /// summary in a later round. Links whose sender went quiet replay their
  /// cached message too; this policy extends that from "skip unchanged
  /// senders" to "defer barely-changed senders".
  residual,
};

/// Residual-prioritized scheduling knobs (inference/scheduler.hpp),
/// shared by every engine that adopts the policy. In the grid engine
/// `residual` also owns the message and product caches a deferred link
/// replays from; `round_robin` runs hold neither.
struct ScheduleConfig {
  SchedulePolicy policy = SchedulePolicy::round_robin;
  /// Fraction of this round's changed links granted integration, in
  /// (0, 1]. The budget applies to *candidates* only — first-heard
  /// summaries, TTL retirements, and recoveries always process — and at
  /// least one candidate is granted per round, so progress never stalls.
  /// 0.35 is the measured sweet spot on the default scenario (P4): ~45%
  /// fewer grid.cell_visits at error parity; tighter budgets throttle the
  /// mid-game and give the savings back as extra rounds.
  double link_budget_frac = 0.35;
  /// Staleness floor: the maximum consecutive rounds a changed link may be
  /// deferred. A link that exhausts the floor is promoted past the budget
  /// (counted in `sched.starvation_promotions`), bounding how stale any
  /// integrated summary can be. Must be >= 1 under the residual policy.
  std::size_t starvation_rounds = 4;

  /// Empty when ResidualScheduler accepts these knobs, else the reason.
  /// Engines check it under the residual policy only.
  [[nodiscard]] std::string validate() const {
    if (!(link_budget_frac > 0.0 && link_budget_frac <= 1.0))
      return "link_budget_frac must be in (0, 1]";
    if (starvation_rounds < 1) return "starvation_rounds must be >= 1";
    return {};
  }
};

/// Outer-loop iteration knobs shared by every engine.
struct IterationConfig {
  /// Hard cap on belief-propagation rounds.
  std::size_t max_iterations = 24;
  /// Early-stop threshold on the per-round change statistic. The statistic
  /// is engine-specific (documented at each engine config): mean belief
  /// total-variation change for the grid engine, mean estimate motion as a
  /// fraction of the radio range for the particle and Gaussian engines.
  double convergence_tol = 0.01;
};

}  // namespace bnloc
