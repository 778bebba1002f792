// Residual-prioritized message scheduler (ROADMAP item 1).
//
// Loopy belief propagation spends most of its late-round budget on updates
// that barely move the posterior: a sender whose belief shifted by 0.002 TV
// forces every receiver to rebuild its whole product, even though the
// receivers' beliefs will move by less than the convergence tolerance.
// Residual scheduling (the residual-BP idea — see arXiv:1509.02534 for the
// hierarchical-scheduling variant this repo anchors on) ranks the round's
// *changed* links by pending residual and grants integration only to the
// top `link_budget_frac` of them. Deferred links replay their cached
// message, so a receiver whose every changed input was deferred collapses
// to the whole-product fast path — that is where the cell-visit savings
// come from. The scheduler itself is priority-agnostic: the grid engine
// feeds it *receiver-coherent* priorities (every changed link of a
// receiver carries the receiver's summed pending residual — the
// node-granular "splash" flavor of residual scheduling), because SPAWN
// rebuilds a whole product the moment any one input changes, making the
// receiver's rebuild, not the link, the engine's unit of cost.
//
// Determinism contract: the scheduler is fed by a serial scan in node
// order, sorts with a total order — (residual_bits desc, node asc, slot
// asc), where residual_bits is the IEEE-754 bit pattern of the non-negative
// residual (monotone, so the comparison is exact; no float ties broken by
// address or hash) — and publishes a per-slot bitmap that the parallel
// update phase only reads. The schedule is therefore a pure function of
// the round's inputs: bit-identical at any thread count, and identical
// under async replay of the same event sequence.
//
// Starvation floor: a candidate deferred `starvation_rounds` consecutive
// times is promoted past the budget. Together with the always-process
// rules for first-heard / retired / recovered links (enforced by the
// caller's candidacy filter, not here), no link's integrated summary can
// lag its published one by more than `starvation_rounds` rounds.
//
// Residual ledger: sender-side residual accounting, exact and
// transport-agnostic. Every publish appends its sender's running residual
// total (the TV its belief moved since its previous publish, summed over
// its lifetime) under the publish's global version; each slot remembers
// the total of the version it last integrated. A changed slot's pending
// residual is the difference — the sum of every publish the receiver has
// not folded in yet, even when the async transport skipped intermediate
// versions. The ledger persists across pyramid levels (versions do too).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/engine_config.hpp"

namespace bnloc {

/// Outcome counts for one scheduling round (the `sched.*` obs counters).
struct ScheduleRoundStats {
  std::uint64_t processed = 0;   ///< candidates granted integration
  std::uint64_t deferred = 0;    ///< candidates pushed to a later round
  std::uint64_t promotions = 0;  ///< grants forced by the starvation floor
};

class ResidualScheduler {
 public:
  /// `slot_count` is the total directed-slot space (links + non-links);
  /// slots index the same CSR layout the engine's message caches use.
  /// `node_count` sizes the ledger's per-sender accounts.
  ResidualScheduler(const ScheduleConfig& config, std::size_t slot_count,
                    std::size_t node_count);

  /// Forget the deferral state (defer bitmap and starvation streaks; the
  /// ledger persists). Called at a pyramid level switch: messages are
  /// resolution-specific, every slot's first integration at the new level
  /// must process.
  void reset_level();

  /// Forget one slot's deferral debt (defer bit and streak). Called when a
  /// receiver reboots: its RAM-resident schedule state is gone with it.
  void reset_slot(std::size_t slot);

  /// Start a round: clears last round's deferrals and the candidate list.
  void begin_round();

  /// Offer a changed link for scheduling. `residual` is the pending sender
  /// residual the receiver has not yet integrated (non-negative; total
  /// variation units). Must be called from a single thread, in scan order.
  void add_candidate(std::uint32_t node, std::uint32_t slot, double residual);

  /// Rank the candidates and decide the round's deferrals.
  void commit_round();

  /// Was `slot` deferred this round? Pure read — safe from the parallel
  /// update phase once commit_round() returned.
  [[nodiscard]] bool deferred(std::size_t slot) const noexcept {
    return defer_[slot] != 0;
  }

  [[nodiscard]] const ScheduleRoundStats& round_stats() const noexcept {
    return stats_;
  }

  /// Ledger: stage the residual of `node`'s publish this round (1 for a
  /// first announcement, which receivers never defer). Writes only
  /// `node`'s entry, so node-parallel phases may call it.
  void stage_publish(std::size_t node, double residual) noexcept {
    pub_residual_[node] = residual;
  }
  /// Ledger: commit `node`'s staged residual as publish version `ver`.
  /// Serial, in version order (versions are the global publish sequence).
  void commit_publish(std::size_t node, std::uint64_t ver);
  /// Ledger: the residual `slot` has not integrated when it moves to
  /// version `ver`.
  [[nodiscard]] double pending(std::size_t slot,
                               std::uint64_t ver) const noexcept {
    return ver_accum_[ver] - seen_accum_[slot];
  }
  /// Ledger: `slot` integrated version `ver`.
  void integrate(std::size_t slot, std::uint64_t ver) noexcept {
    seen_accum_[slot] = ver_accum_[ver];
  }

 private:
  struct Candidate {
    std::uint64_t residual_bits;  ///< IEEE bit pattern; monotone for x >= 0
    std::uint32_t node;
    std::uint32_t slot;
  };

  ScheduleConfig config_;
  std::vector<Candidate> candidates_;
  std::vector<unsigned char> defer_;    ///< this round's decisions, per slot
  std::vector<std::uint32_t> streak_;   ///< consecutive deferrals, per slot
  ScheduleRoundStats stats_{};
  std::vector<double> pub_residual_;  ///< staged publish residual, per node
  std::vector<double> node_accum_;    ///< running residual total, per node
  std::vector<double> ver_accum_;     ///< sender's total at each version
  std::vector<double> seen_accum_;    ///< total last integrated, per slot
};

}  // namespace bnloc
