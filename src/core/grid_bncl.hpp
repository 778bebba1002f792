// GridBncl: the paper's core algorithm, grid-discretized flavor.
//
// Bayesian-network cooperative localization: every node holds a belief over
// its own position; anchors hold deltas, unknowns start from their
// pre-knowledge prior. Nodes repeatedly broadcast a sparse summary of their
// belief; on reception, a node rebuilds its belief as
//
//     b_i(x)  proportional to  p_i(x) * prod_{j in N(i)} m_{j->i}(x),
//     m_{j->i}(x) = sum_y b_j(y) * L(d_ij | ||x - y||),
//
// the broadcast (SPAWN-style) variant of loopy belief propagation on the
// pairwise position network — each iteration rebuilds the belief from the
// prior and the *current* neighbor beliefs, so evidence is not double-
// counted across iterations. Messages are annulus-kernel correlations
// (see inference/range_kernel.hpp); each run memoizes its kernels on the
// exact measured distance in a cache of its own (inference/kernel_cache.hpp),
// so symmetric links and repeated distances build one kernel, and nothing
// outlives the run.
//
// Protocol economics built in:
//  * a node stays silent until its belief is concentrated enough to be
//    worth a packet (uninformative-flooding suppression);
//  * a localized node re-broadcasts only when its belief moved by more than
//    a fixed total-variation tolerance;
//  * payloads are the sparse top-cells summary, sent and metered as its
//    wire encoding (inference/summary_codec.hpp: bounding box, presence
//    bitmap, 16-bit masses) through the transport (net/transport.hpp;
//    optionally lossy); receivers integrate exactly what the bytes decode
//    to.
#pragma once

#include <string>

#include "core/engine_config.hpp"
#include "core/localizer.hpp"

namespace bnloc {

struct GridBnclConfig {
  std::size_t grid_side = 48;       ///< cells per field side.
  /// Coarse-to-fine pyramid (PR5): number of resolution levels. 1 (default)
  /// is the single-resolution run. Every run bounds its first level's
  /// per-node work by the prior's support (a flat prior keeps the full
  /// grid). With L > 1 the run starts on a coarse grid (side ≈
  /// grid_side·l/L per level, floored at 8) and refines: at each level
  /// switch every node's belief is upsampled (mass-conserving area overlap,
  /// inference/pyramid.hpp), published summaries are translated
  /// receiver-locally (no extra radio traffic), and the belief's support
  /// becomes a per-node region of interest so the fine levels only evaluate
  /// cells the coarse levels did not already rule out. Early rounds run on
  /// the coarse rungs, so the budget in `iteration.max_iterations` is split
  /// across levels (each coarse level gets at most max_iterations/(L+1)
  /// rounds; the finest level gets the remainder). Sensible with
  /// max_iterations ≳ 4·L. It pays at fine grids only (P2 medians: 1.8×
  /// at side 96; 1.1× at 48, where it also takes more rounds and radio
  /// traffic).
  std::size_t pyramid_levels = 1;
  /// Shared outer-loop knobs. `convergence_tol` here is the *mean* belief
  /// total-variation change per round (estimates plateau earlier than
  /// individual beliefs settle).
  IterationConfig iteration{.max_iterations = 24, .convergence_tol = 0.01};
  double damping = 0.3;             ///< linear belief damping in [0, 1).
  /// Fold in two-hop non-links ("j cannot hear k, so k is probably outside
  /// j's range"). In a Bayesian network over the deployment, the *absence*
  /// of an edge is evidence too; it prunes mirror-image ghost modes and is
  /// the single largest tail-error reduction in the engine (see F12).
  /// Each node folds in at most 12 non-link factors. A far node's factor
  /// is the same map for every receiver, so the engine builds it once per
  /// published summary version and level (one connectivity-kernel replay
  /// over the box the summary touches) and each receiver reads it over its
  /// region of interest, bit-identical to a per-receiver replay.
  bool use_negative_evidence = true;

  /// Fault countermeasures (F13); see core/engine_config.hpp. For this
  /// engine `robust_likelihood` selects the ε-contamination range
  /// likelihood (nominal density mixed with a one-sided exponential NLOS
  /// tail) so a single outlier link cannot veto the true position cell.
  RobustnessConfig robustness;

  /// Transport selection (PR6); see core/engine_config.hpp. Default is the
  /// synchronous lockstep radio (bit-identical to every prior run). With
  /// `transport.async` the engine rides the event-driven AsyncRadio:
  /// summaries become sequence-numbered packets with latency, retries, and
  /// churn, receivers integrate whatever their inbox holds (however stale),
  /// and the degradation ladder — TTL retirement, `robustness.update_quorum`
  /// holds, heartbeat republish, store-and-forward reboot re-entry — keeps
  /// the posterior honest. `transport.radio.loss` is the loss of either
  /// link layer: per directed link per round under sync, per *attempt*
  /// under async. Both sit behind one Transport (net/transport.hpp).
  TransportConfig transport;

  /// Message scheduling policy (ROADMAP item 1); see core/engine_config.hpp
  /// and inference/scheduler.hpp. `round_robin` (default) rebuilds every
  /// unknown's belief from every input every round and caches no message.
  /// With `residual` the engine adds a serial scan phase between publish
  /// and update that ranks the round's changed links by pending residual —
  /// receiver-coherently: each link carries its receiver's total
  /// unintegrated publish residual, so budget cuts land on receiver
  /// boundaries and whole receivers collapse to the product fast path —
  /// and defers everything below `sched.link_budget_frac`; deferred links
  /// replay their cached message until the budget — or the
  /// `sched.starvation_rounds` floor — lets the new summary in. The policy
  /// owns the caches it replays from: one entry per input slot holding the
  /// last message's support box inside the receiver's region of interest
  /// (a non-link's entry holds only the shared negative-evidence map it
  /// read, see `use_negative_evidence`), plus each node's last product, so
  /// its memory grows with links × ROI, like the beliefs. Rides both
  /// transports; deterministic at any thread count (the scan is serial, the
  /// update phase only reads the decision bitmap).
  ScheduleConfig sched;

  /// Worker threads for the node-parallel phases within a round (the
  /// per-node parallelism pilot, F14 part B; extended in PR5). Three phases
  /// split across the pool: the Jacobi belief update (including its first
  /// pass, which builds the negative-evidence maps, one far node each), the
  /// publish phase's decide/sparsify pass, and the staged→current belief
  /// commit. All are independent across nodes — each reads the round-start
  /// summaries and writes only its own slots — and the order-sensitive
  /// effects (publish version numbers, metered radio traffic) are committed
  /// by a serial second pass in node order, so any thread count yields
  /// bit-identical results. 1 (default) keeps the engine single-threaded so trial-level
  /// parallelism above it never oversubscribes; 0 selects hardware
  /// concurrency.
  std::size_t threads = 1;

  /// Empty when GridBncl accepts this config, else the reason (a nested
  /// block's reason is prefixed with the block: `sched.`, `robustness.`,
  /// `transport.`).
  [[nodiscard]] std::string validate() const;
};

class GridBncl final : public Localizer {
 public:
  /// Sparse-summary payload budget: a broadcast carries the top cells of
  /// its belief up to this much mass, at most kMaxSupportCells of them.
  static constexpr double kSupportMass = 0.995;
  static constexpr std::size_t kMaxSupportCells = 192;

  explicit GridBncl(GridBnclConfig config = {});

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] LocalizationResult localize(const Scenario& scenario,
                                            Rng& rng) const override;

  [[nodiscard]] const GridBnclConfig& config() const noexcept {
    return config_;
  }

 private:
  GridBnclConfig config_;
};

}  // namespace bnloc
