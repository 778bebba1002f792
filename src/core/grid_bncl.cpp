#include "core/grid_bncl.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "fault/anchor_vetting.hpp"
#include "inference/grid_belief.hpp"
#include "inference/kernel_cache.hpp"
#include "inference/pyramid.hpp"
#include "inference/range_kernel.hpp"
#include "inference/scheduler.hpp"
#include "net/transport.hpp"
#include "obs/telemetry.hpp"
#include "support/assert.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace bnloc {

GridBncl::GridBncl(GridBnclConfig config) : config_(std::move(config)) {
  BNLOC_ASSERT(config_.damping >= 0.0 && config_.damping < 1.0,
               "damping must be in [0, 1)");
  BNLOC_ASSERT(config_.grid_side >= 8, "grid too coarse to be meaningful");
  BNLOC_ASSERT(config_.pyramid_levels >= 1,
               "pyramid needs at least one level");
  BNLOC_ASSERT(config_.pyramid_roi_margin >= 0,
               "ROI margin cannot be negative");
  BNLOC_ASSERT(config_.robustness.update_quorum >= 0.0 &&
                   config_.robustness.update_quorum <= 1.0,
               "update quorum must be a fraction");
  BNLOC_ASSERT(config_.sched.policy != SchedulePolicy::residual ||
                   config_.reuse_messages,
               "residual scheduling requires reuse_messages: a deferred "
               "link replays its cached message");
}

std::string GridBncl::name() const {
  std::string name =
      config_.use_negative_evidence ? "bncl-grid" : "bncl-grid-noneg";
  if (config_.robustness.robust_likelihood) name += "-robust";
  if (config_.transport.async) name += "-async";
  if (config_.sched.policy == SchedulePolicy::residual) name += "-sched";
  return name;
}

namespace {

/// Cells whose mass is below this fraction of the belief's peak are outside
/// the pyramid ROI. The message floor keeps every cell positive, so a node
/// constrained by k >= 2 messages sits at ~floor^k relative mass away from
/// its blob — below this threshold — while a one-message node (ring belief,
/// relative background ~1e-4) keeps a near-full ROI, which is exactly the
/// node whose position is still genuinely uncertain.
constexpr double kRoiPeakFraction = 1e-6;

/// Pyramid-mode cap on published-summary support cells. The restart at
/// every level begins with a publish wave of prior-shaped beliefs whose
/// 0.995-mass support is large (a line-drop prior at grid 96 spans ~170
/// cells); every receiver replays each summary cell against its kernels,
/// so those first transitional rounds dominate the level's cost. Capping
/// the summary at the top cells truncates only the low-mass tail (the
/// coverage the receiver sees stays well above the informative gate), and
/// the wave's cost shrinks proportionally. Converged beliefs sparsify far
/// below the cap, so steady-state traffic and accuracy are untouched.
/// Single-level runs keep the configured cap — bit-identical behavior.
constexpr std::size_t kPyramidPublishCap = 64;


/// Two-hop non-neighbor pairs for negative evidence, capped per node. Each
/// node's list is independent of the others, so with a pool the scan splits
/// across it (per-chunk marker arrays); output is identical either way.
std::vector<std::vector<std::size_t>> two_hop_nonlinks(const Scenario& s,
                                                       std::size_t cap,
                                                       ThreadPool* pool) {
  std::vector<std::vector<std::size_t>> out(s.node_count());
  const auto scan = [&](std::size_t begin, std::size_t end) {
    std::vector<unsigned char> is_nb(s.node_count(), 0);
    for (std::size_t i = begin; i < end; ++i) {
      if (s.is_anchor[i]) continue;
      for (const Neighbor& nb : s.graph.neighbors(i)) is_nb[nb.node] = 1;
      is_nb[i] = 1;
      for (const Neighbor& nb : s.graph.neighbors(i)) {
        for (const Neighbor& nb2 : s.graph.neighbors(nb.node)) {
          if (is_nb[nb2.node]) continue;
          is_nb[nb2.node] = 1;  // also dedupes the candidate list
          out[i].push_back(nb2.node);
          if (out[i].size() >= cap) break;
        }
        if (out[i].size() >= cap) break;
      }
      // reset marks
      for (std::size_t v : out[i]) is_nb[v] = 0;
      for (const Neighbor& nb : s.graph.neighbors(i)) is_nb[nb.node] = 0;
      is_nb[i] = 0;
    }
  };
  if (pool != nullptr)
    parallel_for_chunks(*pool, s.node_count(), scan);
  else
    scan(0, s.node_count());
  return out;
}

}  // namespace

LocalizationResult GridBncl::localize(const Scenario& scenario,
                                      Rng& rng) const {
  const Stopwatch watch;
  const std::size_t n = scenario.node_count();
  LocalizationResult result = make_result_skeleton(scenario);
  const bool tracing = obs::trace_active();
  if (tracing) obs::trace_begin(name());
  obs::count("grid.runs");
  const obs::Span run_span("grid.run");
  obs::PhaseTimer setup_timer("grid.setup");

  // --- Robustness preamble ------------------------------------------------
  // Anchor vetting: flagged anchors act as wide-prior unknowns below, so a
  // drifted anchor position is evidence to be weighed, not truth to obey.
  std::vector<unsigned char> acts_anchor(n, 0);
  for (std::size_t i = 0; i < n; ++i) acts_anchor[i] = scenario.is_anchor[i];
  std::vector<PriorPtr> demoted_prior(n);
  std::size_t anchors_demoted = 0;
  if (config_.robustness.anchor_vetting) {
    const AnchorVetReport vet = vet_anchors(scenario);
    for (std::size_t i = 0; i < n; ++i) {
      if (!scenario.is_anchor[i] || !vet.flagged[i]) continue;
      acts_anchor[i] = 0;
      demoted_prior[i] = GaussianPrior::isotropic(scenario.anchor_position(i),
                                                  scenario.radio.range);
      ++anchors_demoted;
    }
  }
  const auto prior_of = [&](std::size_t i) -> const PositionPrior& {
    return demoted_prior[i] ? *demoted_prior[i] : *scenario.priors[i];
  };
  const RangingSpec ranging =
      config_.robustness.robust_likelihood
          ? scenario.radio.ranging.contaminated(
                config_.robustness.contamination_epsilon,
                config_.robustness.contamination_tail_scale)
          : scenario.radio.ranging;

  // --- Resolution ladder --------------------------------------------------
  // levels == 1 degenerates to the classic single-resolution engine (the
  // level loop below runs once with a full-grid ROI and no resampling — the
  // historical code path, bit for bit).
  const PyramidPlan plan =
      PyramidPlan::make(config_.grid_side, config_.pyramid_levels);
  const std::size_t n_levels = plan.levels();
  obs::count("grid.pyramid.levels", n_levels);
  const std::size_t pub_cap =
      n_levels > 1
          ? std::min<std::size_t>(config_.max_support_cells, kPyramidPublishCap)
          : config_.max_support_cells;

  // --- Graph-shaped precomputes (resolution-independent) ------------------
  std::vector<std::size_t> kernel_offset(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i)
    kernel_offset[i + 1] = kernel_offset[i] + scenario.graph.degree(i);
  const std::size_t n_links = kernel_offset[n];

  // Per-node parallelism pilot: the Jacobi update, the publish phase's
  // decide/sparsify pass, and the staged→current commit are independent
  // across nodes within a round, so they split across a pool.
  const bool parallel_update = config_.threads != 1 && n > 1;
  std::optional<ThreadPool> pool;
  if (parallel_update) pool.emplace(config_.threads);

  const auto nonlinks =
      config_.use_negative_evidence
          ? two_hop_nonlinks(scenario, config_.negative_max_pairs,
                             pool ? &*pool : nullptr)
          : std::vector<std::vector<std::size_t>>();
  std::vector<std::size_t> nl_offset(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i)
    nl_offset[i + 1] = nl_offset[i] + (nonlinks.empty() ? 0 : nonlinks[i].size());
  const std::size_t n_nonlinks = nl_offset[n];

  // --- Published summaries (the "network state") --------------------------
  // Each node's published summary carries a version (a global publish
  // sequence number): receivers key cached incoming messages on it, so a
  // summary that did not change between rounds never pays for the same
  // kernel correlation twice. Versions survive level switches (the cell-id
  // payloads are translated; the messages built from them are not, but the
  // per-level caches are flushed anyway). The summaries themselves live in
  // the transport, which serves each receiver-side slot its view of them.
  Transport<SparseBelief> transport(scenario, config_.transport,
                                    config_.iteration.packet_loss,
                                    config_.robustness.stale_ttl,
                                    rng.split(0x5ad10));
  constexpr std::uint64_t kSigTtlSkip = Transport<SparseBelief>::kStale;
  std::uint64_t pub_seq = 0;

  // --- Residual-prioritized scheduling (ROADMAP item 1) -------------------
  // Sender-side residual accounting, exact and transport-agnostic: every
  // publish appends the sender's running residual total (the TV its belief
  // moved since the previous publish, accumulated over its lifetime) to
  // `ver_accum`, indexed by the global publish version. A receiver records
  // the accumulator value of the version it last integrated per slot
  // (`seen_accum`); the pending residual of a changed link is then
  // ver_accum[new] - seen_accum[slot] — the sum of every publish the
  // receiver has not folded in yet, even when the async transport skipped
  // intermediate versions. All three arrays persist across pyramid levels
  // (versions do too).
  const bool sched_enabled =
      config_.sched.policy == SchedulePolicy::residual;
  std::vector<double> pub_residual(sched_enabled ? n : 0, 0.0);
  std::vector<double> node_res_accum(sched_enabled ? n : 0, 0.0);
  std::vector<double> ver_accum;
  std::vector<double> seen_accum(
      sched_enabled ? n_links + n_nonlinks : 0, 0.0);
  std::optional<ResidualScheduler> sched;
  std::vector<std::uint32_t> sched_cand_scratch;
  if (sched_enabled) {
    ver_accum.reserve(4 * n);
    ver_accum.push_back(0.0);  // version 0 = never published
    sched.emplace(config_.sched, n_links + n_nonlinks);
  }

  const std::size_t heartbeat = transport.heartbeat_rounds();
  const double quorum = config_.robustness.update_quorum;
  // Round each node last published, for the heartbeat: a converged node
  // re-announces at least every `heartbeat` rounds so a receiver whose last
  // copy was dropped is not starved forever by the TV gate.
  std::vector<std::size_t> last_pub_round(heartbeat > 0 ? n : 0, 0);
  // Quorum-gate state machine, per node: `armed` starts set (the gate may
  // hold from round one — under the async transport that synchronizes the
  // bootstrap against in-flight first summaries), disarms after
  // `quorum_patience` consecutive holds, and re-arms whenever a full
  // quorum is observed. Written only by the owning node in the update
  // sweep; carries across pyramid levels.
  std::vector<unsigned char> quorum_armed(quorum > 0.0 ? n : 0, 1);
  std::vector<std::uint32_t> quorum_streak(quorum > 0.0 ? n : 0, 0);

  // --- Cross-level belief state -------------------------------------------
  // The current beliefs carry across level switches (upsampled to locate
  // the next level's ROI); everything else per level is rebuilt. Every
  // per-node store holds node i's slot over its ROI box `roi[i]`.
  std::optional<BeliefStore> belief_opt;
  std::vector<CellBox> roi(n);
  GridShape cur_shape{scenario.field, plan.sides.front()};
  // Dense side² scratch for the consumers that need a whole-grid belief
  // (estimates, the level switch's upsample, level-0 prior masking).
  std::vector<double> dense_scratch, coarse_scratch;

  // Per-node TV change, folded in node order after the sweep so the
  // convergence trace is bit-identical at any thread count; negative means
  // the node did not update this round (anchor or crashed).
  std::vector<double> node_change(n, -1.0);
  // Per-node message counters, summed serially after the sweep so the hot
  // loop takes no telemetry lock.
  std::vector<std::uint32_t> node_msgs_computed(n, 0), node_msgs_reused(n, 0);
  std::vector<std::uint32_t> node_prods_reused(n, 0);
  // Work accounting (ROADMAP item 1's gate currency), same pattern: each
  // dense belief op over a node's ROI charges one visit per cell touched;
  // each computed message charges summary-cells × kernel stamps. Plain
  // per-node accumulation — deterministic at any thread count.
  std::vector<std::uint64_t> node_cell_visits(n, 0), node_kernel_cells(n, 0);
  // Nodes whose update was held this round by the partial-neighborhood
  // quorum gate (telemetry; written per node in the parallel sweep, summed
  // serially).
  std::vector<unsigned char> node_quorum_held(n, 0);
  // Publish-phase two-pass state: pass 1 fills each node's candidate
  // summary in parallel; pass 2 commits versions and metered traffic
  // serially in node order (bit-identical at any thread count).
  std::vector<SparseBelief> pub_candidate(n);
  std::vector<unsigned char> will_publish(n, 0);
  std::vector<std::uint32_t> order_scratch;

  const auto emit_estimates = [&]() {
    for (std::size_t i = 0; i < n; ++i) {
      if (scenario.is_anchor[i]) continue;
      const std::span<const double> b = belief_opt->dense(i, dense_scratch);
      result.estimates[i] = config_.map_estimate
                                ? beliefops::argmax(cur_shape, b)
                                : beliefops::mean(cur_shape, b);
      result.covariances[i] = beliefops::covariance(cur_shape, b);
    }
  };

  setup_timer.stop();

  // --- Levels and rounds --------------------------------------------------
  obs::PhaseTimer rounds_timer("grid.rounds");
  const std::size_t total_rounds = config_.iteration.max_iterations;
  std::size_t iter = 0;         // global round counter, spans all levels
  GridShape prev_shape{};       // the level we are upsampling from
  for (std::size_t lvl = 0; lvl < n_levels; ++lvl) {
    const obs::Span level_span("grid.level");
    const GridShape shape{scenario.field, plan.sides[lvl]};
    const std::size_t side = shape.side;
    const std::size_t cells = shape.cell_count();
    cur_shape = shape;
    const bool finest = lvl + 1 == n_levels;
    // Per-level metric names ("grid.pyramid.l0.…"): pyramid depth is
    // bounded, so the name set stays tiny and fixed per config.
    char lvl_roi_name[48], lvl_visits_name[48];
    std::snprintf(lvl_roi_name, sizeof lvl_roi_name,
                  "grid.pyramid.l%zu.roi_cells", lvl);
    std::snprintf(lvl_visits_name, sizeof lvl_visits_name,
                  "grid.pyramid.l%zu.cell_visits", lvl);

    // --- Belief state at this level ---------------------------------------
    // Flat SoA arenas: one buffer per role (current / staged / prior /
    // last-published / cached product), node i's slot a row-major slice
    // over its ROI box — so the level's memory follows the summed ROI
    // cells, not nodes × side². A full box is the dense layout.
    //
    // Level switch (lvl > 0) — restart semantics. Every node's belief is
    // resampled to the new resolution (mass-conserving) but only to *locate*
    // its support: that support, dilated by the margin, becomes the ROI
    // bounding this level's dense per-cell work (the prior is rasterized
    // inside it only), and the belief itself restarts from the ROI-masked
    // prior. Carrying the upsampled posterior forward instead locks in the
    // coarse grid's quantization error (damping keeps pulling the refined
    // belief back toward the blurred coarse blob); restarting inside the
    // ROI reproduces the single-level fixed point while the coarse rounds
    // still pay for themselves twice over — the ROI caps the fine level's
    // per-cell cost, and the translated summaries give the first fine
    // rounds concentrated messages instead of the cold-start mush.
    // Published summaries are translated receiver-locally — each receiver
    // already holds the payload and knows both discretizations, so no radio
    // traffic is metered — which also keeps crashed nodes' frozen last
    // broadcasts usable. The last-published copy restarts at zero: once the
    // warm-up (kLevelWarmupRounds) ends, the re-broadcast TV gate sees a
    // full-mass change and every alive informative node re-announces
    // itself at the new resolution. The translation is a stopgap for what a
    // receiver already heard (and all a crashed node can ever offer), not a
    // substitute for a sharp fine-grid broadcast — gating the re-announce
    // on the TV against the upsampled posterior instead measurably loses
    // accuracy (nodes whose refinement lands within the tolerance stay
    // quiet forever and their neighbors keep multiplying blurred coarse
    // summaries). Anchors restart from the exact delta at the new
    // resolution — their ROI is that one cell — and re-announce it
    // immediately.
    //
    // Pass 1 finds every node's ROI box, so each arena below is allocated
    // once at its exact size; pass 2 rasterizes the level's prior into it.
    // Pyramid level 0 reads the box off the prior's own raster and keeps
    // the masked, packed result for pass 2 instead of rasterizing twice.
    std::vector<double> level0_prior;
    if (n_levels > 1) dense_scratch.resize(cells);
    for (std::size_t i = 0; i < n; ++i) {
      if (acts_anchor[i]) {
        roi[i] = CellBox::at(shape.cell_at(scenario.anchor_position(i)), side);
      } else if (n_levels == 1) {
        roi[i] = CellBox::full(side);  // the historical full-grid sweep
      } else if (lvl == 0) {
        // Pyramid runs bound even the first level by the *prior's* own
        // support — pre-knowledge is exactly the license to skip cells the
        // prior already rules out (a belief rebuilt as prior × messages
        // keeps ≲1e-6 relative mass there regardless). An uninformative
        // prior yields a full box and changes nothing.
        beliefops::set_from_prior(shape, dense_scratch, prior_of(i));
        roi[i] = beliefops::support_box(dense_scratch, side, kRoiPeakFraction)
                     .dilated(config_.pyramid_roi_margin, side);
        beliefops::mask_in(dense_scratch, side, roi[i]);
        level0_prior.resize(level0_prior.size() + roi[i].cell_count());
        beliefops::copy_in(
            ConstBoxView::dense(dense_scratch, side, roi[i]),
            BoxView::packed(std::span(level0_prior).last(roi[i].cell_count()),
                            side, roi[i]));
      } else {
        upsample_belief(prev_shape, belief_opt->dense(i, coarse_scratch),
                        shape, dense_scratch);
        roi[i] = beliefops::support_box(dense_scratch, side, kRoiPeakFraction)
                     .dilated(config_.pyramid_roi_margin, side);
      }
    }
    BeliefStore prior_grid(shape, roi);
    for (std::size_t i = 0, packed = 0; i < n; ++i) {
      const std::span<double> slot = prior_grid[i];
      if (acts_anchor[i]) {
        slot[0] = 1.0;
      } else if (n_levels == 1) {
        beliefops::set_from_prior(shape, slot, prior_of(i));
      } else if (lvl == 0) {
        std::copy_n(level0_prior.begin() + static_cast<std::ptrdiff_t>(packed),
                    slot.size(), slot.begin());
        packed += slot.size();
      } else {
        beliefops::set_from_prior_in(shape, prior_grid.view(i), prior_of(i));
      }
    }
    // Every stored summary (senders' published ones, async send histories
    // awaiting retried deliveries, receiver inboxes) is re-expressed on the
    // new grid — receiver-locally, no radio traffic.
    if (lvl > 0)
      transport.transform([&](SparseBelief& s) {
        s = upsample_summary(prev_shape, shape, s);
      });
    belief_opt.emplace(prior_grid);
    {
      // The level's dense footprint: total ROI cells across the nodes that
      // actually update — the "pyramid cells per level" the P2 gate reads.
      std::uint64_t roi_cells = 0;
      for (std::size_t i = 0; i < n; ++i)
        if (!acts_anchor[i])
          roi_cells += static_cast<std::uint64_t>(roi[i].cell_count());
      obs::count(lvl_roi_name, roi_cells);
      obs::count("grid.pyramid.roi_cells", roi_cells);
    }
    BeliefStore& belief = *belief_opt;
    BeliefStore last_pub(shape, roi);
    BeliefStore staged(belief);  // Jacobi double buffer

    // --- Precomputed kernels per directed CSR slot ------------------------
    // Kernels are pure functions of the measured distance (the spec and
    // shape are fixed for the level), so the cache shares one kernel across
    // symmetric link directions and coincident measurements; receivers that
    // act as anchors never consume theirs and are skipped outright.
    std::optional<KernelCache> kcache;
    std::vector<RangeKernel> owned_kernels;
    std::vector<const RangeKernel*> link_kernel(n_links, nullptr);
    if (config_.cache_kernels) {
      // `process` scope swaps the per-run cache for the process-global
      // registry shard of this (ranging, shape) parameter set: same pure
      // kernels, but construction cost is shared with every other run in
      // the process. Per-lookup outcomes are metered so a run can report
      // its own hit rate against the shared cache.
      const bool process_scope = config_.kernel_scope == KernelScope::process;
      KernelCache& cache =
          process_scope ? KernelCacheRegistry::instance().acquire(ranging, shape)
                        : kcache.emplace(ranging, shape);
      std::size_t run_built = 0;
      std::size_t run_shared = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (acts_anchor[i]) continue;
        const auto nbs = scenario.graph.neighbors(i);
        for (std::size_t k = 0; k < nbs.size(); ++k) {
          bool built = false;
          link_kernel[kernel_offset[i] + k] = cache.range(nbs[k].weight, &built);
          if (built)
            ++run_built;
          else
            ++run_shared;
        }
      }
      obs::count("grid.kernels.built", run_built);
      obs::count("grid.kernels.shared", run_shared);
      if (process_scope) {
        obs::count("grid.kernels.process.miss", run_built);
        obs::count("grid.kernels.process.hit", run_shared);
      }
    } else {
      owned_kernels.reserve(n_links);
      for (std::size_t i = 0; i < n; ++i)
        for (const Neighbor& nb : scenario.graph.neighbors(i))
          owned_kernels.push_back(
              RangeKernel::make_range(nb.weight, ranging, shape));
      for (std::size_t s = 0; s < n_links; ++s)
        link_kernel[s] = &owned_kernels[s];
      obs::count("grid.kernels.built", n_links);
    }

    const RangeKernel conn_kernel =
        config_.use_negative_evidence
            ? RangeKernel::make_connectivity(scenario.radio, shape)
            : RangeKernel();

    // --- Message reuse slots ----------------------------------------------
    // One buffer per directed link / non-link, holding the last message
    // computed for it and the summary version it came from. A message is a
    // pure function of (kernel, summary), so replaying the stored copy is
    // bit-identical to recomputing it. Only the receiver's ROI of a message
    // is ever read, so each slot is packed to that box; receivers that act
    // as anchors consume nothing and hold no cells. Degrades to recompute
    // (counted in `grid.message_cache.degraded`) when the packed footprint
    // would blow the configured budget. Rebuilt per level: a message
    // computed at one resolution means nothing at another.
    const std::size_t n_slots = n_links + n_nonlinks;
    bool reuse = config_.reuse_messages;
    std::optional<BeliefStore> msg_store;
    std::vector<std::uint64_t> msg_ver;   // version cached per slot; 0 = none
    std::vector<unsigned char> msg_skip;  // cached "message had no support"
    if (reuse) {
      std::vector<CellBox> slot_box(n_slots);  // anchors' slots stay empty
      std::size_t msg_cells = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (acts_anchor[i]) continue;
        for (std::size_t s = kernel_offset[i]; s < kernel_offset[i + 1]; ++s)
          slot_box[s] = roi[i];
        for (std::size_t s = nl_offset[i]; s < nl_offset[i + 1]; ++s)
          slot_box[n_links + s] = roi[i];
        msg_cells += (kernel_offset[i + 1] - kernel_offset[i] +
                      nl_offset[i + 1] - nl_offset[i]) *
                     roi[i].cell_count();
      }
      if (msg_cells * sizeof(double) >
          config_.message_cache_mb * std::size_t{1024} * 1024) {
        reuse = false;
        obs::count("grid.message_cache.degraded");
      } else {
        msg_store.emplace(shape, std::move(slot_box));
        msg_ver.assign(n_slots, 0);
        msg_skip.assign(n_slots, 0);
      }
    }

    // Residual scheduling needs the message cache to replay deferred links
    // from; when the memory budget degraded `reuse` above, the scheduler
    // degrades with it — every changed link processes, still correct. A
    // level switch wipes the deferral debt: the per-level caches restart,
    // so every slot's first integration at this resolution must process.
    const bool sched_active = sched_enabled && reuse;
    if (sched_enabled) sched->reset_level();

    // Whole-product reuse: a node whose *every* input is unchanged since
    // its last recompute (same summary versions, same delivery/TTL
    // outcomes) would rebuild the exact same pre-damping message product —
    // so that product is kept per node and replayed outright, skipping the
    // whole message loop. Cheap (one extra belief per node) so not under
    // the slot budget; in late rounds, when rebroadcast suppression quiets
    // most of the network, this collapses the round cost to a copy +
    // damping per node.
    const bool reuse_products = config_.reuse_messages;
    // Per-input-slot signature of what the last recompute consumed: the
    // summary version used, or the marker for "contributed nothing" (TTL).
    std::optional<BeliefStore> product;
    std::vector<unsigned char> have_product;
    std::vector<std::uint64_t> in_sig;
    if (reuse_products) {
      product.emplace(shape, roi);
      have_product.assign(n, 0);
      in_sig.assign(n_slots, kSigTtlSkip - 1);
    }
    obs::count("grid.state_bytes",
               prior_grid.bytes() + belief.bytes() + staged.bytes() +
                   last_pub.bytes() + (product ? product->bytes() : 0) +
                   (msg_store ? msg_store->bytes() : 0));

    // Per-thread message scratch for recompute mode: a slot-sized prefix
    // holds node i's ROI-packed message.
    std::vector<double> msg(cells);

    // m(x) = 1 - P(link | x): cap at 1 (kernel overlap can exceed it
    // slightly on coarse grids). Only the receiver's ROI cells are stored
    // and read, so only they are transformed; element-wise, so the full
    // box is bit-identical to the historical whole-buffer loop.
    const auto neg_transform = [](BoxView buf) {
      const std::size_t w = buf.box.width();
      for (std::int32_t y = buf.box.y0; y <= buf.box.y1; ++y) {
        double* const row = buf.row(y);
        for (std::size_t t = 0; t < w; ++t)
          row[t] = std::max(0.0, 1.0 - std::min(row[t], 1.0));
      }
    };
    // Clear a message buffer before a replay: only the box cells the
    // replay may write (and downstream ops read) need zeroing.
    const auto zero_in = [](BoxView buf) {
      for (std::int32_t y = buf.box.y0; y <= buf.box.y1; ++y)
        std::fill_n(buf.row(y), buf.box.width(), 0.0);
    };

    // --- Level round budget -----------------------------------------------
    // Coarse levels take an equal slice of the round budget (capped so the
    // finest level always keeps the majority), and always leave at least
    // two rounds for every level after them; the finest level gets the
    // remainder. For levels == 1 this is exactly `max_iterations`.
    std::size_t level_cap;
    if (finest) {
      level_cap = total_rounds > iter ? total_rounds - iter : 0;
    } else {
      const std::size_t reserve = 2 * (n_levels - 1 - lvl);
      const std::size_t share =
          std::max<std::size_t>(2, total_rounds / (n_levels + 1));
      level_cap = total_rounds > iter + reserve
                      ? std::min(share, total_rounds - iter - reserve)
                      : 0;
    }

    for (std::size_t level_round = 0; level_round < level_cap;
         ++level_round, ++iter) {
      transport.begin_round();

      // Reboot cold restart. A rebooted node's RAM is gone: its belief
      // restarts from the prior, its publish state resets (so the
      // informative/TV gates treat it as a newcomer, and its published
      // summaries are cleared), and its cached product is invalid. The
      // transport has already wiped its receiver-side state (async inbox)
      // or granted its incoming slots a TTL grace (sync).
      const std::span<const std::uint32_t> rebooted = transport.rebooted();
      for (const std::uint32_t r : rebooted) {
        if (acts_anchor[r]) {  // an anchor's state is its surveyed position
          continue;
        }
        copy_belief(prior_grid[r], belief[r]);
        copy_belief(prior_grid[r], staged[r]);
        const std::span<double> lp = last_pub[r];
        std::fill(lp.begin(), lp.end(), 0.0);
        transport.reset(r, 0, SparseBelief{});
        if (reuse_products) have_product[r] = 0;
        // Residual policy: a fresh boot owes nothing and is owed nothing —
        // its input signatures reset to "never integrated", so every slot
        // counts as first-heard (always processed, never a deferral
        // candidate) until the rebuilt belief has integrated each neighbor
        // once. Guarded so round_robin runs keep the historical state
        // untouched bit for bit.
        if (sched_active) {
          for (std::size_t s = kernel_offset[r]; s < kernel_offset[r + 1];
               ++s) {
            in_sig[s] = kSigTtlSkip - 1;
            sched->reset_slot(s);
          }
          if (config_.use_negative_evidence)
            for (std::size_t s = n_links + nl_offset[r];
                 s < n_links + nl_offset[r + 1]; ++s) {
              in_sig[s] = kSigTtlSkip - 1;
              sched->reset_slot(s);
            }
        }
        // A fresh boot re-arms the quorum gate: wait for the re-entry
        // relays to re-fill the inbox before committing to an update.
        if (!quorum_armed.empty()) {
          quorum_armed[r] = 1;
          quorum_streak[r] = 0;
        }
        obs::count("grid.reboots");
      }
      // Warm re-entry (async; a no-op under sync): each live published
      // neighbor store-and-forward relays its newest summary to the
      // rebooted node, re-seeding its inbox in one hop instead of waiting
      // out the TV-gate silence of converged neighbors.
      if (config_.transport.reboot_relays) {
        for (const std::uint32_t r : rebooted) {
          for (const Neighbor& nb : scenario.graph.neighbors(r)) {
            const SparseBelief* newest = transport.newest(nb.node).payload;
            if (transport.crashed(nb.node) || newest == nullptr) continue;
            transport.relay(nb.node, r, newest->payload_bytes());
          }
        }
      }

      // Publish phase: decide who broadcasts this round. A crashed node's
      // published state freezes at its last alive summary — neighbors keep
      // using the copy they last received (until the TTL retires it).
      // Pass 1 (node-parallel): the re-broadcast TV gate, the sparsify, and
      // the informative gate are all node-local, as is the last-published
      // copy.
      const auto decide_publish = [&](std::size_t u,
                                      std::vector<std::uint32_t>& oscratch) {
        will_publish[u] = 0;
        if (transport.crashed(u)) return;
        // Heartbeat: a quiet node re-announces at least every `heartbeat`
        // rounds. Under a lossy link a converged node's final summary can
        // simply never have arrived somewhere — and the TV gate would keep
        // it silent forever, starving that receiver.
        // Announced since its last reboot (a rebooted anchor keeps its
        // summary, so it stays announced).
        const bool ever_published = transport.newest(u).ver != 0;
        const bool force_heartbeat =
            heartbeat > 0 && ever_published &&
            iter + 1 - last_pub_round[u] >= heartbeat;
        // Quiet-node short circuit: once a node has published (and nothing
        // forces re-broadcast), the decision reduces to the re-broadcast TV
        // gate — evaluated first so a silent node never pays for the
        // sparsify. Decision-equivalent to gating on informativeness first:
        // either way a quiet node does not publish. All three dense steps
        // (TV gate, sparsify, last-published copy) run over the node's ROI
        // slots.
        if (ever_published && !force_heartbeat) {
          const double tv =
              beliefops::total_variation_in(belief.view(u), last_pub.view(u));
          if (tv <= config_.rebroadcast_tol) return;
          if (sched_enabled) pub_residual[u] = tv;
        } else if (sched_enabled) {
          // Residual of a forced or first publish: the TV against the last
          // published copy when one exists, else full mass — a first
          // announcement is maximally newsworthy, so receivers never defer
          // their bootstrap.
          pub_residual[u] = ever_published
                                ? beliefops::total_variation_in(
                                      belief.view(u), last_pub.view(u))
                                : 1.0;
        }
        beliefops::sparsify_in(belief.view(u), config_.support_mass, pub_cap,
                               pub_candidate[u], oscratch);
        const bool informative =
            acts_anchor[u] ||
            pub_candidate[u].covered_fraction >= config_.informative_coverage;
        if (!informative) return;
        copy_belief(belief[u], last_pub[u]);
        will_publish[u] = 1;
      };
      {
        const obs::Span publish_span("grid.publish");
        if (pool) {
          parallel_for_chunks(*pool, n,
                              [&](std::size_t begin, std::size_t end) {
                                std::vector<std::uint32_t> oscratch;
                                for (std::size_t u = begin; u < end; ++u)
                                  decide_publish(u, oscratch);
                              });
        } else {
          for (std::size_t u = 0; u < n; ++u) decide_publish(u, order_scratch);
        }
        // Pass 2 (serial, node order): version numbers and metered traffic
        // are order-sensitive, so they commit in node order regardless of how
        // pass 1 was scheduled.
        for (std::size_t u = 0; u < n; ++u) {
          if (!will_publish[u]) continue;
          const std::uint64_t ver = ++pub_seq;
          // A first announcement is also the sync fallback for a receiver
          // that misses this round's delivery.
          if (transport.newest(u).ver == 0)
            transport.reset(u, ver, pub_candidate[u]);
          if (sched_enabled) {
            // ver_accum is indexed by the global publish version, so the
            // serial commit order keeps it aligned with pub_seq exactly.
            node_res_accum[u] += pub_residual[u];
            ver_accum.push_back(node_res_accum[u]);
          }
          const std::size_t bytes = pub_candidate[u].payload_bytes();
          transport.publish(u, ver, std::move(pub_candidate[u]), bytes);
          if (heartbeat > 0) last_pub_round[u] = iter + 1;
        }
      }

      // Scan phase (residual policy): rank this round's changed links by
      // pending residual and defer everything below the budget. Serial, in
      // node order, over pure per-round reads (the transport's per-slot
      // inputs are fixed once the round has begun), so the decision
      // bitmap — the only thing the parallel update phase sees — is a pure
      // function of the round's inputs: bit-identical at any thread count,
      // and identical under async replay.
      //
      // The priority is *receiver-coherent*: every changed link of a
      // receiver carries the receiver's total pending residual (the sum,
      // over its changed links, of sender residual it has not integrated).
      // SPAWN rebuilds the whole product the moment any one input changes,
      // so the engine's cost unit is the receiver's rebuild, not the link:
      // granting one link of a receiver forces the full rebuild anyway,
      // while deferring all of them collapses the receiver to the
      // whole-product fast path — the node-granular flavor of residual
      // scheduling (residual-splash BP), expressed through the per-link
      // queue. Equal priorities sort adjacently (ties broken on node, then
      // slot), so the budget cut lands on receiver boundaries.
      //
      // Only changed links whose old and new signatures are both real
      // versions are deferral-eligible; first-heard summaries, TTL
      // retirements, revivals, and silence transitions always process
      // (they are exactly the transitions where a stale replay would be
      // wrong or impossible). A receiver holding any such transition
      // rebuilds this round regardless, so its other changed links are
      // granted too rather than pointlessly deferred.
      if (sched_active) {
        const obs::Span sched_span("grid.sched");
        const std::size_t scan_ttl = config_.robustness.stale_ttl;
        sched->begin_round();
        double pending_sum = 0.0;
        bool force_rebuild = false;
        const auto classify = [&](std::size_t slot, std::uint64_t sig) {
          const std::uint64_t old = in_sig[slot];
          if (sig == old) return;  // quiet link: costs nothing either way
          if (sig == 0 || sig == kSigTtlSkip || old == 0 ||
              old >= kSigTtlSkip - 1) {
            force_rebuild = true;
            return;
          }
          pending_sum += ver_accum[sig] - seen_accum[slot];
          sched_cand_scratch.push_back(static_cast<std::uint32_t>(slot));
        };
        for (std::size_t i = 0; i < n; ++i) {
          if (acts_anchor[i] || transport.crashed(i)) continue;
          sched_cand_scratch.clear();
          pending_sum = 0.0;
          force_rebuild = false;
          for (std::size_t slot = kernel_offset[i]; slot < kernel_offset[i + 1];
               ++slot)
            classify(slot, transport.input(slot).ver);
          if (config_.use_negative_evidence) {
            const auto& nls = nonlinks[i];
            for (std::size_t k = 0; k < nls.size(); ++k) {
              std::uint64_t sig = transport.newest(nls[k]).ver;
              if (scan_ttl > 0 && transport.crashed(nls[k]))
                sig = kSigTtlSkip;
              classify(n_links + nl_offset[i] + k, sig);
            }
          }
          if (!force_rebuild)
            for (const std::uint32_t slot : sched_cand_scratch)
              sched->add_candidate(static_cast<std::uint32_t>(i), slot,
                                   pending_sum);
        }
        sched->commit_round();
        const ScheduleRoundStats& st = sched->round_stats();
        obs::count("sched.links_processed", st.processed);
        obs::count("sched.links_deferred", st.deferred);
        if (st.promotions)
          obs::count("sched.starvation_promotions", st.promotions);
      }

      // Update phase: rebuild each unknown's belief from its prior and the
      // summaries the transport serves its incoming slots this round (pure
      // reads — the async inbox or the sync sender's current/previous
      // summary, with the TTL applied). Writes go to a staging buffer:
      // order-independent, the honest distributed semantics.
      const auto update_node = [&](std::size_t i,
                                   std::vector<double>& scratch) {
        if (acts_anchor[i]) return;
        if (transport.crashed(i)) return;  // dead nodes stop computing too
        const BoxView next = staged.view(i);
        const ConstBoxView cur = belief.view(i);
        const auto nbs = scenario.graph.neighbors(i);
        const std::uint64_t box_cells =
            static_cast<std::uint64_t>(roi[i].cell_count());
        // Recompute mode's message buffer, packed to this node's ROI.
        const BoxView fresh = BoxView::packed(scratch, side, roi[i]);
        const std::size_t ttl = config_.robustness.stale_ttl;

        // Partial-neighborhood quorum: when most of the neighborhood is
        // unreachable (partition, mass loss, crash cluster, summaries
        // still in flight), hold the previous belief instead of
        // integrating the skewed remainder — an update from the 1-2
        // reachable neighbors drags the posterior toward their side of the
        // cut. Bounded patience keeps the gate from deadlocking starts
        // where quorum is structurally unreachable (diffuse priors: nobody
        // has published yet, so nobody can ever reach quorum): after
        // `quorum_patience` consecutive holds the gate disarms and the
        // node free-runs until a full quorum is next observed. The held
        // node's cached product is invalidated: inputs may have changed
        // while it was not looking.
        if (quorum > 0.0 && !nbs.empty()) {
          std::size_t usable = 0;
          for (std::size_t slot = kernel_offset[i];
               slot < kernel_offset[i + 1]; ++slot)
            if (transport.input(slot).payload != nullptr) ++usable;
          const bool met = static_cast<double>(usable) >=
                           quorum * static_cast<double>(nbs.size());
          if (met) {
            quorum_armed[i] = 1;
            quorum_streak[i] = 0;
          } else if (quorum_armed[i] &&
                     quorum_streak[i] < config_.robustness.quorum_patience) {
            ++quorum_streak[i];
            node_quorum_held[i] = 1;
            if (reuse_products) have_product[i] = 0;
            return;
          } else if (quorum_armed[i]) {
            quorum_armed[i] = 0;  // patience exhausted: free-run
            quorum_streak[i] = 0;
          }
        }

        // Pre-pass: fold this round's inputs into the per-slot signatures.
        // If every signature is unchanged, the cached product is exact and
        // the message loop is skipped entirely.
        bool static_inputs = false;
        if (reuse_products) {
          static_inputs = have_product[i] != 0;
          for (std::size_t slot = kernel_offset[i]; slot < kernel_offset[i + 1];
               ++slot) {
            const std::uint64_t sig = transport.input(slot).ver;
            // A deferred slot holds its old signature — the cached message
            // keeps contributing and the slot stays a scheduling candidate
            // until the budget (or the starvation floor) lets the new
            // version in. Deferral never reads as silence: the transport's
            // heard rounds come from the radio, not from integration.
            if (sched_active && sched->deferred(slot)) continue;
            if (in_sig[slot] != sig) {
              in_sig[slot] = sig;
              static_inputs = false;
              // Folding a real version here is the moment of integration
              // the pending-residual accounting keys on.
              if (sched_enabled && sig != 0 && sig < kSigTtlSkip - 1)
                seen_accum[slot] = ver_accum[sig];
            }
          }
          if (config_.use_negative_evidence) {
            const auto& nls = nonlinks[i];
            for (std::size_t k = 0; k < nls.size(); ++k) {
              const std::size_t far = nls[k];
              const std::size_t slot = n_links + nl_offset[i] + k;
              // The coverage gate depends only on the summary, so the
              // version alone identifies the contribution; a crash only
              // matters when the TTL retires frozen summaries.
              std::uint64_t sig = transport.newest(far).ver;
              if (ttl > 0 && transport.crashed(far)) sig = kSigTtlSkip;
              if (sched_active && sched->deferred(slot)) continue;
              if (in_sig[slot] != sig) {
                in_sig[slot] = sig;
                static_inputs = false;
                if (sched_enabled && sig != 0 && sig < kSigTtlSkip - 1)
                  seen_accum[slot] = ver_accum[sig];
              }
            }
          }
        }
        if (static_inputs) {
          ++node_prods_reused[i];
          node_cell_visits[i] += 3 * box_cells;  // replay + mix + residual
          copy_belief((*product)[i], staged[i]);
          beliefops::mix_in(next, cur, config_.damping);
          node_change[i] = beliefops::total_variation_in(next, cur);
          return;
        }

        copy_belief(prior_grid[i], staged[i]);
        node_cell_visits[i] += box_cells;  // prior copy
        for (std::size_t slot = kernel_offset[i]; slot < kernel_offset[i + 1];
             ++slot) {
          // Deferred link: replay the message of the last-integrated
          // version (bit-identical to the round it was computed in) and
          // skip the kernel correlation the new summary would cost. The
          // cached buffer is that message exactly when its version matches
          // the held signature; otherwise the last integration contributed
          // nothing (never heard, or retired) and neither does the replay.
          if (sched_active && sched->deferred(slot)) {
            if (msg_ver[slot] != 0 && msg_ver[slot] == in_sig[slot] &&
                !msg_skip[slot]) {
              ++node_msgs_reused[i];
              node_cell_visits[i] += box_cells;
              beliefops::multiply_in(next, msg_store->view(slot),
                                     config_.message_floor);
            }
            continue;
          }
          // A slot undelivered for longer than the TTL serves nothing: the
          // neighbor is presumed dead and its stale summary decays out of
          // the product.
          const auto [src_ptr, ver] = transport.input(slot);
          if (src_ptr == nullptr) continue;
          const SparseBelief& src = *src_ptr;
          if (src.empty()) continue;
          if (reuse) {
            const BoxView cached = msg_store->view(slot);
            if (msg_ver[slot] == ver) {
              ++node_msgs_reused[i];
              if (!msg_skip[slot]) {
                node_cell_visits[i] += box_cells;
                beliefops::multiply_in(next, cached, config_.message_floor);
              }
              continue;
            }
            const double peak = link_kernel[slot]->correlate(src, cached);
            msg_ver[slot] = ver;
            ++node_msgs_computed[i];
            node_kernel_cells[i] +=
                static_cast<std::uint64_t>(src.cells.size()) *
                link_kernel[slot]->stamp_count();
            if (peak <= 0.0) {
              msg_skip[slot] = 1;
              continue;
            }
            msg_skip[slot] = 0;
            node_cell_visits[i] += box_cells;
            beliefops::multiply_in(next, cached, config_.message_floor);
          } else {
            const double peak = link_kernel[slot]->correlate(src, fresh);
            ++node_msgs_computed[i];
            node_kernel_cells[i] +=
                static_cast<std::uint64_t>(src.cells.size()) *
                link_kernel[slot]->stamp_count();
            if (peak <= 0.0) continue;
            node_cell_visits[i] += box_cells;
            beliefops::multiply_in(next, fresh, config_.message_floor);
          }
        }
        if (config_.use_negative_evidence) {
          const auto& nls = nonlinks[i];
          for (std::size_t k = 0; k < nls.size(); ++k) {
            const std::size_t far = nls[k];
            // Deferred non-link: same replay contract as a deferred link.
            // (Non-link slots have no msg_skip — a version that failed the
            // coverage gate never updated msg_ver, so the match below
            // already implies the cached buffer is a real contribution.)
            if (sched_active) {
              const std::size_t dslot = n_links + nl_offset[i] + k;
              if (sched->deferred(dslot)) {
                if (msg_ver[dslot] != 0 && msg_ver[dslot] == in_sig[dslot]) {
                  ++node_msgs_reused[i];
                  node_cell_visits[i] += box_cells;
                  beliefops::multiply_in(next, msg_store->view(dslot),
                                         config_.message_floor);
                }
                continue;
              }
            }
            // With a TTL active, a dead node's frozen summary stops being
            // usable as non-link evidence as well. (Both transports read the
            // sender's newest summary here — two-hop summaries are not on
            // the radio at all; the non-link factor is an idealization
            // either way.)
            if (ttl > 0 && transport.crashed(far)) continue;
            const auto [src_ptr, ver] = transport.newest(far);
            // Negative evidence only pays off against a concentrated belief.
            if (src_ptr == nullptr || src_ptr->empty() ||
                src_ptr->covered_fraction < 0.9)
              continue;
            const SparseBelief& src = *src_ptr;
            if (reuse) {
              const std::size_t slot = n_links + nl_offset[i] + k;
              const BoxView cached = msg_store->view(slot);
              if (msg_ver[slot] == ver) {
                ++node_msgs_reused[i];
                node_cell_visits[i] += box_cells;
                beliefops::multiply_in(next, cached, config_.message_floor);
                continue;
              }
              zero_in(cached);
              conn_kernel.accumulate(src, cached);
              neg_transform(cached);
              msg_ver[slot] = ver;
              ++node_msgs_computed[i];
              node_kernel_cells[i] +=
                  static_cast<std::uint64_t>(src.cells.size()) *
                  conn_kernel.stamp_count();
              node_cell_visits[i] += box_cells;
              beliefops::multiply_in(next, cached, config_.message_floor);
            } else {
              zero_in(fresh);
              conn_kernel.accumulate(src, fresh);
              neg_transform(fresh);
              ++node_msgs_computed[i];
              node_kernel_cells[i] +=
                  static_cast<std::uint64_t>(src.cells.size()) *
                  conn_kernel.stamp_count();
              node_cell_visits[i] += box_cells;
              beliefops::multiply_in(next, fresh, config_.message_floor);
            }
          }
        }
        if (reuse_products) {
          // pre-damping: replayable as-is
          copy_belief(staged[i], (*product)[i]);
          have_product[i] = 1;
          node_cell_visits[i] += box_cells;
        }
        beliefops::mix_in(next, cur, config_.damping);
        node_change[i] = beliefops::total_variation_in(next, cur);
        node_cell_visits[i] += 2 * box_cells;  // mix + residual
      };

      std::fill(node_change.begin(), node_change.end(), -1.0);
      std::fill(node_msgs_computed.begin(), node_msgs_computed.end(), 0U);
      std::fill(node_msgs_reused.begin(), node_msgs_reused.end(), 0U);
      std::fill(node_prods_reused.begin(), node_prods_reused.end(), 0U);
      std::fill(node_cell_visits.begin(), node_cell_visits.end(),
                std::uint64_t{0});
      std::fill(node_kernel_cells.begin(), node_kernel_cells.end(),
                std::uint64_t{0});
      std::fill(node_quorum_held.begin(), node_quorum_held.end(),
                static_cast<unsigned char>(0));
      {
        const obs::Span update_span("grid.update");
        if (pool) {
          parallel_for_chunks(*pool, n,
                              [&](std::size_t begin, std::size_t end) {
                                std::vector<double> scratch(cells);
                                for (std::size_t i = begin; i < end; ++i)
                                  update_node(i, scratch);
                              });
        } else {
          for (std::size_t i = 0; i < n; ++i) update_node(i, msg);
        }
      }

      double sum_change = 0.0;
      std::size_t changed_nodes = 0;
      std::uint64_t msgs_computed = 0, msgs_reused = 0, prods_reused = 0;
      std::uint64_t cell_visits = 0, kernel_cells = 0;
      std::size_t quorum_held = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (node_change[i] >= 0.0) {
          sum_change += node_change[i];
          ++changed_nodes;
        }
        msgs_computed += node_msgs_computed[i];
        msgs_reused += node_msgs_reused[i];
        prods_reused += node_prods_reused[i];
        cell_visits += node_cell_visits[i];
        kernel_cells += node_kernel_cells[i];
        quorum_held += node_quorum_held[i];
      }
      obs::count("grid.messages.computed", msgs_computed);
      obs::count("grid.messages.reused", msgs_reused);
      obs::count("grid.products.reused", prods_reused);
      obs::count("grid.cell_visits", cell_visits);
      obs::count("grid.kernel_cells", kernel_cells);
      obs::count(lvl_visits_name, cell_visits);
      if (quorum_held) obs::count("grid.quorum_holds", quorum_held);
      {
        const obs::Span commit_span("grid.commit");
        const auto commit_chunk = [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i)
            if (!acts_anchor[i] && !transport.crashed(i) &&
                !node_quorum_held[i])
              copy_belief(staged[i], belief[i]);
        };
        if (pool)
          parallel_for_chunks(*pool, n, commit_chunk);
        else
          commit_chunk(0, n);
      }

      const double mean_change =
          changed_nodes ? sum_change / static_cast<double>(changed_nodes)
                        : 0.0;
      result.change_per_iteration.push_back(mean_change);
      // Residual distribution across rounds, fixed-point at 1e-9 TV units.
      // The residual is folded serially in node order above, so the observed
      // value — hence the bucket — is identical at any thread count.
      obs::observe_scaled("grid.round.residual", mean_change, 1e9);
      if (config_.observer) {
        emit_estimates();
        config_.observer(iter + 1, result.estimates);
      }
      if (tracing) {
        emit_estimates();
        obs::RobustActivity robust;
        robust.anchors_demoted = anchors_demoted;
        robust.quorum_held = quorum_held;
        robust.stale_links = transport.stale_links();
        robust.crashed_nodes = transport.crashed_count();
        obs::record_round(scenario, iter + 1, mean_change, result.estimates,
                          transport.stats(), robust);
      }
      // Converged at this resolution: the finest level ends the run; a
      // coarse level just hands over to the next rung early. A round with
      // quorum holds never counts: held nodes report no change precisely
      // because the network is too degraded to update them. Deferred
      // links do NOT block convergence: near the tolerance the damping
      // tail keeps beliefs republishing hairline deltas for many rounds,
      // and round_robin itself terminates with that round's publishes
      // unintegrated — the residual policy's terminal backlog is the
      // bottom-residual slice of the same trickle (everything above the
      // budget cut was integrated, and the starvation floor bounded every
      // link's lag during the run).
      if (mean_change < config_.iteration.convergence_tol &&
          level_round >= 2 && quorum_held == 0) {
        if (finest) result.converged = true;
        ++iter;
        break;
      }
    }

    prev_shape = shape;
  }
  rounds_timer.stop();
  obs::count(result.converged ? "grid.converged" : "grid.maxed_out");

  emit_estimates();
  result.iterations = iter;
  result.comm = transport.stats();
  result.transport_hash = transport.hash();
  result.seconds = watch.seconds();
  return result;
}

}  // namespace bnloc
