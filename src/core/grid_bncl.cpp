#include "core/grid_bncl.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>

#include "core/robustness.hpp"
#include "inference/grid_belief.hpp"
#include "inference/kernel_cache.hpp"
#include "inference/pyramid.hpp"
#include "inference/range_kernel.hpp"
#include "inference/scheduler.hpp"
#include "inference/summary_codec.hpp"
#include "net/transport.hpp"
#include "obs/telemetry.hpp"
#include "support/assert.hpp"
#include "support/thread_pool.hpp"

namespace bnloc {

std::string GridBnclConfig::validate() const {
  if (!(damping >= 0.0 && damping < 1.0)) return "damping must be in [0, 1)";
  if (grid_side < 8) return "grid_side must be >= 8";
  // A published summary names its box in 16-bit cell coordinates.
  if (grid_side > kMaxSummarySide) return "grid_side must be <= 65535";
  if (pyramid_levels < 1) return "pyramid_levels must be >= 1";
  if (std::string why = robustness.validate(); !why.empty())
    return "robustness." + why;
  if (sched.policy == SchedulePolicy::residual) {
    if (std::string why = sched.validate(); !why.empty())
      return "sched." + why;
  }
  if (std::string why = transport.validate(); !why.empty())
    return "transport." + why;
  return {};
}

GridBncl::GridBncl(GridBnclConfig config) : config_(std::move(config)) {
  BNLOC_ASSERT_VALID(config_);
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

/// The engine's one ROI rule, with kRoiMargin: a node's region of interest
/// at a level is the support box of a raster — its prior at the first
/// level, its upsampled belief at a later pyramid level — at this fraction
/// of the raster's peak, dilated by kRoiMargin cells. The message floor
/// keeps every cell positive, so a node constrained by k >= 2 messages sits
/// at ~floor^k relative mass away from its blob — below this threshold —
/// while a one-message node (ring belief, relative background ~1e-4) keeps
/// a near-full ROI, which is exactly the node whose position is still
/// genuinely uncertain. A prior that is flat over the field yields the
/// full grid.
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
/// Single-level runs keep kMaxSupportCells.
constexpr std::size_t kPyramidPublishCap = 64;

/// Two-hop non-link factors per node (negative evidence).
constexpr std::size_t kNegativeMaxPairs = 12;

/// ROI dilation margin, in cells of the level being entered: the support
/// box kRoiPeakFraction finds is grown by this much on every edge before
/// masking. Larger is safer (the region a node's belief may move into
/// during the level) but slower; 4 covers the coarse-cell quantization of
/// an upsampled belief plus normal per-round drift.
constexpr std::int32_t kRoiMargin = 4;
static_assert(kRoiMargin >= 0, "ROI margin cannot be negative");

/// Additive floor per message (messages peak at 1).
constexpr double kMessageFloor = 1e-4;

/// A belief is worth broadcasting once its top `kMaxSupportCells` cells
/// cover this much mass. 0.5 admits ring-shaped beliefs (one-anchor nodes)
/// — essential for bootstrap when priors are uniform — while still
/// silencing near-uniform beliefs.
constexpr double kInformativeCoverage = 0.5;

/// Total-variation change since the last publish that triggers a re-send.
constexpr double kRebroadcastTol = 0.01;

/// Slot signatures: a summary version, 0 (nothing heard), kStale (the TTL
/// retired the slot), or kNeverIntegrated — the marker a product signature
/// starts from at a level switch or a reboot, which no input ever matches.
constexpr std::uint64_t kStale = Transport<SparseBelief>::kStale;
constexpr std::uint64_t kNeverIntegrated = kStale - 1;

/// Does the signature name a real published summary?
constexpr bool is_version(std::uint64_t sig) noexcept {
  return sig != 0 && sig < kNeverIntegrated;
}

/// Run `chunk(begin, end)` over the nodes [0, n): split across the pool
/// when the run has one, else as one serial call. Every node-parallel phase
/// reads round-start state and writes only its own nodes' slots, so the
/// output is identical either way.
template <typename Chunk>
void for_node_chunks(ThreadPool* pool, std::size_t n, const Chunk& chunk) {
  if (pool != nullptr)
    parallel_for_chunks(*pool, n, chunk);
  else
    chunk(0, n);
}

/// Two-hop non-neighbor pairs for negative evidence, capped per node. Each
/// node's list is independent of the others, so the scan splits across the
/// pool (per-chunk marker arrays).
std::vector<std::vector<std::size_t>> two_hop_nonlinks(const Scenario& s,
                                                       ThreadPool* pool) {
  std::vector<std::vector<std::size_t>> out(s.node_count());
  for_node_chunks(pool, s.node_count(), [&](std::size_t begin,
                                            std::size_t end) {
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
          if (out[i].size() >= kNegativeMaxPairs) break;
        }
        if (out[i].size() >= kNegativeMaxPairs) break;
      }
      // reset marks
      for (std::size_t v : out[i]) is_nb[v] = 0;
      for (const Neighbor& nb : s.graph.neighbors(i)) is_nb[nb.node] = 0;
      is_nb[i] = 0;
    }
  });
  return out;
}

/// One node's work in one round. The update sweep writes only its own
/// node's entry; the round close folds them serially in node order, so the
/// hot loop takes no telemetry lock and the folded values are identical at
/// any thread count.
struct NodeWork {
  /// TV change of the belief; negative when the node did not update
  /// (anchor, crashed, or held by the quorum gate).
  double change = -1.0;
  std::uint64_t msgs_computed = 0, msgs_reused = 0, prods_reused = 0;
  /// Work accounting (the gate currency of the perf benches): each dense
  /// belief op over the node's ROI charges one visit per cell touched; each
  /// computed link message, and each negative-evidence map built from the
  /// node's own summary, charges summary cells × kernel stamps. A non-link
  /// message read off a map charges no stamps.
  std::uint64_t cell_visits = 0, kernel_cells = 0;
  std::uint64_t quorum_held = 0;
};

/// One far node's negative evidence at one summary version: the non-link
/// message m(x) = 1 - min(1, sum_y b(y) * p_link(|x - y|)) over the box a
/// replay of that summary touches on the whole grid, row-major. Outside
/// the box m = 1. A replay gives each cell the same additions in the same
/// order whatever box clips it (RangeKernel::accumulate), so every
/// receiver's non-link message from this summary is the map restricted to
/// its ROI, bit for bit. Immutable once built and shared: the level's map
/// store, and every cached slot that integrated this version, hold it.
struct NegativeMap {
  std::uint64_t ver = 0;
  std::size_t side = 0;
  CellBox box;
  std::vector<double> cells;

  [[nodiscard]] ConstBoxView view() const noexcept {
    return ConstBoxView::packed(cells, side, box);
  }
};

/// The cells of `a` inside `b`; the one empty CellBox{} when they miss.
CellBox intersect(const CellBox& a, const CellBox& b) noexcept {
  const CellBox c{std::max(a.x0, b.x0), std::min(a.x1, b.x1),
                  std::max(a.y0, b.y0), std::min(a.y1, b.y1)};
  return c.empty() ? CellBox{} : c;
}

/// One input slot's cached message (residual policy only): the summary
/// version it was computed from (0: none), whether it had support, and its
/// support box inside the receiver's ROI. A link keeps the message's cells
/// there, row-major; their storage only grows within a level, so a slot
/// holds as many cells as its largest message of the level. A non-link
/// keeps no cells, only the map it integrated, which it reads over the box.
/// Outside the box the message is its slot kind's outside value
/// (MessageBuffers).
struct SlotMessage {
  std::uint64_t ver = 0;
  bool skip = false;
  CellBox box;
  std::vector<double> cells;
  std::shared_ptr<const NegativeMap> map;

  [[nodiscard]] ConstBoxView view(std::size_t side) const noexcept {
    return map ? map->view().sub(box) : ConstBoxView::packed(cells, side, box);
  }
};

/// One thread's dense message buffers, one per slot kind, each laid out
/// over the receiver's ROI (a prefix holds node i's box). Each is held at
/// its kind's value outside a message's support box — 0 for a link (a
/// range message is zero beyond its summary's reach), 1 for a non-link
/// (one minus a link probability that is zero there) — so a message built
/// or replayed over its support box reads as the whole message. After the
/// multiply the buffer is restored over that box.
struct MessageBuffers {
  explicit MessageBuffers(std::size_t cells)
      : link(cells, 0.0), nonlink(cells, 1.0) {}
  std::vector<double> link, nonlink;
};

/// The state of one localize() call, with one function per phase.
///
/// Input slots: every factor a node multiplies into its belief has one
/// slot. Node i's links sit at [link_off_[i], link_off_[i+1]) in CSR order
/// (the transport's own slot numbering); after all links, its two-hop
/// non-links sit at [nl_off_[i], nl_off_[i+1]). The scheduler and its
/// caches (messages, product signatures) index this one space, and
/// for_slots visits a node's slots in product order.
class GridRun {
 public:
  GridRun(const GridBnclConfig& config, const Scenario& scenario, Rng& rng);

  [[nodiscard]] std::size_t levels() const noexcept { return plan_.levels(); }
  /// Level setup or switch; returns the level's round budget.
  std::size_t enter_level(std::size_t lvl);
  /// Start a round: the transport draws its deliveries, then the nodes it
  /// rebooted restart cold.
  void reboot();
  void publish();
  void schedule();
  void update();
  void commit();
  /// Fold the round's work, report it, and test convergence; true when
  /// the level is done.
  bool close_round(LocalizationResult& result, std::size_t level_round);
  /// Count the level's grid state once its rounds are done, when the
  /// message cache holds its end-of-level cells.
  void count_state_bytes();
  void finish(LocalizationResult& result);

 private:
  /// What a slot serves this round: the usable summary (nullptr: none) and
  /// the signature the product cache keys on.
  using SlotInput = Transport<SparseBelief>::Input;

  [[nodiscard]] SlotInput input(std::size_t s) const noexcept;
  /// What a non-link whose far node is `far` serves: the far node's newest
  /// summary while it is usable as negative evidence.
  [[nodiscard]] SlotInput nonlink_input(std::size_t far) const noexcept;
  /// Calls fn(slot) for node i's slots in product order: links, then
  /// non-links. The floating-point product depends on that order.
  template <typename Fn>
  void for_slots(std::size_t i, Fn&& fn) const {
    for (std::size_t s = link_off_[i]; s < link_off_[i + 1]; ++s) fn(s);
    for (std::size_t s = nl_off_[i]; s < nl_off_[i + 1]; ++s) fn(s);
  }
  void decide_publish(std::size_t u, std::vector<std::uint32_t>& order);
  void build_map(std::size_t far);
  void update_node(std::size_t i, MessageBuffers& bufs, NodeWork& w);
  std::optional<CellBox> cached_message(std::size_t s, BoxView buf,
                                        NodeWork& w);
  std::optional<CellBox> compute_message(std::size_t s, const SlotInput& in,
                                         BoxView buf, NodeWork& w);
  void emit_estimates(LocalizationResult& result);

  // --- Run-wide -----------------------------------------------------------
  const GridBnclConfig& config_;
  const Scenario& scenario_;
  const std::size_t n_;
  const bool tracing_;
  const AnchorRoles roles_;
  const RangingSpec ranging_;
  const PyramidPlan plan_;
  const std::size_t pub_cap_;
  std::unique_ptr<ThreadPool> pool_;  ///< node-parallel phases; null: serial
  std::vector<std::size_t> link_off_, nl_off_;
  std::vector<std::size_t> far_;  ///< non-link slot's far node
  std::vector<std::size_t> map_nodes_;  ///< distinct far nodes, ascending
  std::size_t n_links_ = 0, n_slots_ = 0;
  // Published summaries (the "network state") live in the transport, which
  // serves each receiver-side slot its view of them. Each summary carries
  // a version (the global publish sequence number): receivers key cached
  // messages on it, so a summary that did not change between rounds never
  // pays for the same kernel correlation twice. Versions survive level
  // switches.
  Transport<SparseBelief> transport_;
  std::uint64_t pub_seq_ = 0;
  std::optional<ResidualScheduler> sched_;  ///< residual policy only
  QuorumGate gate_;
  // Round each node last published, for the heartbeat: a converged node
  // re-announces at least every `heartbeat` rounds so a receiver whose last
  // copy was dropped is not starved forever by the TV gate.
  std::vector<std::size_t> last_pub_round_;
  // Publish-phase two-pass state: pass 1 fills each node's candidate
  // summary in parallel; pass 2 encodes it and commits versions and metered
  // traffic serially in node order (bit-identical at any thread count).
  std::vector<SparseBelief> pub_candidate_;
  std::vector<unsigned char> will_publish_;
  std::vector<std::uint8_t> wire_;  ///< a summary's encoding (serial phases)
  std::vector<std::uint32_t> sched_cand_;
  std::vector<NodeWork> work_;
  std::size_t iter_ = 0;  ///< global round counter, spans all levels
  // Dense side² scratch for the consumers that need a whole-grid belief
  // (the level switch's upsample, first-level prior masking).
  std::vector<double> dense_scratch_, coarse_scratch_;

  // --- Per level ----------------------------------------------------------
  // Flat SoA arenas: one store per role, node i's slot a row-major slice
  // over its ROI box roi_[i]. The current beliefs carry across a level
  // switch (upsampled to locate the next level's ROI); everything else is
  // rebuilt.
  GridShape shape_{};
  bool finest_ = false;
  char visits_name_[48] = {};
  std::vector<CellBox> roi_;
  std::optional<BeliefStore> prior_, belief_, staged_, last_pub_;
  /// Negative-evidence map per far node, for its newest usable summary
  /// (null: none usable). Built by update()'s map pass, then only read.
  std::vector<std::shared_ptr<const NegativeMap>> neg_map_;
  std::optional<KernelCache> kcache_;
  std::vector<const RangeKernel*> link_kernel_;  ///< per link slot
  RangeKernel conn_kernel_;                      ///< non-link messages
  // The residual scheduler's caches, empty under round-robin: what each
  // node's last rebuild consumed, so a deferred slot can replay it.
  std::optional<BeliefStore> product_;  ///< each node's last product
  std::vector<unsigned char> have_product_;
  std::vector<SlotMessage> msg_;        ///< last message, per slot
  std::vector<std::uint64_t> in_sig_;   ///< last integrated signature, per slot
};

GridRun::GridRun(const GridBnclConfig& config, const Scenario& scenario,
                 Rng& rng)
    : config_(config),
      scenario_(scenario),
      n_(scenario.node_count()),
      tracing_(obs::trace_active()),
      roles_(scenario, config.robustness),
      ranging_(likelihood_ranging(scenario, config.robustness)),
      // levels == 1 is the single-resolution engine: one level, its ROIs
      // bounded by the priors' support, and no resampling.
      plan_(PyramidPlan::make(config.grid_side, config.pyramid_levels)),
      pub_cap_(plan_.levels() > 1
                   ? std::min(GridBncl::kMaxSupportCells, kPyramidPublishCap)
                   : GridBncl::kMaxSupportCells),
      link_off_(n_ + 1, 0),
      transport_(scenario, config.transport, config.robustness.stale_ttl,
                 rng.split(0x5ad10)),
      gate_(config.robustness, n_),
      last_pub_round_(transport_.heartbeat_rounds() > 0 ? n_ : 0, 0),
      pub_candidate_(n_),
      will_publish_(n_, 0),
      work_(n_),
      roi_(n_) {
  obs::count("grid.pyramid.levels", plan_.levels());
  // Per-node parallelism pilot: the Jacobi update, the publish phase's
  // decide/sparsify pass, and the staged→current commit are independent
  // across nodes within a round, so they split across a pool.
  if (config.threads != 1 && n_ > 1)
    pool_ = std::make_unique<ThreadPool>(config.threads);
  for (std::size_t i = 0; i < n_; ++i)
    link_off_[i + 1] = link_off_[i] + scenario.graph.degree(i);
  n_links_ = link_off_[n_];
  nl_off_.assign(n_ + 1, n_links_);
  if (config.use_negative_evidence) {
    const auto nonlinks = two_hop_nonlinks(scenario, pool_.get());
    for (std::size_t i = 0; i < n_; ++i) {
      nl_off_[i + 1] = nl_off_[i] + nonlinks[i].size();
      far_.insert(far_.end(), nonlinks[i].begin(), nonlinks[i].end());
    }
    map_nodes_ = far_;
    std::sort(map_nodes_.begin(), map_nodes_.end());
    map_nodes_.erase(std::unique(map_nodes_.begin(), map_nodes_.end()),
                     map_nodes_.end());
  }
  n_slots_ = nl_off_[n_];
  if (config.sched.policy == SchedulePolicy::residual)
    sched_.emplace(config.sched, n_slots_, n_);
}

GridRun::SlotInput GridRun::input(std::size_t s) const noexcept {
  if (s < n_links_) {
    // The transport's view of the link: the async inbox or the sync
    // sender's current/previous summary. A slot undelivered for longer
    // than the TTL serves nothing — the neighbor is presumed dead and its
    // stale summary decays out of the product.
    const auto [src, ver] = transport_.input(s);
    return {src != nullptr && !src->empty() ? src : nullptr, ver};
  }
  return nonlink_input(far_[s - n_links_]);
}

GridRun::SlotInput GridRun::nonlink_input(std::size_t far) const noexcept {
  // A non-link reads the far node's newest summary (two-hop summaries are
  // not on the radio at all; the non-link factor is an idealization under
  // either transport). With a TTL active a dead node's frozen summary stops
  // being usable here as well. The coverage gate depends only on the
  // summary, so the version alone identifies the contribution.
  if (config_.robustness.stale_ttl > 0 && transport_.crashed(far))
    return {nullptr, kStale};
  const auto [src, ver] = transport_.newest(far);
  // Negative evidence only pays off against a concentrated belief.
  const bool usable =
      src != nullptr && !src->empty() && src->covered_fraction >= 0.9;
  return {usable ? src : nullptr, ver};
}

std::size_t GridRun::enter_level(std::size_t lvl) {
  const GridShape prev = shape_;
  shape_ = GridShape{scenario_.field, plan_.sides[lvl]};
  const std::size_t side = shape_.side;
  const std::size_t n_levels = plan_.levels();
  finest_ = lvl + 1 == n_levels;
  // Per-level metric names ("grid.pyramid.l0.…"): pyramid depth is
  // bounded, so the name set stays tiny and fixed per config.
  std::snprintf(visits_name_, sizeof visits_name_,
                "grid.pyramid.l%zu.cell_visits", lvl);
  // Only the beliefs carry over: drop the previous level's other stores
  // before this level's are allocated.
  prior_.reset();
  staged_.reset();
  last_pub_.reset();
  product_.reset();
  msg_.clear();
  // A version names a map within one level only: the level switch rewrites
  // summaries under their old versions.
  neg_map_.assign(n_, nullptr);
  kcache_.reset();

  // --- Belief state at this level -----------------------------------------
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
  // broadcasts usable. The last-published copy restarts at zero, so the
  // re-broadcast TV gate sees a full-mass change and every alive
  // informative node re-announces itself at the new resolution. The translation is a stopgap for what a
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
  // The first level reads the box off the prior's own raster and keeps
  // the masked, packed result for pass 2 instead of rasterizing twice.
  std::vector<double> level0_prior;
  dense_scratch_.resize(shape_.cell_count());
  for (std::size_t i = 0; i < n_; ++i) {
    if (roles_.acts_anchor(i)) {
      roi_[i] = CellBox::at(shape_.cell_at(scenario_.anchor_position(i)), side);
    } else if (lvl == 0) {
      // The first level — every run's only level unless it is a pyramid —
      // is bounded by the *prior's* own support: pre-knowledge is exactly
      // the license to skip cells the prior already rules out (a belief
      // rebuilt as prior × messages keeps ≲1e-6 relative mass there
      // regardless). A prior flat over the field yields a full box and
      // changes nothing.
      beliefops::set_from_prior(shape_, dense_scratch_, roles_.prior(i));
      roi_[i] = beliefops::support_box(dense_scratch_, side, kRoiPeakFraction)
                    .dilated(kRoiMargin, side);
      beliefops::mask_in(dense_scratch_, side, roi_[i]);
      level0_prior.resize(level0_prior.size() + roi_[i].cell_count());
      beliefops::copy_in(
          ConstBoxView::dense(dense_scratch_, side, roi_[i]),
          BoxView::packed(std::span(level0_prior).last(roi_[i].cell_count()),
                          side, roi_[i]));
    } else {
      upsample_belief(prev, belief_->dense(i, coarse_scratch_), shape_,
                      dense_scratch_);
      roi_[i] = beliefops::support_box(dense_scratch_, side, kRoiPeakFraction)
                    .dilated(kRoiMargin, side);
    }
  }
  prior_.emplace(shape_, roi_);
  for (std::size_t i = 0, packed = 0; i < n_; ++i) {
    const std::span<double> slot = (*prior_)[i];
    if (roles_.acts_anchor(i)) {
      slot[0] = 1.0;
    } else if (lvl == 0) {
      std::copy_n(level0_prior.begin() + static_cast<std::ptrdiff_t>(packed),
                  slot.size(), slot.begin());
      packed += slot.size();
    } else {
      beliefops::set_from_prior_in(shape_, prior_->view(i), roles_.prior(i));
    }
  }
  // Every stored summary (senders' published ones, async send histories
  // awaiting retried deliveries, receiver inboxes) is re-expressed on the
  // new grid — receiver-locally, no radio traffic.
  if (lvl > 0)
    transport_.transform([&](SparseBelief& summary) {
      summary = upsample_summary(prev, shape_, summary);
    });
  belief_.emplace(*prior_);
  // The level's dense footprint: total ROI cells across the nodes that
  // actually update — the "pyramid cells per level" the P2 gate reads.
  std::uint64_t roi_cells = 0;
  for (std::size_t i = 0; i < n_; ++i)
    if (!roles_.acts_anchor(i)) roi_cells += roi_[i].cell_count();
  char roi_name[48];
  std::snprintf(roi_name, sizeof roi_name, "grid.pyramid.l%zu.roi_cells", lvl);
  obs::count(roi_name, roi_cells);
  obs::count("grid.pyramid.roi_cells", roi_cells);
  last_pub_.emplace(shape_, roi_);
  staged_.emplace(*belief_);  // Jacobi double buffer

  // --- Kernels per link slot ----------------------------------------------
  // Kernels are pure functions of the measured distance (the spec and shape
  // are fixed for the level), so this level's cache shares one kernel across
  // symmetric link directions and coincident measurements; receivers that
  // act as anchors never consume theirs and are skipped outright. The cache
  // belongs to the run and is dropped with the level.
  KernelCache& cache = kcache_.emplace(ranging_, shape_);
  link_kernel_.assign(n_links_, nullptr);
  for (std::size_t i = 0; i < n_; ++i) {
    if (roles_.acts_anchor(i)) continue;
    const auto nbs = scenario_.graph.neighbors(i);
    for (std::size_t k = 0; k < nbs.size(); ++k)
      link_kernel_[link_off_[i] + k] = cache.range(nbs[k].weight);
  }
  const KernelCache::Stats kernels = cache.stats();
  obs::count("grid.kernels.built", kernels.built);
  obs::count("grid.kernels.shared", kernels.shared);
  conn_kernel_ = config_.use_negative_evidence
                     ? RangeKernel::make_connectivity(scenario_.radio, shape_)
                     : RangeKernel();

  // --- The residual scheduler's caches ------------------------------------
  // A deferred slot keeps contributing the message of the version it last
  // integrated, so under the residual policy each input slot caches that
  // message and the summary version it came from. A message is a pure
  // function of (kernel, summary), so replaying the stored copy is
  // bit-identical to recomputing it. A link entry holds only the message's
  // support box inside the receiver's ROI (SlotMessage), so the cache grows
  // with links × ROI, like the beliefs; a non-link entry holds no cells,
  // only the shared map it read; receivers that act as anchors consume
  // nothing and hold no cells. A receiver whose every changed input was
  // deferred rebuilds the exact same pre-damping product, so that product
  // is kept per node and replayed outright, skipping the message loop.
  // Round-robin integrates every input every round and keeps neither. The
  // caches restart per level — a message computed at one resolution means
  // nothing at another — and so does the deferral debt: every slot's first
  // integration at this resolution must process.
  if (sched_) {
    sched_->reset_level();
    msg_.resize(n_slots_);
    product_.emplace(shape_, roi_);
    have_product_.assign(n_, 0);
    in_sig_.assign(n_slots_, kNeverIntegrated);
  }

  // --- Level round budget -------------------------------------------------
  // Coarse levels take an equal slice of the round budget (capped so the
  // finest level always keeps the majority), and always leave at least two
  // rounds for every level after them; the finest level gets the
  // remainder. For levels == 1 this is exactly `max_iterations`.
  const std::size_t total = config_.iteration.max_iterations;
  if (finest_) return total > iter_ ? total - iter_ : 0;
  const std::size_t reserve = 2 * (n_levels - 1 - lvl);
  const std::size_t share =
      std::max<std::size_t>(2, total / (n_levels + 1));
  return total > iter_ + reserve ? std::min(share, total - iter_ - reserve)
                                 : 0;
}

void GridRun::reboot() {
  transport_.begin_round();
  // Cold restart. A rebooted node's RAM is gone: its belief restarts from
  // the prior, its publish state resets (so the informative/TV gates treat
  // it as a newcomer, and its published summaries are cleared), and its
  // cached product is invalid. The transport has already wiped its
  // receiver-side state (async inbox) or granted its incoming slots a TTL
  // grace (sync).
  const std::span<const std::uint32_t> rebooted = transport_.rebooted();
  for (const std::uint32_t r : rebooted) {
    // An anchor's state is its surveyed position.
    if (roles_.acts_anchor(r)) continue;
    copy_belief((*prior_)[r], (*belief_)[r]);
    copy_belief((*prior_)[r], (*staged_)[r]);
    const std::span<double> lp = (*last_pub_)[r];
    std::fill(lp.begin(), lp.end(), 0.0);
    transport_.reset(r, 0, SparseBelief{});
    // Residual policy: a fresh boot owes nothing and is owed nothing — its
    // cached product goes, and its input signatures reset to "never
    // integrated", so every slot counts as first-heard (always processed,
    // never a deferral candidate) until the rebuilt belief has integrated
    // each neighbor once.
    if (sched_) {
      have_product_[r] = 0;
      for_slots(r, [&](std::size_t s) {
        in_sig_[s] = kNeverIntegrated;
        sched_->reset_slot(s);
      });
    }
    gate_.rearm(r);
    obs::count("grid.reboots");
  }
  // Warm re-entry (async; a no-op under sync): each live published
  // neighbor store-and-forward relays its newest summary to the rebooted
  // node, re-seeding its inbox in one hop instead of waiting out the
  // TV-gate silence of converged neighbors. The relay is metered as the
  // summary's encoding.
  for (const std::uint32_t r : rebooted) {
    for (const Neighbor& nb : scenario_.graph.neighbors(r)) {
      const SparseBelief* newest = transport_.newest(nb.node).payload;
      if (transport_.crashed(nb.node) || newest == nullptr) continue;
      encode_summary(*newest, shape_.side, wire_);
      transport_.relay(nb.node, r, wire_.size());
    }
  }
}

// Publish pass 1 for node u (node-parallel): the re-broadcast TV gate, the
// sparsify, and the informative gate are all node-local, as is the
// last-published copy. A crashed node's published state freezes at its
// last alive summary — neighbors keep using the copy they last received
// (until the TTL retires it).
void GridRun::decide_publish(std::size_t u,
                             std::vector<std::uint32_t>& order) {
  will_publish_[u] = 0;
  if (transport_.crashed(u)) return;
  // Heartbeat: a quiet node re-announces at least every `heartbeat`
  // rounds. Under a lossy link a converged node's final summary can simply
  // never have arrived somewhere — and the TV gate would keep it silent
  // forever, starving that receiver. Announced since its last reboot (a
  // rebooted anchor keeps its summary, so it stays announced).
  const std::size_t heartbeat = transport_.heartbeat_rounds();
  const bool ever_published = transport_.newest(u).ver != 0;
  const bool force_heartbeat = heartbeat > 0 && ever_published &&
                               iter_ + 1 - last_pub_round_[u] >= heartbeat;
  // Quiet-node short circuit: once a node has published (and nothing
  // forces re-broadcast), the decision reduces to the re-broadcast TV gate
  // — evaluated first so a silent node never pays for the sparsify.
  // Decision-equivalent to gating on informativeness first: either way a
  // quiet node does not publish. All three dense steps (TV gate, sparsify,
  // last-published copy) run over the node's ROI slots.
  if (ever_published && !force_heartbeat) {
    const double tv = beliefops::total_variation_in(belief_->view(u),
                                                    last_pub_->view(u));
    if (tv <= kRebroadcastTol) return;
    if (sched_) sched_->stage_publish(u, tv);
  } else if (sched_) {
    // Residual of a forced or first publish: the TV against the last
    // published copy when one exists, else full mass — a first
    // announcement is maximally newsworthy, so receivers never defer
    // their bootstrap.
    sched_->stage_publish(
        u, ever_published ? beliefops::total_variation_in(belief_->view(u),
                                                          last_pub_->view(u))
                          : 1.0);
  }
  beliefops::sparsify_in(belief_->view(u), GridBncl::kSupportMass, pub_cap_,
                         pub_candidate_[u], order);
  const bool informative =
      roles_.acts_anchor(u) ||
      pub_candidate_[u].covered_fraction >= kInformativeCoverage;
  if (!informative) return;
  copy_belief((*belief_)[u], (*last_pub_)[u]);
  will_publish_[u] = 1;
}

void GridRun::publish() {
  const obs::Span publish_span("grid.publish");
  for_node_chunks(pool_.get(), n_, [&](std::size_t begin, std::size_t end) {
    std::vector<std::uint32_t> order;
    for (std::size_t u = begin; u < end; ++u) decide_publish(u, order);
  });
  // Pass 2 (serial, node order): version numbers, the residual ledger and
  // metered traffic are order-sensitive, so they commit in node order
  // regardless of how pass 1 was scheduled.
  for (std::size_t u = 0; u < n_; ++u) {
    if (!will_publish_[u]) continue;
    // The summary goes out as its wire bytes, metered at their size, and
    // what neighbors integrate is what those bytes decode to: cells in
    // ascending id, 16-bit masses. One decode here stands in for every
    // receiver's decode of the same bytes. The decode keeps the candidate's
    // covered fraction, which the non-link gate reads off the sender
    // (two-hop evidence is not on the radio).
    SparseBelief& summary = pub_candidate_[u];
    encode_summary(summary, shape_.side, wire_);
    decode_summary(wire_, shape_.side, summary);
    const std::uint64_t ver = ++pub_seq_;
    // A first announcement is also the sync fallback for a receiver that
    // misses this round's delivery.
    if (transport_.newest(u).ver == 0) transport_.reset(u, ver, summary);
    if (sched_) sched_->commit_publish(u, ver);
    transport_.publish(u, ver, std::move(summary), wire_.size());
    if (transport_.heartbeat_rounds() > 0) last_pub_round_[u] = iter_ + 1;
  }
}

// Scan phase (residual policy): rank this round's changed slots by pending
// residual and defer everything below the budget. Serial, in node order,
// over pure per-round reads (the transport's per-slot inputs are fixed once
// the round has begun), so the decision bitmap — the only thing the
// parallel update phase sees — is a pure function of the round's inputs:
// bit-identical at any thread count, and identical under async replay.
//
// The priority is *receiver-coherent*: every changed slot of a receiver
// carries the receiver's total pending residual (the sum, over its changed
// slots, of sender residual it has not integrated). SPAWN rebuilds the
// whole product the moment any one input changes, so the engine's cost
// unit is the receiver's rebuild, not the link: granting one link of a
// receiver forces the full rebuild anyway, while deferring all of them
// collapses the receiver to the whole-product fast path — the
// node-granular flavor of residual scheduling (residual-splash BP),
// expressed through the per-link queue. Equal priorities sort adjacently
// (ties broken on node, then slot), so the budget cut lands on receiver
// boundaries.
//
// Only changed slots whose old and new signatures are both real versions
// are deferral-eligible; first-heard summaries, TTL retirements, revivals,
// and silence transitions always process (they are exactly the transitions
// where a stale replay would be wrong or impossible). A receiver holding
// any such transition rebuilds this round regardless, so its other changed
// slots are granted too rather than pointlessly deferred.
void GridRun::schedule() {
  if (!sched_) return;
  const obs::Span sched_span("grid.sched");
  sched_->begin_round();
  for (std::size_t i = 0; i < n_; ++i) {
    if (roles_.acts_anchor(i) || transport_.crashed(i)) continue;
    sched_cand_.clear();
    double pending = 0.0;
    bool force_rebuild = false;
    for_slots(i, [&](std::size_t s) {
      const std::uint64_t sig = input(s).ver;
      const std::uint64_t old = in_sig_[s];
      if (sig == old) return;  // quiet slot: costs nothing either way
      if (!is_version(sig) || !is_version(old)) {
        force_rebuild = true;
        return;
      }
      pending += sched_->pending(s, sig);
      sched_cand_.push_back(static_cast<std::uint32_t>(s));
    });
    if (force_rebuild) continue;
    for (const std::uint32_t s : sched_cand_)
      sched_->add_candidate(static_cast<std::uint32_t>(i), s, pending);
  }
  sched_->commit_round();
  const ScheduleRoundStats& st = sched_->round_stats();
  obs::count("sched.links_processed", st.processed);
  obs::count("sched.links_deferred", st.deferred);
  if (st.promotions) obs::count("sched.starvation_promotions", st.promotions);
}

// Update phase: rebuild each unknown's belief from its prior and the
// summaries its input slots serve this round (pure reads). Writes go to a
// staging buffer: order-independent, the honest distributed semantics.
void GridRun::update() {
  std::fill(work_.begin(), work_.end(), NodeWork{});
  const obs::Span update_span("grid.update");
  // Map pass: one negative-evidence map per far node and summary version,
  // instead of one replay per two-hop receiver. Each far node writes only
  // its own map and work entry; the sweep below only reads the maps.
  for_node_chunks(pool_.get(), map_nodes_.size(),
                  [&](std::size_t begin, std::size_t end) {
                    for (std::size_t k = begin; k < end; ++k)
                      build_map(map_nodes_[k]);
                  });
  for_node_chunks(pool_.get(), n_, [&](std::size_t begin, std::size_t end) {
    MessageBuffers bufs(shape_.cell_count());
    for (std::size_t i = begin; i < end; ++i) update_node(i, bufs, work_[i]);
  });
}

// Rebuild node `far`'s map when its usable summary changed version; drop it
// when none is usable. A map an older version left behind stays alive while
// a cached (deferred) slot still refers to it.
void GridRun::build_map(std::size_t far) {
  const SlotInput in = nonlink_input(far);
  std::shared_ptr<const NegativeMap>& held = neg_map_[far];
  if (in.payload == nullptr) {
    held.reset();
    return;
  }
  if (held != nullptr && held->ver == in.ver) return;
  const std::size_t side = shape_.side;
  auto map = std::make_shared<NegativeMap>();
  map->ver = in.ver;
  map->side = side;
  map->box = conn_kernel_.touched_box(*in.payload, CellBox::full(side), side);
  map->cells.assign(map->box.cell_count(), 0.0);
  conn_kernel_.accumulate(*in.payload,
                          BoxView::packed(map->cells, side, map->box));
  // m(x) = 1 - P(link | x), capped at 1 (kernel overlap can exceed it
  // slightly on coarse grids).
  for (double& v : map->cells) v = std::max(0.0, 1.0 - std::min(v, 1.0));
  work_[far].kernel_cells +=
      static_cast<std::uint64_t>(in.payload->cells.size()) *
      conn_kernel_.stamp_count();
  held = std::move(map);
}

void GridRun::update_node(std::size_t i, MessageBuffers& bufs, NodeWork& w) {
  if (roles_.acts_anchor(i)) return;
  if (transport_.crashed(i)) return;  // dead nodes stop computing too

  // Partial-neighborhood quorum: when most of the neighborhood is
  // unreachable (partition, mass loss, crash cluster, summaries still in
  // flight), hold the previous belief instead of integrating the skewed
  // remainder — an update from the 1-2 reachable neighbors drags the
  // posterior toward their side of the cut. The held node's cached product
  // is invalidated: inputs may have changed while it was not looking.
  const bool held = gate_.hold(i, scenario_.graph.degree(i), [&] {
    std::size_t usable = 0;
    for (std::size_t s = link_off_[i]; s < link_off_[i + 1]; ++s)
      if (transport_.input(s).payload != nullptr) ++usable;
    return usable;
  });
  if (held) {
    w.quorum_held = 1;
    if (sched_) have_product_[i] = 0;
    return;
  }

  const BoxView next = staged_->view(i);
  const ConstBoxView cur = belief_->view(i);
  const std::uint64_t box_cells = roi_[i].cell_count();
  // Residual policy pre-pass: fold this round's inputs into the per-slot
  // signatures. If every signature is unchanged, the cached product is
  // exact and the message loop is skipped entirely.
  bool static_inputs = false;
  if (sched_) {
    static_inputs = have_product_[i] != 0;
    for_slots(i, [&](std::size_t s) {
      // A deferred slot holds its old signature — the cached message keeps
      // contributing and the slot stays a scheduling candidate until the
      // budget (or the starvation floor) lets the new version in. Deferral
      // never reads as silence: the transport's heard rounds come from the
      // radio, not from integration.
      if (sched_->deferred(s)) return;
      const std::uint64_t sig = input(s).ver;
      if (in_sig_[s] == sig) return;
      in_sig_[s] = sig;
      static_inputs = false;
      // Folding a real version here is the moment of integration the
      // pending-residual accounting keys on.
      if (is_version(sig)) sched_->integrate(s, sig);
    });
  }

  if (static_inputs) {
    ++w.prods_reused;
    copy_belief((*product_)[i], (*staged_)[i]);
  } else {
    copy_belief((*prior_)[i], (*staged_)[i]);
    // The product's last mass total, divided out by the next step (or the
    // finish) in the same pass as its multiply.
    double pending = 0.0;
    for_slots(i, [&](std::size_t s) {
      const bool link = s < n_links_;
      const BoxView buf = BoxView::packed(link ? bufs.link : bufs.nonlink,
                                          shape_.side, roi_[i]);
      std::optional<CellBox> support;
      if (sched_) {
        support = cached_message(s, buf, w);
      } else if (const SlotInput in = input(s); in.payload != nullptr) {
        support = compute_message(s, in, buf, w);
      }
      if (!support) return;
      w.cell_visits += box_cells;
      pending = beliefops::product_step(next, buf, kMessageFloor, pending);
      beliefops::fill_in(buf.sub(*support), link ? 0.0 : 1.0);
    });
    beliefops::product_finish(next, pending);
    if (sched_) {
      // pre-damping: replayable as-is
      copy_belief((*staged_)[i], (*product_)[i]);
      have_product_[i] = 1;
      w.cell_visits += box_cells;
    }
  }
  beliefops::mix_in(next, cur, config_.damping);
  w.change = beliefops::total_variation_in(next, cur);
  w.cell_visits += 3 * box_cells;  // prior copy or replay + mix + residual
}

// Residual policy: slot s's message through the cache, written into `buf`
// as compute_message does. A deferred slot replays the message of its
// last-integrated version (bit-identical to the round it was computed in)
// and skips the kernel work the new summary would cost; the cached entry is
// that message exactly when its version matches the held signature,
// otherwise the last integration contributed nothing (never heard, or
// retired) and neither does the replay. A slot whose summary version is
// unchanged replays too; any other slot computes and caches its message.
std::optional<CellBox> GridRun::cached_message(std::size_t s, BoxView buf,
                                               NodeWork& w) {
  SlotMessage& m = msg_[s];
  const auto replay = [&]() -> std::optional<CellBox> {
    ++w.msgs_reused;
    if (m.skip) return std::nullopt;
    beliefops::copy_in(m.view(shape_.side), buf.sub(m.box));
    return m.box;
  };
  if (sched_->deferred(s)) {
    if (m.ver == 0 || m.ver != in_sig_[s] || m.skip) return std::nullopt;
    return replay();
  }
  const SlotInput in = input(s);
  if (in.payload == nullptr) return std::nullopt;
  if (m.ver == in.ver) return replay();
  const std::optional<CellBox> support = compute_message(s, in, buf, w);
  m.ver = in.ver;
  m.skip = !support;
  m.box = support.value_or(CellBox{});
  if (s >= n_links_) {
    m.map = neg_map_[far_[s - n_links_]];
  } else {
    m.cells.reserve(m.box.cell_count());  // exact growth, never shrinks
    m.cells.resize(m.box.cell_count());
    beliefops::copy_in(buf.sub(m.box),
                       BoxView::packed(m.cells, shape_.side, m.box));
  }
  return support;
}

// Build slot s's message from its input into `buf`, its slot kind's
// buffer over the receiver's ROI. Returns the support box it wrote, or
// nothing when the message has no support — a link whose kernel
// correlation put no mass in range (`buf` is already restored). A non-link
// message is its far node's map over the ROI and always has support.
std::optional<CellBox> GridRun::compute_message(std::size_t s,
                                                const SlotInput& in,
                                                BoxView buf, NodeWork& w) {
  ++w.msgs_computed;
  if (s >= n_links_) {
    const std::shared_ptr<const NegativeMap>& map =
        neg_map_[far_[s - n_links_]];
    BNLOC_ASSERT(map != nullptr && map->ver == in.ver &&
                     map->side == shape_.side,
                 "negative-evidence map read at the wrong version or grid");
    const CellBox box = intersect(map->box, buf.box);
    beliefops::copy_in(map->view().sub(box), buf.sub(box));
    return box;
  }
  const RangeKernel& kernel = *link_kernel_[s];
  w.kernel_cells += static_cast<std::uint64_t>(in.payload->cells.size()) *
                    kernel.stamp_count();
  // The replay writes only inside this box; outside it `buf` already holds
  // the message.
  const CellBox box = kernel.touched_box(*in.payload, buf.box, shape_.side);
  if (kernel.correlate_zeroed(*in.payload, buf, box) > 0.0) return box;
  beliefops::fill_in(buf.sub(box), 0.0);
  return std::nullopt;
}

void GridRun::commit() {
  const obs::Span commit_span("grid.commit");
  for_node_chunks(pool_.get(), n_, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i)
      if (!roles_.acts_anchor(i) && !transport_.crashed(i) &&
          !work_[i].quorum_held)
        copy_belief((*staged_)[i], (*belief_)[i]);
  });
}

bool GridRun::close_round(LocalizationResult& result,
                          std::size_t level_round) {
  double sum_change = 0.0;
  std::size_t changed_nodes = 0;
  NodeWork total;
  for (const NodeWork& w : work_) {
    if (w.change >= 0.0) {
      sum_change += w.change;
      ++changed_nodes;
    }
    total.msgs_computed += w.msgs_computed;
    total.msgs_reused += w.msgs_reused;
    total.prods_reused += w.prods_reused;
    total.cell_visits += w.cell_visits;
    total.kernel_cells += w.kernel_cells;
    total.quorum_held += w.quorum_held;
  }
  obs::count("grid.messages.computed", total.msgs_computed);
  obs::count("grid.messages.reused", total.msgs_reused);
  obs::count("grid.products.reused", total.prods_reused);
  obs::count("grid.cell_visits", total.cell_visits);
  obs::count("grid.kernel_cells", total.kernel_cells);
  obs::count(visits_name_, total.cell_visits);
  if (total.quorum_held) obs::count("grid.quorum_holds", total.quorum_held);

  const double mean_change =
      changed_nodes ? sum_change / static_cast<double>(changed_nodes) : 0.0;
  result.change_per_iteration.push_back(mean_change);
  // Residual distribution across rounds, fixed-point at 1e-9 TV units. The
  // residual is folded serially in node order above, so the observed value
  // — hence the bucket — is identical at any thread count.
  obs::observe_scaled("grid.round.residual", mean_change, 1e9);
  if (tracing_) {
    emit_estimates(result);
    obs::RobustActivity robust;
    robust.anchors_demoted = roles_.demoted();
    robust.quorum_held = total.quorum_held;
    robust.stale_links = transport_.stale_links();
    robust.crashed_nodes = transport_.crashed_count();
    obs::record_round(scenario_, iter_ + 1, mean_change, result.estimates,
                      transport_.stats(), robust);
  }
  ++iter_;
  // Converged at this resolution: the finest level ends the run; a coarse
  // level just hands over to the next rung early. A round with quorum holds
  // never counts: held nodes report no change precisely because the
  // network is too degraded to update them. Deferred links do NOT block
  // convergence: near the tolerance the damping tail keeps beliefs
  // republishing hairline deltas for many rounds, and round_robin itself
  // terminates with that round's publishes unintegrated — the residual
  // policy's terminal backlog is the bottom-residual slice of the same
  // trickle (everything above the budget cut was integrated, and the
  // starvation floor bounded every link's lag during the run).
  const bool converged = mean_change < config_.iteration.convergence_tol &&
                         level_round >= 2 && total.quorum_held == 0;
  if (converged && finest_) result.converged = true;
  return converged;
}

void GridRun::count_state_bytes() {
  std::size_t held_cells = 0;
  // Each live map once, whether the map store or cached slots hold it.
  std::vector<const NegativeMap*> maps;
  for (const auto& map : neg_map_)
    if (map) maps.push_back(map.get());
  for (const SlotMessage& m : msg_) {
    held_cells += m.cells.capacity();
    if (m.map) maps.push_back(m.map.get());
  }
  std::sort(maps.begin(), maps.end());
  maps.erase(std::unique(maps.begin(), maps.end()), maps.end());
  for (const NegativeMap* map : maps) held_cells += map->cells.capacity();
  obs::count("grid.state_bytes",
             prior_->bytes() + belief_->bytes() + staged_->bytes() +
                 last_pub_->bytes() + (product_ ? product_->bytes() : 0) +
                 held_cells * sizeof(double));
}

// Moments over each belief's ROI box: outside it the belief is exactly
// zero, so the box scan gives the whole-grid bits.
void GridRun::emit_estimates(LocalizationResult& result) {
  for (std::size_t i = 0; i < n_; ++i) {
    if (scenario_.is_anchor[i]) continue;
    const ConstBoxView b = belief_->view(i);
    const Vec2 mu = beliefops::mean_in(shape_, b);
    result.estimates[i] = mu;
    result.covariances[i] = beliefops::covariance_in(shape_, b, mu);
  }
}

void GridRun::finish(LocalizationResult& result) {
  obs::count(result.converged ? "grid.converged" : "grid.maxed_out");
  emit_estimates(result);
  result.iterations = iter_;
  result.comm = transport_.stats();
  result.transport_hash = transport_.hash();
}

}  // namespace

LocalizationResult GridBncl::localize(const Scenario& scenario,
                                      Rng& rng) const {
  LocalizationResult result = make_result_skeleton(scenario);
  if (obs::trace_active()) obs::trace_begin(name());
  obs::count("grid.runs");
  const obs::Span run_span("grid.run");
  obs::Span setup_span("grid.setup");
  GridRun run(config_, scenario, rng);
  setup_span.close();

  for (std::size_t lvl = 0; lvl < run.levels(); ++lvl) {
    const obs::Span level_span("grid.level");
    const std::size_t rounds = run.enter_level(lvl);
    for (std::size_t round = 0; round < rounds; ++round) {
      run.reboot();
      run.publish();
      run.schedule();
      run.update();
      run.commit();
      if (run.close_round(result, round)) break;
    }
    run.count_state_bytes();
  }
  run.finish(result);
  return result;
}

}  // namespace bnloc
