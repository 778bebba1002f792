// Per-round convergence traces: the iteration-level diagnostic the paper's
// convergence claims are actually about.
//
// Engines (and the iterative baselines) call `record_round` once per
// belief-update round. The hook is a strict observer: it reads the current
// estimates and cumulative CommStats, derives the per-round deltas and the
// mean error against ground truth, and appends a TraceRound to the ambient
// sink. Nothing flows back — with no sink installed the call is a
// thread-local load and a branch (see docs/OBSERVABILITY.md).
//
// Ground truth note: the *telemetry* layer may read scenario.true_positions
// (it is evaluation machinery, exactly like eval/metrics.hpp); the engines
// only hand over their estimates and never consult the truth themselves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "geom/vec2.hpp"
#include "net/comm_stats.hpp"

namespace bnloc {
struct Scenario;
}

namespace bnloc::obs {

/// What the robustness countermeasures did in one round (all zero on a
/// clean run with the robust layer off).
struct RobustActivity {
  /// Links whose observation noise was inflated this round (Huber/IRLS
  /// downweighting in the Gaussian engine).
  std::size_t links_downweighted = 0;
  /// Directed links holding a summary not heard for more than the
  /// stale-belief TTL (the neighbor is presumed dead and its summary
  /// retired); see Transport::stale_links.
  std::size_t stale_links = 0;
  /// Anchors demoted to wide-prior unknowns by residual vetting (constant
  /// over the run: vetting happens once, up front).
  std::size_t anchors_demoted = 0;
  /// Nodes crashed as of this round (cumulative; fault-injected schedules).
  std::size_t crashed_nodes = 0;
  /// Nodes whose update was held this round by the partial-neighborhood
  /// quorum gate (async degradation ladder; 0 with the gate off).
  std::size_t quorum_held = 0;
};

/// One belief-update round as the trace records it.
struct TraceRound {
  std::size_t round = 0;    ///< 1-based round number.
  /// The engine's own convergence residual for the round (mean belief
  /// movement; same quantity as LocalizationResult::change_per_iteration).
  double residual = 0.0;
  /// Mean |estimate - truth| / R over localized unknowns; NaN when nothing
  /// is localized yet.
  double mean_error = 0.0;
  std::size_t localized = 0;  ///< unknowns with an estimate this round.
  // Communication deltas for THIS round (cumulative counters differenced
  // against the previous record call).
  std::size_t msgs_sent = 0;
  std::size_t msgs_received = 0;
  std::size_t bytes_sent = 0;
  // Async-transport deltas (always zero under SyncRadio): summaries
  // delivered-and-accepted, retransmission attempts, packets that exhausted
  // their retries, and duplicates the sequence gate rejected.
  std::size_t delivered = 0;
  std::size_t retried = 0;
  std::size_t dropped = 0;
  std::size_t duplicates = 0;
  /// Change in crashed_nodes since the previous round: positive when nodes
  /// died this round, negative when reboots outnumbered deaths.
  std::int64_t crashed_delta = 0;
  RobustActivity robust;
};

/// Collects TraceRounds for one run. `begin` resets the trace (rows and the
/// comm-delta baseline), so a sink holds the trace of its most recent run;
/// the Monte-Carlo harness hands every trial its own sink (obs::RunTelemetry)
/// precisely so traces never interleave.
class ConvergenceTrace {
 public:
  void begin(std::string algo);
  void record(std::size_t round, double residual, double mean_error,
              std::size_t localized, const CommStats& cumulative,
              const RobustActivity& robust);

  [[nodiscard]] std::vector<TraceRound> rows() const;
  [[nodiscard]] std::string algo() const;
  [[nodiscard]] bool empty() const;

 private:
  mutable std::mutex mutex_;
  std::string algo_;
  CommStats last_;  ///< cumulative stats at the previous record call.
  std::size_t last_crashed_ = 0;  ///< crashed_nodes at the previous record.
  std::vector<TraceRound> rows_;
};

/// True when an ambient sink with tracing enabled is installed on this
/// thread — engines check it before paying for per-round estimate emission.
[[nodiscard]] bool trace_active() noexcept;

/// Reset the ambient trace for a new run. No-op without an active sink.
void trace_begin(const std::string& algo);

/// Record one belief-update round on the ambient trace. `estimates` is the
/// engine's current per-node view (anchors are ignored); `cumulative` is the
/// radio's running CommStats, differenced internally into per-round deltas.
/// No-op without an active sink.
void record_round(const Scenario& scenario, std::size_t round,
                  double residual,
                  std::span<const std::optional<Vec2>> estimates,
                  const CommStats& cumulative,
                  const RobustActivity& robust = {});

}  // namespace bnloc::obs
