// Monte-Carlo experiment runner: the machinery behind every bench table.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/localizer.hpp"
#include "deploy/scenario.hpp"
#include "eval/metrics.hpp"
#include "support/stats.hpp"

namespace bnloc {

namespace obs {
struct RunTelemetry;
}

/// One algorithm's aggregate over a set of trials of one configuration.
struct AggregateRow {
  std::string algo;
  Summary error;            ///< pooled per-node normalized errors.
  double trial_mean_sem = 0.0;  ///< SEM of the per-trial mean errors.
  double penalized_mean = 0.0;  ///< mean with unlocalized nodes charged.
  double coverage = 0.0;        ///< mean over trials.
  double msgs_per_node = 0.0;
  double bytes_per_node = 0.0;
  double iterations = 0.0;
  double seconds = 0.0;         ///< mean localize() wall time per trial.
  /// Harness wall-clock for the whole trial batch. Unlike `seconds` (which
  /// sums per-trial solver time and is thread-count-invariant up to OS
  /// scheduling noise), this shrinks with RunOptions::threads — it is the
  /// speedup-visible column of every bench table (wall ms/trial).
  double wall_seconds = 0.0;
  std::size_t trials = 0;
};

/// Execution options for the Monte-Carlo harness. Deliberately NOT part of
/// the scenario or algorithm configuration: any thread count produces
/// bit-identical aggregates (see DESIGN.md "Threading model"), and the
/// telemetry sink is a strict observer (docs/OBSERVABILITY.md), so these
/// knobs affect wall-clock only.
struct RunOptions {
  /// Worker threads for trial-level parallelism. 1 (default) runs trials
  /// serially on the calling thread — the seed behavior of every earlier
  /// release; 0 selects hardware concurrency.
  std::size_t threads = 1;

  /// Optional telemetry capture (obs/telemetry.hpp). When set, each trial
  /// runs under its own per-trial sink (`telemetry->trials[t]`, cleared and
  /// re-sized per run_algorithm call) and the per-trial registries are
  /// folded into `telemetry->aggregate` in trial order after the join —
  /// counters are bit-identical at any thread count. Null (the default)
  /// leaves whatever ambient sink the calling thread had installed in
  /// effect for every trial, serial or parallel.
  obs::RunTelemetry* telemetry = nullptr;

  /// Reads the BNLOC_THREADS environment override (default 1).
  [[nodiscard]] static RunOptions from_env() noexcept;
};

/// Run `algo` on `trials` scenarios derived from `base` (seed = base.seed +
/// t) and aggregate. The per-trial algorithm RNG is derived from the trial
/// seed and the algorithm name so different algorithms never share streams.
/// Fault injection rides along: `base.faults` (see fault/fault.hpp) is
/// applied inside build_scenario per trial, deterministically in
/// (trial seed, fault seed); an empty spec is a no-op.
///
/// Trials are embarrassingly parallel: with `options.threads > 1` they fan
/// out across a ThreadPool and per-trial results are folded in trial order
/// after the join, so every aggregate (including pooled_errors ordering) is
/// bit-identical to the serial run regardless of thread count.
[[nodiscard]] AggregateRow run_algorithm(const Localizer& algo,
                                         const ScenarioConfig& base,
                                         std::size_t trials,
                                         const RunOptions& options);

/// Same, with options taken from the environment (BNLOC_THREADS; default
/// serial) — what the bench binaries call, so any table reproduces
/// identically but faster under `BNLOC_THREADS=N`.
[[nodiscard]] AggregateRow run_algorithm(const Localizer& algo,
                                         const ScenarioConfig& base,
                                         std::size_t trials);

/// Convenience: run a whole suite on the same configuration.
[[nodiscard]] std::vector<AggregateRow> run_suite(
    std::span<const std::unique_ptr<Localizer>> algos,
    const ScenarioConfig& base, std::size_t trials,
    const RunOptions& options);

[[nodiscard]] std::vector<AggregateRow> run_suite(
    std::span<const std::unique_ptr<Localizer>> algos,
    const ScenarioConfig& base, std::size_t trials);

/// The default algorithm line-up of table T1 (engines + all baselines).
[[nodiscard]] std::vector<std::unique_ptr<Localizer>> default_suite();

/// Stable per-(algorithm, seed) RNG.
[[nodiscard]] Rng make_algo_rng(const std::string& algo_name,
                                std::uint64_t seed);

}  // namespace bnloc
