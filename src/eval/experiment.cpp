#include "eval/experiment.hpp"

#include <utility>

#include "obs/telemetry.hpp"
#include "support/config.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

#include "baselines/amorphous.hpp"
#include "baselines/apit.hpp"
#include "baselines/centroid.hpp"
#include "baselines/dvhop.hpp"
#include "baselines/mdsmap.hpp"
#include "baselines/minmax.hpp"
#include "baselines/refinement.hpp"
#include "core/gaussian_bncl.hpp"
#include "core/grid_bncl.hpp"
#include "core/particle_bncl.hpp"

namespace bnloc {

Rng make_algo_rng(const std::string& algo_name, std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the name
  for (unsigned char c : algo_name) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  std::uint64_t state = h ^ (seed * 0x9e3779b97f4a7c15ULL);
  return Rng(splitmix64(state));
}

RunOptions RunOptions::from_env() noexcept {
  RunOptions options;
  options.threads = env_size_t("BNLOC_THREADS", options.threads);
  return options;
}

namespace {

/// Everything one trial contributes to the aggregate, captured per trial so
/// trials can run on worker threads and be folded in trial order afterwards
/// (the fold order, not the execution order, is what the serial-equality
/// contract fixes).
struct TrialOutcome {
  std::vector<double> errors;
  double trial_mean = 0.0;
  bool has_errors = false;
  double coverage = 0.0;
  double penalized = 0.0;
  double msgs = 0.0;
  double bytes = 0.0;
  double iterations = 0.0;
  double seconds = 0.0;
};

}  // namespace

AggregateRow run_algorithm(const Localizer& algo, const ScenarioConfig& base,
                           std::size_t trials, const RunOptions& options) {
  AggregateRow row;
  row.algo = algo.name();
  row.trials = trials;
  const Stopwatch wall;

  // Telemetry is a strict observer: per-trial sinks (or the calling
  // thread's ambient sink, explicitly carried onto the workers so serial
  // and parallel runs capture alike) record what happened, never feed back.
  obs::RunTelemetry* telemetry = options.telemetry;
  if (telemetry) {
    telemetry->trials.clear();
    telemetry->trials.resize(trials);
    for (obs::Telemetry& sink : telemetry->trials) {
      sink.trace_enabled = telemetry->aggregate.trace_enabled;
      sink.spans_enabled = telemetry->aggregate.spans_enabled;
    }
  }
  obs::Telemetry* ambient = obs::current();

  std::vector<TrialOutcome> outcomes(trials);
  const auto run_trial = [&](std::size_t t) {
    const obs::TelemetryScope scope(telemetry ? &telemetry->trials[t]
                                              : ambient);
    ScenarioConfig cfg = base;
    cfg.seed = base.seed + t;
    obs::Span build_span("harness.build_scenario");
    const Scenario scenario = build_scenario(cfg);
    build_span.close();
    Rng rng = make_algo_rng(row.algo, cfg.seed);
    obs::Span solve_span("harness.localize");
    const LocalizationResult result = algo.localize(scenario, rng);
    solve_span.close();
    obs::Span eval_span("harness.evaluate");
    ErrorReport report = evaluate(scenario, result);
    eval_span.close();
    TrialOutcome& out = outcomes[t];
    out.errors = std::move(report.errors);
    out.has_errors = !out.errors.empty();
    out.trial_mean = report.summary.mean;
    out.coverage = report.coverage;
    out.penalized = report.penalized_mean;
    const std::size_t n = scenario.node_count();
    out.msgs = result.comm.messages_per_node(n);
    out.bytes = result.comm.bytes_per_node(n);
    out.iterations = static_cast<double>(result.iterations);
    out.seconds = result.seconds;
  };

  if (options.threads != 1 && trials > 1) {
    ThreadPool pool(options.threads);
    parallel_for_index(pool, trials, run_trial);
  } else {
    for (std::size_t t = 0; t < trials; ++t) run_trial(t);
  }

  // Fold in trial order: identical accumulation sequence to the serial loop
  // no matter which worker ran which trial.
  std::vector<double> pooled_errors;
  RunningStats coverage, msgs, bytes, iters, secs, penalized, trial_mean;
  for (TrialOutcome& out : outcomes) {
    pooled_errors.insert(pooled_errors.end(), out.errors.begin(),
                         out.errors.end());
    if (out.has_errors) trial_mean.add(out.trial_mean);
    coverage.add(out.coverage);
    penalized.add(out.penalized);
    msgs.add(out.msgs);
    bytes.add(out.bytes);
    iters.add(out.iterations);
    secs.add(out.seconds);
  }

  // Fold per-trial telemetry in trial order, mirroring the outcome fold:
  // counter sums are identical at any thread count.
  if (telemetry) {
    std::uint32_t track = 0;
    for (const obs::Telemetry& sink : telemetry->trials) {
      telemetry->aggregate.registry.merge(sink.registry);
      if (!sink.spans.empty())
        telemetry->aggregate.spans.merge(sink.spans, track);
      ++track;
    }
    telemetry->aggregate.registry.count("harness.trials", trials);
  }

  row.error = summarize(pooled_errors);
  row.trial_mean_sem = trial_mean.sem();
  row.penalized_mean = penalized.mean();
  row.coverage = coverage.mean();
  row.msgs_per_node = msgs.mean();
  row.bytes_per_node = bytes.mean();
  row.iterations = iters.mean();
  row.seconds = secs.mean();
  row.wall_seconds = wall.seconds();
  return row;
}

AggregateRow run_algorithm(const Localizer& algo, const ScenarioConfig& base,
                           std::size_t trials) {
  return run_algorithm(algo, base, trials, RunOptions::from_env());
}

std::vector<AggregateRow> run_suite(
    std::span<const std::unique_ptr<Localizer>> algos,
    const ScenarioConfig& base, std::size_t trials,
    const RunOptions& options) {
  std::vector<AggregateRow> rows;
  rows.reserve(algos.size());
  for (const auto& algo : algos)
    rows.push_back(run_algorithm(*algo, base, trials, options));
  return rows;
}

std::vector<AggregateRow> run_suite(
    std::span<const std::unique_ptr<Localizer>> algos,
    const ScenarioConfig& base, std::size_t trials) {
  return run_suite(algos, base, trials, RunOptions::from_env());
}

std::vector<std::unique_ptr<Localizer>> default_suite() {
  std::vector<std::unique_ptr<Localizer>> suite;
  suite.push_back(std::make_unique<GridBncl>());
  suite.push_back(std::make_unique<ParticleBncl>());
  suite.push_back(std::make_unique<GaussianBncl>());
  suite.push_back(std::make_unique<RefinementLocalizer>());
  suite.push_back(std::make_unique<MultilaterationLocalizer>());
  suite.push_back(std::make_unique<DvHopLocalizer>());
  suite.push_back(std::make_unique<AmorphousLocalizer>());
  suite.push_back(std::make_unique<ApitLocalizer>());
  suite.push_back(std::make_unique<MdsMapLocalizer>());
  suite.push_back(std::make_unique<MinMaxLocalizer>());
  suite.push_back(std::make_unique<CentroidLocalizer>());
  suite.push_back(std::make_unique<CentroidLocalizer>(
      CentroidConfig{.distance_weighted = true}));
  return suite;
}

}  // namespace bnloc
