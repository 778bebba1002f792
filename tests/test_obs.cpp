// Unit tests for the telemetry subsystem (obs/): registry semantics, the
// ambient sink, convergence traces, the harness fold, the exporters, and —
// most importantly — the determinism contract: telemetry on vs off produces
// bit-identical results at any thread count.
#include "obs/telemetry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "core/grid_bncl.hpp"
#include "eval/experiment.hpp"
#include "obs/prometheus.hpp"
#include "obs/report.hpp"

namespace bnloc {
namespace {

// --- Registry -------------------------------------------------------------

TEST(Registry, CountersAccumulate) {
  obs::Registry r;
  r.count("a");
  r.count("a", 4);
  r.count("b", 2);
  EXPECT_EQ(r.counter("a"), 5u);
  EXPECT_EQ(r.counter("b"), 2u);
  EXPECT_EQ(r.counter("missing"), 0u);
}

TEST(Registry, GaugesLastWriteWins) {
  obs::Registry r;
  r.gauge("g", 1.5);
  r.gauge("g", 2.5);
  EXPECT_EQ(r.gauge_value("g"), 2.5);
}

TEST(Registry, TimersAccumulateExactNanoseconds) {
  obs::Registry r;
  r.time_ns("t", 1'000'000);
  r.time_ns("t", 500'000);
  EXPECT_EQ(r.timer_calls("t"), 2u);
  EXPECT_DOUBLE_EQ(r.timer_seconds("t"), 1.5e-3);
}

TEST(Registry, MergeAddsCountersAndTimersAndOverwritesGauges) {
  obs::Registry a, b;
  a.count("c", 3);
  a.gauge("g", 1.0);
  a.time_ns("t", 100);
  b.count("c", 7);
  b.gauge("g", 9.0);
  b.time_ns("t", 200);
  b.count("only_b");
  a.merge(b);
  EXPECT_EQ(a.counter("c"), 10u);
  EXPECT_EQ(a.gauge_value("g"), 9.0);
  EXPECT_EQ(a.timer_calls("t"), 2u);
  EXPECT_DOUBLE_EQ(a.timer_seconds("t"), 300e-9);
  EXPECT_EQ(a.counter("only_b"), 1u);
}

TEST(Registry, MergeIgnoresUnwrittenGauges) {
  obs::Registry a, b;
  a.gauge("g", 4.0);
  a.merge(b);  // b never wrote g; a's value must survive
  EXPECT_EQ(a.gauge_value("g"), 4.0);
}

TEST(Registry, SnapshotIsNameSorted) {
  obs::Registry r;
  r.count("zebra");
  r.count("apple");
  r.gauge("mango", 1.0);
  const auto snap = r.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "apple");
  EXPECT_EQ(snap[1].name, "mango");
  EXPECT_EQ(snap[2].name, "zebra");
}

// --- Ambient sink ---------------------------------------------------------

TEST(TelemetryScope, InstallsAndRestoresNested) {
  EXPECT_EQ(obs::current(), nullptr);
  obs::Telemetry outer, inner;
  {
    const obs::TelemetryScope a(&outer);
    EXPECT_EQ(obs::current(), &outer);
    {
      const obs::TelemetryScope b(&inner);
      EXPECT_EQ(obs::current(), &inner);
    }
    EXPECT_EQ(obs::current(), &outer);
  }
  EXPECT_EQ(obs::current(), nullptr);
}

TEST(TelemetryScope, NullSinkMakesInstrumentationNoOp) {
  // No scope installed: every site must be callable and record nowhere.
  obs::count("nothing");
  obs::gauge("nothing", 1.0);
  {
    obs::Span span("nothing");
    span.close();
  }
  EXPECT_FALSE(obs::trace_active());
  EXPECT_EQ(obs::current(), nullptr);
}

TEST(TelemetryScope, CountAndSpanReachTheSink) {
  obs::Telemetry sink;
  sink.spans_enabled = true;
  {
    const obs::TelemetryScope scope(&sink);
    obs::count("events", 2);
    obs::Span span("phase");
    span.close();
    span.close();  // closed: neither this nor the destructor records again
  }
  EXPECT_EQ(sink.registry.counter("events"), 2u);
  EXPECT_EQ(sink.registry.timer_calls("phase"), 1u);
  const std::vector<obs::SpanRecord> rows = sink.spans.rows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(sink.registry.timer_seconds("phase"),
            static_cast<double>(rows[0].dur_ns) * 1e-9);
}

TEST(TelemetryScope, TraceActiveRespectsTraceEnabled) {
  obs::Telemetry sink;
  sink.trace_enabled = false;
  const obs::TelemetryScope scope(&sink);
  EXPECT_FALSE(obs::trace_active());
}

// --- Convergence trace ----------------------------------------------------

TEST(ConvergenceTrace, DifferencesCumulativeCommStatsIntoDeltas) {
  obs::ConvergenceTrace trace;
  trace.begin("demo");
  CommStats cum;
  cum.messages_sent = 10;
  cum.messages_received = 30;
  cum.bytes_sent = 100;
  trace.record(1, 0.5, 0.2, 8, cum, {});
  cum.messages_sent = 25;
  cum.messages_received = 70;
  cum.bytes_sent = 260;
  trace.record(2, 0.25, 0.1, 9, cum, {});
  const auto rows = trace.rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].msgs_sent, 10u);
  EXPECT_EQ(rows[0].bytes_sent, 100u);
  EXPECT_EQ(rows[1].msgs_sent, 15u);
  EXPECT_EQ(rows[1].msgs_received, 40u);
  EXPECT_EQ(rows[1].bytes_sent, 160u);
  EXPECT_EQ(rows[1].round, 2u);
  EXPECT_EQ(rows[1].residual, 0.25);
}

TEST(ConvergenceTrace, BeginResetsRowsAndBaseline) {
  obs::ConvergenceTrace trace;
  trace.begin("first");
  CommStats cum;
  cum.messages_sent = 10;
  trace.record(1, 0.0, 0.0, 0, cum, {});
  trace.begin("second");
  EXPECT_TRUE(trace.empty());
  EXPECT_EQ(trace.algo(), "second");
  // Baseline reset: the same cumulative stats count in full again.
  trace.record(1, 0.0, 0.0, 0, cum, {});
  EXPECT_EQ(trace.rows()[0].msgs_sent, 10u);
}

// --- Engine integration ---------------------------------------------------

ScenarioConfig small_config() {
  ScenarioConfig cfg;
  cfg.node_count = 60;
  cfg.seed = 7;
  return cfg;
}

TEST(EngineTrace, GridRowsMatchIterationsAndResiduals) {
  const ScenarioConfig cfg = small_config();
  const Scenario scenario = build_scenario(cfg);
  const GridBncl engine;
  Rng rng = make_algo_rng(engine.name(), cfg.seed);
  obs::Telemetry sink;
  LocalizationResult result;
  {
    const obs::TelemetryScope scope(&sink);
    result = engine.localize(scenario, rng);
  }
  const auto rows = sink.trace.rows();
  EXPECT_EQ(sink.trace.algo(), engine.name());
  ASSERT_EQ(rows.size(), result.iterations);
  ASSERT_EQ(rows.size(), result.change_per_iteration.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].round, i + 1);
    EXPECT_EQ(rows[i].residual, result.change_per_iteration[i]);
  }
  // Final-row sanity: every unknown is localized, the error is finite, and
  // the error matches evaluate() up to accumulation order.
  const ErrorReport report = evaluate(scenario, result);
  EXPECT_NEAR(rows.back().mean_error, report.summary.mean, 1e-9);
  EXPECT_EQ(rows.back().localized,
            scenario.node_count() - scenario.anchor_count());
  EXPECT_EQ(sink.registry.counter("grid.runs"), 1u);
  EXPECT_EQ(sink.registry.counter("radio.rounds"), result.comm.rounds);
}

TEST(EngineTrace, TelemetryDoesNotPerturbResults) {
  const ScenarioConfig cfg = small_config();
  const Scenario scenario = build_scenario(cfg);
  const GridBncl engine;

  Rng rng_plain = make_algo_rng(engine.name(), cfg.seed);
  const LocalizationResult plain = engine.localize(scenario, rng_plain);

  obs::Telemetry sink;
  Rng rng_traced = make_algo_rng(engine.name(), cfg.seed);
  LocalizationResult traced;
  {
    const obs::TelemetryScope scope(&sink);
    traced = engine.localize(scenario, rng_traced);
  }
  ASSERT_EQ(plain.estimates.size(), traced.estimates.size());
  for (std::size_t i = 0; i < plain.estimates.size(); ++i) {
    ASSERT_EQ(plain.estimates[i].has_value(), traced.estimates[i].has_value());
    if (plain.estimates[i]) {
      EXPECT_EQ(plain.estimates[i]->x, traced.estimates[i]->x);
      EXPECT_EQ(plain.estimates[i]->y, traced.estimates[i]->y);
    }
  }
  EXPECT_EQ(plain.iterations, traced.iterations);
}

// --- Harness fold ---------------------------------------------------------

TEST(RunTelemetry, PerTrialSinksFoldIntoAggregate) {
  const GridBncl engine;
  const ScenarioConfig cfg = small_config();
  obs::RunTelemetry telemetry;
  RunOptions options;
  options.telemetry = &telemetry;
  const AggregateRow row = run_algorithm(engine, cfg, 3, options);
  (void)row;
  ASSERT_EQ(telemetry.trials.size(), 3u);
  std::uint64_t per_trial_rounds = 0;
  for (const obs::Telemetry& t : telemetry.trials) {
    EXPECT_EQ(t.registry.counter("grid.runs"), 1u);
    EXPECT_FALSE(t.trace.empty());
    per_trial_rounds += t.registry.counter("radio.rounds");
  }
  EXPECT_EQ(telemetry.aggregate.registry.counter("grid.runs"), 3u);
  EXPECT_EQ(telemetry.aggregate.registry.counter("radio.rounds"),
            per_trial_rounds);
  EXPECT_EQ(telemetry.aggregate.registry.counter("harness.trials"), 3u);
  EXPECT_EQ(telemetry.aggregate.registry.timer_calls("harness.localize"), 3u);
}

TEST(RunTelemetry, TraceTrialsFalseSuppressesTraces) {
  const GridBncl engine;
  obs::RunTelemetry telemetry;
  telemetry.aggregate.trace_enabled = false;
  RunOptions options;
  options.telemetry = &telemetry;
  (void)run_algorithm(engine, small_config(), 2, options);
  for (const obs::Telemetry& t : telemetry.trials) {
    EXPECT_TRUE(t.trace.empty());
    EXPECT_EQ(t.registry.counter("grid.runs"), 1u);  // counters still flow
  }
}

TEST(RunTelemetry, OnVsOffBitIdenticalAtOneAndFourThreads) {
  const GridBncl engine;
  const ScenarioConfig cfg = small_config();
  for (std::size_t threads : {1u, 4u}) {
    RunOptions off;
    off.threads = threads;
    const AggregateRow plain = run_algorithm(engine, cfg, 4, off);

    obs::RunTelemetry telemetry;
    RunOptions on;
    on.threads = threads;
    on.telemetry = &telemetry;
    const AggregateRow traced = run_algorithm(engine, cfg, 4, on);

    // Bit-identical everywhere except the wall-clock fields.
    EXPECT_EQ(plain.error.mean, traced.error.mean) << threads;
    EXPECT_EQ(plain.error.median, traced.error.median);
    EXPECT_EQ(plain.error.rmse, traced.error.rmse);
    EXPECT_EQ(plain.error.q90, traced.error.q90);
    EXPECT_EQ(plain.error.count, traced.error.count);
    EXPECT_EQ(plain.trial_mean_sem, traced.trial_mean_sem);
    EXPECT_EQ(plain.penalized_mean, traced.penalized_mean);
    EXPECT_EQ(plain.coverage, traced.coverage);
    EXPECT_EQ(plain.msgs_per_node, traced.msgs_per_node);
    EXPECT_EQ(plain.bytes_per_node, traced.bytes_per_node);
    EXPECT_EQ(plain.iterations, traced.iterations);
  }
}

TEST(RunTelemetry, CountersIdenticalAcrossThreadCounts) {
  const GridBncl engine;
  const ScenarioConfig cfg = small_config();
  std::uint64_t serial_rounds = 0;
  for (std::size_t threads : {1u, 4u}) {
    obs::RunTelemetry telemetry;
    RunOptions options;
    options.threads = threads;
    options.telemetry = &telemetry;
    (void)run_algorithm(engine, cfg, 4, options);
    const std::uint64_t rounds =
        telemetry.aggregate.registry.counter("radio.rounds");
    if (threads == 1)
      serial_rounds = rounds;
    else
      EXPECT_EQ(rounds, serial_rounds);
  }
}

TEST(RunTelemetry, WorkCountersAndHistogramsIdenticalAcrossThreadCounts) {
  // The tier's work accounting (per-cell visit counters, kernel-cell scans)
  // and the per-round residual histogram are folded per trial in trial
  // order, so they must be exactly equal at any thread count — same
  // contract as the aggregates themselves.
  const GridBncl engine;
  const ScenarioConfig cfg = small_config();
  std::uint64_t serial_visits = 0, serial_kernel = 0;
  std::uint64_t serial_hist_count = 0, serial_hist_sum = 0;
  for (std::size_t threads : {1u, 4u}) {
    obs::RunTelemetry telemetry;
    RunOptions options;
    options.threads = threads;
    options.telemetry = &telemetry;
    (void)run_algorithm(engine, cfg, 4, options);
    const obs::Registry& reg = telemetry.aggregate.registry;
    const std::uint64_t visits = reg.counter("grid.cell_visits");
    const std::uint64_t kernel = reg.counter("grid.kernel_cells");
    const std::uint64_t hist_count =
        reg.histogram_count("grid.round.residual");
    const std::uint64_t hist_sum = reg.histogram_sum("grid.round.residual");
    EXPECT_GT(visits, 0u);
    EXPECT_GT(kernel, 0u);
    EXPECT_GT(hist_count, 0u);
    if (threads == 1) {
      serial_visits = visits;
      serial_kernel = kernel;
      serial_hist_count = hist_count;
      serial_hist_sum = hist_sum;
    } else {
      EXPECT_EQ(visits, serial_visits);
      EXPECT_EQ(kernel, serial_kernel);
      EXPECT_EQ(hist_count, serial_hist_count);
      EXPECT_EQ(hist_sum, serial_hist_sum);
    }
  }
}

TEST(RunTelemetry, SpanTrialsCapturesNestedSpansDeterministically) {
  const GridBncl engine;
  const ScenarioConfig cfg = small_config();

  // Spans are opt-in: the default fold records none.
  obs::RunTelemetry off;
  RunOptions options;
  options.telemetry = &off;
  (void)run_algorithm(engine, cfg, 2, options);
  EXPECT_TRUE(off.aggregate.spans.empty());

  std::size_t serial_spans = 0;
  for (std::size_t threads : {1u, 4u}) {
    obs::RunTelemetry telemetry;
    telemetry.aggregate.spans_enabled = true;
    RunOptions on;
    on.threads = threads;
    on.telemetry = &telemetry;
    (void)run_algorithm(engine, cfg, 2, on);
    const std::vector<obs::SpanRecord> rows =
        telemetry.aggregate.spans.rows();
    ASSERT_FALSE(rows.empty());
    // Each trial contributes its three harness phases as roots, and one
    // grid.run under harness.localize; engine phases nest under grid.run.
    std::vector<std::string> roots;
    std::size_t runs = 0;
    for (const obs::SpanRecord& r : rows) {
      if (r.parent < 0) {
        roots.push_back(r.name);
        continue;
      }
      ASSERT_LT(static_cast<std::size_t>(r.parent), rows.size());
      if (r.name == "grid.run") {
        EXPECT_EQ(rows[static_cast<std::size_t>(r.parent)].name,
                  "harness.localize");
        ++runs;
      }
    }
    const std::vector<std::string> trial_roots = {
        "harness.build_scenario", "harness.localize", "harness.evaluate"};
    ASSERT_EQ(roots.size(), 2 * trial_roots.size());
    for (std::size_t i = 0; i < roots.size(); ++i)
      EXPECT_EQ(roots[i], trial_roots[i % trial_roots.size()]);
    EXPECT_EQ(runs, 2u);
    // The span *count* is a pure function of control flow — thread-count
    // invariant even though the recorded durations are not.
    if (threads == 1)
      serial_spans = rows.size();
    else
      EXPECT_EQ(rows.size(), serial_spans);
  }
}

TEST(RunTelemetry, TimersAreTheFoldOfSpansAtOneAndFourThreads) {
  GridBnclConfig gc;
  gc.grid_side = 42;
  gc.pyramid_levels = 2;
  const GridBncl engine(gc);
  const ScenarioConfig cfg = small_config();
  constexpr std::size_t kTrials = 3;
  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    RunOptions options;
    options.threads = threads;
    obs::RunTelemetry on;
    on.aggregate.spans_enabled = true;
    options.telemetry = &on;
    (void)run_algorithm(engine, cfg, kTrials, options);

    // Per span name: number of records and their summed durations.
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> fold;
    for (const obs::SpanRecord& r : on.aggregate.spans.rows()) {
      ++fold[r.name].first;
      fold[r.name].second += r.dur_ns;
    }
    EXPECT_EQ(fold["grid.level"].first, 2 * kTrials);
    const obs::Registry& reg = on.aggregate.registry;
    for (const auto& [name, calls_ns] : fold) {
      EXPECT_EQ(reg.timer_calls(name), calls_ns.first) << name;
      EXPECT_EQ(reg.timer_seconds(name),
                static_cast<double>(calls_ns.second) * 1e-9)
          << name;
    }
    // Every timer is some span's fold.
    std::size_t timers = 0;
    for (const obs::MetricEntry& e : reg.snapshot()) {
      if (e.kind != obs::MetricKind::timer) continue;
      ++timers;
      EXPECT_EQ(fold.count(e.name), 1u) << e.name;
    }
    EXPECT_EQ(timers, fold.size());

    // Spans off: the same timer calls, and no records.
    obs::RunTelemetry off;
    options.telemetry = &off;
    (void)run_algorithm(engine, cfg, kTrials, options);
    EXPECT_TRUE(off.aggregate.spans.empty());
    for (const auto& [name, calls_ns] : fold)
      EXPECT_EQ(off.aggregate.registry.timer_calls(name), calls_ns.first)
          << name;
  }
}

// --- Exporters ------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(Exporters, TraceJsonlOneLinePerRoundWithExpectedFields) {
  obs::ConvergenceTrace trace;
  trace.begin("demo");
  CommStats cum;
  for (std::size_t round = 1; round <= 3; ++round) {
    cum.messages_sent += 10;
    cum.bytes_sent += 100;
    trace.record(round, 1.0 / static_cast<double>(round), 0.1, 5, cum, {});
  }
  const std::string path = ::testing::TempDir() + "/bnloc_trace.jsonl";
  ASSERT_TRUE(obs::export_trace_jsonl(path, trace));
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_NE(line.find("\"algo\":\"demo\""), std::string::npos);
    EXPECT_NE(line.find("\"round\":"), std::string::npos);
    EXPECT_NE(line.find("\"residual\":"), std::string::npos);
    EXPECT_NE(line.find("\"mean_error\":"), std::string::npos);
    EXPECT_NE(line.find("\"msgs_sent\":10"), std::string::npos);
    EXPECT_NE(line.find("\"stale_links\":"), std::string::npos);
  }
  EXPECT_EQ(lines, 3u);
  // Append mode adds rather than truncates.
  ASSERT_TRUE(obs::export_trace_jsonl(path, trace, /*append=*/true));
  std::ifstream again(path);
  std::size_t appended = 0;
  while (std::getline(again, line)) ++appended;
  EXPECT_EQ(appended, 6u);
  std::remove(path.c_str());
}

TEST(Exporters, RunReportJsonCarriesManifestAndMetrics) {
  const GridBncl engine;
  const ScenarioConfig cfg = small_config();
  obs::RunTelemetry telemetry;
  RunOptions options;
  options.telemetry = &telemetry;
  const AggregateRow row = run_algorithm(engine, cfg, 2, options);
  obs::RunReport report =
      obs::make_run_report("unit-test", cfg, row, options);
  report.engine_params.emplace_back("grid_side", "48");
  EXPECT_FALSE(report.metrics.empty());

  const std::string path = ::testing::TempDir() + "/bnloc_report.json";
  ASSERT_TRUE(obs::export_run_report_json(path, report));
  const std::string body = slurp(path);
  std::remove(path.c_str());
  for (const char* needle :
       {"\"run_id\":\"unit-test\"", "\"algo\":", "\"scenario\":",
        "\"nodes\":60", "\"seed\":7", "\"execution\":", "\"trials\":2",
        "\"engine_params\":", "\"grid_side\":\"48\"", "\"aggregate\":",
        "\"mean\":", "\"wall_seconds\":", "\"metrics\":", "grid.runs",
        "\"kind\":\"counter\"", "\"kind\":\"timer\"", "harness.localize"}) {
    EXPECT_NE(body.find(needle), std::string::npos) << needle;
  }
}

TEST(Exporters, BadPathsReturnFalse) {
  obs::ConvergenceTrace trace;
  trace.begin("demo");
  EXPECT_FALSE(obs::export_trace_jsonl("/no-such-dir-xyz/t.jsonl", trace));
  const obs::RunReport report;
  EXPECT_FALSE(
      obs::export_run_report_json("/no-such-dir-xyz/r.json", report));

  // A full device accepts the open and the buffered write and fails at the
  // flush on close. Non-empty inputs: an empty buffer never fails there.
  if (!std::filesystem::exists("/dev/full")) return;
  trace.record(1, 0.5, 0.1, 3, CommStats{}, {});
  obs::Registry registry;
  registry.count("events");
  obs::SpanStore spans;
  spans.end(spans.begin("phase", -1, 10), 20);
  EXPECT_FALSE(obs::export_trace_jsonl("/dev/full", trace));
  EXPECT_FALSE(obs::export_trace_jsonl("/dev/full", trace, /*append=*/true));
  EXPECT_FALSE(obs::export_run_report_json("/dev/full", report));
  EXPECT_FALSE(obs::export_prometheus("/dev/full", registry));
  EXPECT_FALSE(obs::export_trace_events_json("/dev/full", spans));
}

}  // namespace
}  // namespace bnloc
