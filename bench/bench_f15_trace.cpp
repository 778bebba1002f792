// F15 — telemetry: per-round convergence traces and the zero-perturbation
// contract.
//
// Part A: one faulted, robust grid run under an installed telemetry sink.
//         Prints the per-round trace (residual, mean error vs truth, comm
//         deltas, robust-layer activity) and checks it against the engine's
//         own report: row count == iterations, the final residual equals
//         change_per_iteration.back(), and the final mean error matches
//         evaluate() up to float-accumulation order.
//         BNLOC_TRACE_JSONL=<path> additionally exports the trace as JSONL.
// Part B: determinism — the telemetry-on AggregateRow must be bit-identical
//         to the telemetry-off one (wall-clock fields excluded) at 1 and 4
//         harness threads, for the grid and Gaussian engines, and the
//         parallel rows must match the serial ones.
//         BNLOC_REPORT_JSON=<path> exports a machine-readable run report.
// The bench's exit code is the conjunction of all checks.
#include "bench_common.hpp"

#include <cmath>
#include <cstdlib>
#include <vector>

using namespace bnloc;
using namespace bnloc::bench;

namespace {

/// The deterministic slice of a registry snapshot: event counters and
/// histograms (work accounting, message/kernel counters, residual
/// distributions). Timers and gauges carry wall-clock and are excluded.
std::vector<obs::MetricEntry> event_metrics(const obs::Registry& reg) {
  std::vector<obs::MetricEntry> out;
  for (obs::MetricEntry& e : reg.snapshot())
    if (e.kind == obs::MetricKind::counter ||
        e.kind == obs::MetricKind::histogram)
      out.push_back(std::move(e));
  return out;
}

bool same_event_metrics(const std::vector<obs::MetricEntry>& a,
                        const std::vector<obs::MetricEntry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].name != b[i].name || a[i].kind != b[i].kind ||
        a[i].count != b[i].count || a[i].hist_sum != b[i].hist_sum ||
        a[i].buckets != b[i].buckets)
      return false;
  return true;
}

}  // namespace

int main() {
  const BenchConfig bc = BenchConfig::from_env();
  const ScenarioConfig base = default_scenario(bc);
  print_banner("F15", "telemetry traces & zero-perturbation", bc, base);

  bool ok = true;

  std::printf("Part A: grid engine trace (outliers + crashes, robust on)\n");
  {
    ScenarioConfig cfg = base;
    cfg.faults.outlier_fraction = 0.10;
    cfg.faults.crash_fraction = 0.10;
    cfg.faults.crash_round_min = 2;
    cfg.faults.crash_round_max = 8;
    GridBnclConfig gc;
    gc.robustness.robust_likelihood = true;
    gc.robustness.contamination_epsilon = 0.15;
    gc.robustness.stale_ttl = 3;
    const GridBncl engine(gc);

    const Scenario scenario = build_scenario(cfg);
    Rng rng = make_algo_rng(engine.name(), cfg.seed);
    obs::Telemetry sink;
    LocalizationResult result;
    {
      const obs::TelemetryScope scope(&sink);
      result = engine.localize(scenario, rng);
    }
    const ErrorReport report = evaluate(scenario, result);
    const std::vector<obs::TraceRound> rows = sink.trace.rows();

    AsciiTable t({"round", "residual", "mean err/R", "localized", "msgs",
                  "bytes", "stale", "crashed"});
    for (const obs::TraceRound& r : rows)
      t.add_row({std::to_string(r.round), AsciiTable::fmt(r.residual, 4),
                 AsciiTable::fmt(r.mean_error, 4),
                 std::to_string(r.localized), std::to_string(r.msgs_sent),
                 std::to_string(r.bytes_sent),
                 std::to_string(r.robust.stale_links),
                 std::to_string(r.robust.crashed_nodes)});
    t.print(std::cout);

    const bool rows_match = rows.size() == result.iterations;
    const bool residual_match =
        !rows.empty() && !result.change_per_iteration.empty() &&
        rows.back().residual == result.change_per_iteration.back();
    const bool error_match =
        !rows.empty() &&
        std::abs(rows.back().mean_error - report.summary.mean) < 1e-9;
    std::printf("\ntrace rows %zu vs engine iterations %zu -> %s\n",
                rows.size(), result.iterations,
                rows_match ? "PASS" : "FAIL");
    std::printf("final residual matches change_per_iteration -> %s\n",
                residual_match ? "PASS" : "FAIL");
    std::printf("final trace error %.6f vs evaluate() %.6f -> %s\n",
                rows.empty() ? 0.0 : rows.back().mean_error,
                report.summary.mean, error_match ? "PASS" : "FAIL");
    ok = ok && rows_match && residual_match && error_match;

    const std::string trace_path = env_string("BNLOC_TRACE_JSONL", "");
    if (!trace_path.empty()) {
      const bool exported = obs::export_trace_jsonl(trace_path, sink.trace);
      std::printf("trace JSONL -> %s: %s\n", trace_path.c_str(),
                  exported ? "written" : "FAILED");
      ok = ok && exported;
    }
  }

  std::printf("\nPart B: telemetry on/off determinism (1 and 4 threads)\n");
  {
    BenchJson bj("F15", bc);
    const GridBncl grid;
    const GaussianBncl gauss;
    const std::string report_path = env_string("BNLOC_REPORT_JSON", "");
    AsciiTable b({"algorithm", "threads", "mean/R", "on==off", "==serial",
                  "work==", "spans"});
    for (const Localizer* algo : {static_cast<const Localizer*>(&grid),
                                  static_cast<const Localizer*>(&gauss)}) {
      AggregateRow serial;
      std::vector<obs::MetricEntry> serial_events;
      std::size_t serial_spans = 0;
      for (std::size_t threads : {1u, 4u}) {
        RunOptions off;
        off.threads = threads;
        const AggregateRow plain = run_algorithm(*algo, base, bc.trials, off);

        obs::RunTelemetry telemetry;
        telemetry.aggregate.spans_enabled = true;  // full tier: span records
        RunOptions on;
        on.threads = threads;
        on.telemetry = &telemetry;
        const AggregateRow instrumented =
            run_algorithm(*algo, base, bc.trials, on);

        const bool on_off = same_summaries(plain, instrumented);
        if (threads == 1) serial = plain;
        const bool vs_serial = same_summaries(serial, instrumented);
        // The deterministic telemetry itself must not depend on the thread
        // count either: work counters, message counters, and residual
        // histograms fold per trial in trial order, and the span *count* is
        // a pure function of the algorithm's control flow (durations move,
        // the tree shape does not).
        const std::vector<obs::MetricEntry> events =
            event_metrics(telemetry.aggregate.registry);
        const std::size_t span_count = telemetry.aggregate.spans.size();
        if (threads == 1) {
          serial_events = events;
          serial_spans = span_count;
        }
        const bool work_match = same_event_metrics(events, serial_events) &&
                                span_count == serial_spans && span_count > 0;
        ok = ok && on_off && vs_serial && work_match;
        bj.add(instrumented, "threads=" + std::to_string(threads));
        b.add_row({plain.algo, std::to_string(threads),
                   AsciiTable::fmt(plain.error.mean, 4),
                   on_off ? "yes" : "NO", vs_serial ? "yes" : "NO",
                   work_match ? "yes" : "NO", std::to_string(span_count)});

        if (algo == &grid && threads == 1 && !report_path.empty()) {
          obs::RunReport run_report = obs::make_run_report(
              "bench_f15_trace", base, instrumented, on);
          run_report.engine_params.emplace_back("engine_config", "default");
          const bool exported =
              obs::export_run_report_json(report_path, run_report);
          std::printf("run report JSON -> %s: %s\n", report_path.c_str(),
                      exported ? "written" : "FAILED");
          ok = ok && exported;
        }
      }
    }
    b.print(std::cout);
  }

  std::printf("\ntelemetry verdict: %s\n", ok ? "PASS" : "FAIL");
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
