#include "obs/report.hpp"

#include <cstdio>

#include "deploy/anchors.hpp"
#include "deploy/deployment.hpp"
#include "obs/telemetry.hpp"

namespace bnloc::obs {

std::string describe_ranging(const ScenarioConfig& config) {
  const char* type = config.radio.ranging.type == RangingType::log_normal
                         ? "log_normal"
                         : "gaussian";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s(%.0f%%)", type,
                config.radio.ranging.noise_factor * 100.0);
  return buf;
}

RunReport make_run_report(std::string run_id, const ScenarioConfig& config,
                          const AggregateRow& row,
                          const RunOptions& options) {
  RunReport report;
  report.run_id = std::move(run_id);
  report.algo = row.algo;
  report.nodes = config.node_count;
  report.anchor_fraction = config.anchor_fraction;
  report.deployment = to_string(config.deployment.kind);
  report.anchor_placement = to_string(config.anchor_placement);
  report.radio_range = config.radio.range;
  report.ranging = describe_ranging(config);
  report.prior_quality = to_string(config.prior_quality);
  report.faults = config.faults.any();
  report.seed = config.seed;
  report.trials = row.trials;
  report.threads = options.threads;
  report.aggregate = row;
  if (options.telemetry)
    report.metrics = options.telemetry->aggregate.registry.snapshot();
  return report;
}

void write_aggregate_row_fields(JsonWriter& w, const AggregateRow& row) {
  w.kv("algo", row.algo);
  w.kv("trials", static_cast<std::uint64_t>(row.trials));
  w.kv("mean", row.error.mean);
  w.kv("median", row.error.median);
  w.kv("rmse", row.error.rmse);
  w.kv("q90", row.error.q90);
  w.kv("min", row.error.min);
  w.kv("max", row.error.max);
  w.kv("trial_mean_sem", row.trial_mean_sem);
  w.kv("penalized_mean", row.penalized_mean);
  w.kv("coverage", row.coverage);
  w.kv("msgs_per_node", row.msgs_per_node);
  w.kv("bytes_per_node", row.bytes_per_node);
  w.kv("iterations", row.iterations);
  w.kv("seconds", row.seconds);
  w.kv("wall_seconds", row.wall_seconds);
}

bool export_run_report_json(const std::string& path,
                            const RunReport& report) {
  JsonWriter w;
  w.begin_object();
  w.kv("run_id", report.run_id);
  w.kv("algo", report.algo);
  w.key("scenario").begin_object();
  w.kv("nodes", static_cast<std::uint64_t>(report.nodes));
  w.kv("anchor_fraction", report.anchor_fraction);
  w.kv("deployment", report.deployment);
  w.kv("anchor_placement", report.anchor_placement);
  w.kv("radio_range", report.radio_range);
  w.kv("ranging", report.ranging);
  w.kv("prior_quality", report.prior_quality);
  w.kv("faults", report.faults);
  w.kv("seed", static_cast<std::uint64_t>(report.seed));
  w.end_object();
  w.key("execution").begin_object();
  w.kv("trials", static_cast<std::uint64_t>(report.trials));
  w.kv("threads", static_cast<std::uint64_t>(report.threads));
  w.end_object();
  w.key("engine_params").begin_object();
  for (const auto& [k, v] : report.engine_params) w.kv(k, v);
  w.end_object();
  w.key("aggregate").begin_object();
  write_aggregate_row_fields(w, report.aggregate);
  w.end_object();
  w.key("metrics").begin_array();
  for (const MetricEntry& m : report.metrics) {
    w.begin_object();
    w.kv("name", m.name);
    w.kv("kind", to_string(m.kind));
    w.kv("count", m.count);
    if (m.kind == MetricKind::gauge || m.kind == MetricKind::timer)
      w.kv("value", m.value);
    if (m.kind == MetricKind::histogram) {
      w.kv("sum", m.hist_sum);
      // Sparse bucket pairs [index, count] — the edges are fixed
      // (obs::LogHistogram geometry), so indices alone reconstruct them.
      w.key("buckets").begin_array();
      for (std::size_t b = 0; b < m.buckets.size(); ++b) {
        if (m.buckets[b] == 0) continue;
        w.begin_array();
        w.value(static_cast<std::uint64_t>(b));
        w.value(m.buckets[b]);
        w.end_array();
      }
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return write_text_file(path, w.str() + "\n");
}

bool export_trace_jsonl(const std::string& path,
                        const ConvergenceTrace& trace, bool append) {
  const std::string algo = trace.algo();
  std::string out;
  for (const TraceRound& r : trace.rows()) {
    JsonWriter w;
    w.begin_object();
    w.kv("algo", algo);
    w.kv("round", static_cast<std::uint64_t>(r.round));
    w.kv("residual", r.residual);
    w.kv("mean_error", r.mean_error);
    w.kv("localized", static_cast<std::uint64_t>(r.localized));
    w.kv("msgs_sent", static_cast<std::uint64_t>(r.msgs_sent));
    w.kv("msgs_received", static_cast<std::uint64_t>(r.msgs_received));
    w.kv("bytes_sent", static_cast<std::uint64_t>(r.bytes_sent));
    w.kv("delivered", static_cast<std::uint64_t>(r.delivered));
    w.kv("retried", static_cast<std::uint64_t>(r.retried));
    w.kv("dropped", static_cast<std::uint64_t>(r.dropped));
    w.kv("duplicates", static_cast<std::uint64_t>(r.duplicates));
    w.kv("crashed_delta", static_cast<double>(r.crashed_delta));
    w.kv("links_downweighted",
         static_cast<std::uint64_t>(r.robust.links_downweighted));
    w.kv("stale_links", static_cast<std::uint64_t>(r.robust.stale_links));
    w.kv("anchors_demoted",
         static_cast<std::uint64_t>(r.robust.anchors_demoted));
    w.kv("crashed_nodes", static_cast<std::uint64_t>(r.robust.crashed_nodes));
    w.kv("quorum_held", static_cast<std::uint64_t>(r.robust.quorum_held));
    w.end_object();
    out += w.str();
    out += '\n';
  }
  return write_text_file(path, out, append);
}

}  // namespace bnloc::obs
