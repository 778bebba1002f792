// bnloc-serve: the multi-tenant batch service, as a binary.
//
// Reads a JSON batch of localization requests (file, stdin, or a built-in
// demo batch), serves it through serve::BatchService, and streams one JSON
// result line per request to stdout — in request order, mid-batch — while
// the human-facing summary (throughput, latency quantiles, per-tenant
// accounting) goes to stderr so the stdout stream stays machine-parseable.
// docs/SERVICE.md documents the full schema; the CI serve-smoke job
// validates this binary's output against it.
//
//   bnloc_serve                      # serve the built-in demo batch
//   bnloc_serve --demo-batch > b.json# print the demo batch (then edit it)
//   bnloc_serve b.json               # serve a batch file
//   bnloc_serve - < b.json           # ... or stdin
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bnloc/bnloc.hpp"

using namespace bnloc;

namespace {

// The demo batch doubles as the schema's worked example: three tenants,
// all three engines, an async-transport request, and two tenants measuring
// the same world (same scenario seed/config), which get the same answer.
constexpr const char* kDemoBatch = R"({"requests": [
  {"tenant": "acme", "id": "floor-2-grid", "engine": "grid",
   "scenario": {"nodes": 60, "anchor_fraction": 0.15, "seed": 11,
                "radio_range": 0.25, "noise": 0.1},
   "engine_config": {"grid_side": 24, "max_iterations": 12}},
  {"tenant": "acme", "id": "floor-2-particle", "engine": "particle",
   "scenario": {"nodes": 60, "anchor_fraction": 0.15, "seed": 11,
                "radio_range": 0.25, "noise": 0.1},
   "engine_config": {"particle_count": 96}},
  {"tenant": "globex", "id": "warehouse-a", "engine": "grid",
   "scenario": {"nodes": 60, "anchor_fraction": 0.15, "seed": 11,
                "radio_range": 0.25, "noise": 0.1},
   "engine_config": {"grid_side": 24, "max_iterations": 12}},
  {"tenant": "globex", "id": "warehouse-b-lossy", "engine": "grid",
   "scenario": {"nodes": 48, "anchor_fraction": 0.2, "seed": 29,
                "radio_range": 0.3, "noise": 0.12, "deployment": "clusters"},
   "engine_config": {"grid_side": 24, "max_iterations": 12,
                     "async": true, "loss": 0.1}},
  {"tenant": "initech", "id": "campus-gauss", "engine": "gauss",
   "scenario": {"nodes": 80, "anchor_fraction": 0.12, "seed": 5,
                "anchor_placement": "perimeter"},
   "engine_config": {"max_iterations": 30}},
  {"tenant": "initech", "id": "campus-prior-none", "engine": "grid",
   "scenario": {"nodes": 48, "anchor_fraction": 0.2, "seed": 5,
                "prior": "none"},
   "engine_config": {"grid_side": 24, "max_iterations": 12}}
]})";

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options] [batch.json | -]\n"
               "  (no input)     serve the built-in demo batch\n"
               "  -              read the batch from stdin\n"
               "  --demo-batch   print the demo batch JSON and exit\n"
               "  --threads N    worker threads (default: hardware)\n"
               "  --repeat N     serve the batch N times (cumulative "
               "metrics runs)\n"
               "  --metrics-out P  write the folded registry to P as "
               "Prometheus text\n"
               "  --trace-out P    record request spans, write Chrome/Perfetto "
               "trace JSON to P\n"
               "  --quiet        suppress the stderr summary\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServeConfig config;
  std::string input;
  std::string metrics_out, trace_out;
  std::size_t repeat = 1;
  bool quiet = false;
  bool have_input = false;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--demo-batch") {
      std::printf("%s\n", kDemoBatch);
      return 0;
    }
    if (arg == "--threads") {
      const auto threads = ++i < argc ? parse_count(argv[i]) : std::nullopt;
      if (!threads) return usage(argv[0]);
      config.threads = *threads;
    } else if (arg == "--repeat") {
      const auto count = ++i < argc ? parse_count(argv[i]) : std::nullopt;
      if (!count) return usage(argv[0]);
      repeat = *count == 0 ? 1 : *count;
    } else if (arg == "--metrics-out") {
      if (++i >= argc) return usage(argv[0]);
      metrics_out = argv[i];
    } else if (arg == "--trace-out") {
      if (++i >= argc) return usage(argv[0]);
      trace_out = argv[i];
      config.collect_spans = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "-") {
      std::ostringstream buffer;
      buffer << std::cin.rdbuf();
      input = buffer.str();
      have_input = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      std::ifstream file{std::string(arg)};
      if (!file) {
        std::fprintf(stderr, "bnloc_serve: cannot open '%s'\n", argv[i]);
        return 1;
      }
      std::ostringstream buffer;
      buffer << file.rdbuf();
      input = buffer.str();
      have_input = true;
    }
  }
  if (!have_input) input = kDemoBatch;

  std::vector<serve::ServeRequest> requests;
  std::string error;
  if (!serve::parse_serve_batch(input, requests, &error)) {
    std::fprintf(stderr, "bnloc_serve: %s\n", error.c_str());
    return 1;
  }

  serve::BatchService service(config);
  bool all_ok = true;
  for (std::size_t round = 0; round < repeat; ++round) {
    const auto responses = service.run_batch(
        requests, [](const serve::ServeResponse&, std::string_view line) {
          std::fwrite(line.data(), 1, line.size(), stdout);
          std::fputc('\n', stdout);
          std::fflush(stdout);  // stream lines as they complete, not at exit
        });
    for (const auto& response : responses)
      if (!response.ok) all_ok = false;
  }
  // The result lines are the product: a stdout that lost any of them (a
  // full disk, say) is a failed run, not a quiet success.
  if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
    std::fprintf(stderr, "bnloc_serve: cannot write the results to stdout\n");
    return 1;
  }

  if (!quiet) {
    const serve::BatchStats& batch = service.last_batch();
    std::fprintf(stderr,
                 "\nbatch: %zu requests (%zu failed) on %zu workers in %.3f s"
                 "  |  %.1f req/s  p50 %.1f ms  p99 %.1f ms\n",
                 batch.requests, batch.failed, service.worker_count(),
                 batch.wall_seconds, batch.requests_per_second(),
                 batch.latency_quantile(0.50) * 1e3,
                 batch.latency_quantile(0.99) * 1e3);
    std::fprintf(stderr, "%-12s %9s %7s %12s %15s %9s %9s %9s\n", "tenant",
                 "requests", "failed", "latency (s)", "result peak (B)",
                 "p50 (ms)", "p95 (ms)", "p99 (ms)");
    for (const serve::TenantStats& tenant : service.tenants())
      std::fprintf(stderr, "%-12s %9zu %7zu %12.3f %15zu %9.1f %9.1f %9.1f\n",
                   tenant.tenant.c_str(), tenant.requests, tenant.failed,
                   tenant.total_seconds, tenant.result_bytes_peak,
                   tenant.latency_p50 * 1e3, tenant.latency_p95 * 1e3,
                   tenant.latency_p99 * 1e3);
  }
  if (!metrics_out.empty() &&
      !obs::export_prometheus(metrics_out, service.metrics())) {
    std::fprintf(stderr, "bnloc_serve: cannot write '%s'\n",
                 metrics_out.c_str());
    return 1;
  }
  if (!trace_out.empty() &&
      !obs::export_trace_events_json(trace_out, service.spans())) {
    std::fprintf(stderr, "bnloc_serve: cannot write '%s'\n",
                 trace_out.c_str());
    return 1;
  }
  return all_ok ? 0 : 1;
}
