// BatchService: the multi-tenant batch front end (bnloc-serve).
//
// One service instance owns a worker pool and serves batches of independent
// localization requests: requests shard across the pool, per-request
// results stream back as JSON lines *in request order* (a worker finishing
// request 7 before request 3 waits its turn in the emitter, not in the
// solver). Each request owns its engine state, range kernels included; the
// only cross-request state, the SIMD dispatch, is output-invisible.
//
// Contracts (docs/SERVICE.md spells them out for service consumers):
//  * Determinism/isolation: a request's response payload (everything but
//    wall-clock fields) is a pure function of the request. Solo or batched,
//    1 worker or 64, co-tenants or alone — bit-identical. Enforced by
//    tests/test_serve.cpp and the bench_p3_serve identity gate.
//  * Engines run single-threaded inside the service (the batch is the
//    parallelism; nested pools would oversubscribe). That is the one
//    *execution* knob the service sanitizes — semantic engine config is
//    honored verbatim.
//  * Tenant accounting: per-tenant request/failure counts, summed service
//    latency, and the peak bytes of results and response lines held within
//    one batch — the "memory per tenant" number. Latency percentiles are
//    read from the registry's `serve.latency_ns{tenant="…"}` histograms.
//    A batch's response JSON lines live until the next batch starts.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "serve/json_io.hpp"
#include "serve/request.hpp"
#include "support/thread_pool.hpp"

namespace bnloc::serve {

struct ServeConfig {
  /// Worker threads for request-level parallelism. 0 (default) selects
  /// hardware concurrency; 1 serves serially on the pool's single worker.
  std::size_t threads = 0;
  /// Score results against the scenario's ground truth (simulated batches
  /// carry their truth; turn off when serving measurement-only workloads).
  bool evaluate = true;
  /// Record hierarchical phase spans (serve request → engine run → pyramid
  /// level → publish/update/commit) into spans(), one track per request.
  /// Off by default — each span instance allocates a record. Results stay
  /// bit-identical either way (the spans are write-only wall-clock
  /// observations).
  bool collect_spans = false;
};

/// Cumulative per-tenant accounting across every batch this service ran.
struct TenantStats {
  std::string tenant;
  std::size_t requests = 0;
  std::size_t failed = 0;
  /// Summed service-side request latency (wall-clock).
  double total_seconds = 0.0;
  /// Peak per-batch bytes held for this tenant: its decoded results
  /// (estimate/covariance vectors; excludes engine-internal scratch) plus
  /// its response JSON lines — the "memory per tenant" metric. Jitters by
  /// a few bytes across identical batches (the lines embed wall-clock
  /// timings whose formatted length varies).
  std::size_t result_bytes_peak = 0;
  /// Request-latency percentiles (seconds) over every request this tenant
  /// ever ran here, read from metrics()'s `serve.latency_ns{tenant="…"}`
  /// histogram — conservative bucket-upper-edge estimates (≤ 12.5%
  /// quantization), the currency ROADMAP item 2's admission control will
  /// spend.
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
};

/// One batch's execution record.
struct BatchStats {
  std::size_t requests = 0;
  std::size_t failed = 0;
  double wall_seconds = 0.0;  ///< submit-to-last-emit wall time.
  /// Per-request service latency, in request order.
  std::vector<double> latencies;
  /// Latency quantile in [0, 1] (0.5 = p50, 0.99 = p99); 0 when empty.
  [[nodiscard]] double latency_quantile(double q) const;
  [[nodiscard]] double requests_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(requests) / wall_seconds
                              : 0.0;
  }
};

class BatchService {
 public:
  explicit BatchService(ServeConfig config = {});

  /// Per-result hook: called once per request, in request order, with the
  /// decoded response and its JSON line (a view of the service's copy;
  /// valid until the next run_batch call on this service).
  using ResultSink =
      std::function<void(const ServeResponse&, std::string_view json_line)>;

  /// Serve one batch; blocks until every request finished and streamed.
  /// Responses return in request order. The sink overload streams each
  /// line as soon as it and all its predecessors are done — mid-batch, not
  /// after the join.
  std::vector<ServeResponse> run_batch(std::vector<ServeRequest> requests);
  std::vector<ServeResponse> run_batch(std::vector<ServeRequest> requests,
                                       const ResultSink& sink);

  [[nodiscard]] const ServeConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return pool_.size();
  }
  /// Stats of the most recent batch.
  [[nodiscard]] const BatchStats& last_batch() const noexcept { return last_; }
  /// Cumulative per-tenant accounting, sorted by tenant id.
  [[nodiscard]] std::vector<TenantStats> tenants() const;
  /// Folded request telemetry (one sink per request, folded in request
  /// order): engine counters (`grid.kernels.built/shared` among them, each
  /// request counting its own kernels) plus the service's own `serve.*`
  /// counters and the per-tenant `serve.latency_ns{tenant="…"}`
  /// histograms. Exposable via
  /// obs::export_prometheus (the bnloc_serve --metrics-out path).
  [[nodiscard]] const obs::Registry& metrics() const noexcept {
    return metrics_;
  }
  /// Cumulative request spans (ServeConfig::collect_spans), one track per
  /// request in batch order — feed to obs::export_trace_events_json.
  [[nodiscard]] const obs::SpanStore& spans() const noexcept {
    return spans_;
  }

  /// Serve one request end to end (decode nothing, stream nothing): what a
  /// worker runs. Exposed so tests and benches can reproduce a batch
  /// element in perfect isolation.
  [[nodiscard]] ServeResponse serve_one(const ServeRequest& request) const;

 private:
  struct Tenant {
    TenantStats stats;
    std::size_t batch_result_bytes = 0;  ///< running footprint this batch.
  };

  /// Execution-knob sanitization (never semantic): engine threads to 1.
  [[nodiscard]] ServeRequest sanitize(ServeRequest request) const;

  ServeConfig config_;
  mutable ThreadPool pool_;
  std::map<std::string, Tenant> tenants_;
  /// The current batch's response JSON lines, in request order; each
  /// worker writes its own slot, the emitter hands the sink a view of it.
  std::vector<std::string> lines_;
  BatchStats last_;
  obs::Registry metrics_;
  obs::SpanStore spans_;
};

}  // namespace bnloc::serve
