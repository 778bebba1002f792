#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <exception>
#include <utility>

#include "deploy/scenario.hpp"
#include "eval/experiment.hpp"
#include "eval/metrics.hpp"
#include "obs/prometheus.hpp"
#include "obs/telemetry.hpp"
#include "support/timer.hpp"

namespace bnloc::serve {
namespace {

/// Estimated footprint of one decoded result kept alive for the caller
/// (the response vectors; engine scratch is freed before this point).
std::size_t result_footprint(const ServeResponse& response) {
  const LocalizationResult& r = response.result;
  return r.estimates.capacity() * sizeof(r.estimates[0]) +
         r.covariances.capacity() * sizeof(r.covariances[0]) +
         r.change_per_iteration.capacity() * sizeof(double) +
         response.report.errors.capacity() * sizeof(double);
}

/// The per-tenant request-latency histogram in metrics().
std::string tenant_latency_name(const std::string& tenant) {
  return obs::labeled("serve.latency_ns", {{"tenant", tenant}});
}

}  // namespace

double BatchStats::latency_quantile(double q) const {
  if (latencies.empty()) return 0.0;
  std::vector<double> sorted = latencies;
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      std::llround(clamped * static_cast<double>(sorted.size() - 1)));
  return sorted[rank];
}

BatchService::BatchService(ServeConfig config)
    : config_(config), pool_(config.threads) {}

ServeRequest BatchService::sanitize(ServeRequest request) const {
  // An execution knob only: the batch is the parallelism (nested engine
  // pools would oversubscribe). No output bit changes — single-threaded and
  // multi-threaded grid rounds are bit-identical by the engine's own
  // contract.
  request.grid.threads = 1;
  return request;
}

ServeResponse BatchService::serve_one(const ServeRequest& raw) const {
  const ServeRequest request = sanitize(raw);
  ServeResponse response;
  response.tenant = request.tenant;
  response.id = request.id;
  response.engine = to_string(request.engine);

  Stopwatch watch;
  if (std::string reason = validate(request); !reason.empty()) {
    response.error = std::move(reason);
    response.seconds = watch.seconds();
    return response;
  }
  try {
    const Scenario scenario = build_scenario(request.scenario);
    response.nodes = scenario.node_count();
    response.anchors = scenario.anchor_count();
    const std::unique_ptr<Localizer> localizer = make_localizer(request);
    response.engine = localizer->name();
    Rng rng = make_algo_rng(localizer->name(), request.algo_seed);
    const Stopwatch solve_watch;
    response.result = localizer->localize(scenario, rng);
    response.solver_seconds = solve_watch.seconds();
    for (std::size_t node = 0; node < scenario.node_count(); ++node) {
      if (!scenario.is_anchor[node] && response.result.estimates[node])
        ++response.localized;
    }
    if (config_.evaluate) response.report = evaluate(scenario, response.result);
    response.ok = true;
  } catch (const std::exception& ex) {
    response.ok = false;
    response.error = ex.what();
  }
  response.seconds = watch.seconds();
  return response;
}

std::vector<ServeResponse> BatchService::run_batch(
    std::vector<ServeRequest> requests) {
  return run_batch(std::move(requests), ResultSink{});
}

std::vector<ServeResponse> BatchService::run_batch(
    std::vector<ServeRequest> requests, const ResultSink& sink) {
  const std::size_t n = requests.size();
  last_ = BatchStats{};
  last_.requests = n;
  last_.latencies.resize(n, 0.0);

  // Tenant bookkeeping is mutated serially, before the fan-out: every
  // tenant in this batch gets its slot up front so workers never touch the
  // map, and the previous batch's lines are released.
  for (auto& entry : tenants_) entry.second.batch_result_bytes = 0;
  for (const ServeRequest& request : requests)
    tenants_.try_emplace(request.tenant);
  lines_.assign(n, std::string());

  std::vector<ServeResponse> responses(n);
  // deque: Telemetry holds mutexes (immovable); each is built in place.
  std::deque<obs::Telemetry> telemetries(n);
  for (obs::Telemetry& t : telemetries) {
    t.trace_enabled = false;
    t.spans_enabled = config_.collect_spans;
  }

  // In-order prefix streaming: whichever worker completes request i marks
  // it done and, under the emit lock, flushes every contiguous finished
  // request from the front. The stream order equals request order at any
  // thread count, yet lines leave mid-batch rather than after the join.
  std::vector<char> done(n, 0);
  std::size_t next_emit = 0;
  std::mutex emit_mutex;

  const auto emit = [&](std::size_t i) {  // caller holds emit_mutex.
    const ServeResponse& response = responses[i];
    Tenant& tenant = tenants_.at(response.tenant);
    tenant.stats.requests += 1;
    if (!response.ok) {
      tenant.stats.failed += 1;
      last_.failed += 1;
    }
    tenant.stats.total_seconds += response.seconds;
    // Latency histograms (bare and per-tenant labeled; tenants() reads its
    // percentiles from the labeled one). The emitter runs serially in
    // request order under the emit lock, so the observation order — though
    // not the wall-clock values — is deterministic at any thread count.
    const double lat_ns_f = response.seconds * 1e9;
    const std::uint64_t lat_ns =
        lat_ns_f <= 0.0 ? 0
                        : static_cast<std::uint64_t>(std::llround(lat_ns_f));
    metrics_.observe("serve.latency_ns", lat_ns);
    metrics_.observe(tenant_latency_name(response.tenant), lat_ns);
    tenant.batch_result_bytes += result_footprint(response) + lines_[i].size();
    tenant.stats.result_bytes_peak =
        std::max(tenant.stats.result_bytes_peak, tenant.batch_result_bytes);
    if (sink) sink(response, lines_[i]);
  };

  Stopwatch wall;
  parallel_for_index(pool_, n, [&](std::size_t i) {
    // Pool tasks must not throw; serve_one catches per-request failures
    // into ok=false responses, so nothing escapes here.
    {
      const obs::TelemetryScope scope(&telemetries[i]);
      const obs::Span request_span("serve.request");
      responses[i] = serve_one(requests[i]);
    }
    // Serialize outside the emit lock; the lock below publishes the slot.
    lines_[i] = serve_response_json(responses[i]);
    last_.latencies[i] = responses[i].seconds;

    std::lock_guard<std::mutex> lock(emit_mutex);
    done[i] = 1;
    while (next_emit < n && done[next_emit]) emit(next_emit++);
  });
  last_.wall_seconds = wall.seconds();

  // Per-request registries fold in request order — the same discipline the
  // Monte-Carlo harness uses to keep folded counters thread-count
  // invariant. Spans land on one track per request (batch order).
  {
    std::uint32_t track = 1;
    for (const obs::Telemetry& t : telemetries) {
      metrics_.merge(t.registry);
      if (!t.spans.empty()) spans_.merge(t.spans, track);
      ++track;
    }
  }
  metrics_.count("serve.batches", 1);
  metrics_.count("serve.requests", n);
  metrics_.count("serve.failed", last_.failed);
  return responses;
}

std::vector<TenantStats> BatchService::tenants() const {
  std::vector<TenantStats> out;
  out.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) {
    TenantStats stats = tenant.stats;
    stats.tenant = name;
    const std::string latency = tenant_latency_name(name);
    const auto seconds = [&](double q) {
      return static_cast<double>(metrics_.histogram_quantile(latency, q)) *
             1e-9;
    };
    stats.latency_p50 = seconds(0.50);
    stats.latency_p95 = seconds(0.95);
    stats.latency_p99 = seconds(0.99);
    out.push_back(std::move(stats));
  }
  return out;
}

}  // namespace bnloc::serve
