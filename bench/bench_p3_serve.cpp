// P3 — bnloc-serve: multi-tenant batch throughput, latency, and the
// determinism contract that makes the service safe to share.
//
//  A. throughput — a ≥64-request mixed-tenant batch (all three engines,
//     one async-transport request per tenant round) through BatchService:
//     requests/sec, p50/p99 service latency, and the per-tenant memory
//     column (peak bytes of results and response lines per batch).
//  B. isolation gate — every request of a 32-request mixed-tenant batch is
//     re-served solo and compared BIT FOR BIT against its in-batch
//     response (estimates, covariances, comm counters, transport_hash,
//     error report), at service thread counts 1 and 4. Any mismatch fails
//     the bench (exit 1). This is the determinism contract of
//     docs/SERVICE.md, measured rather than asserted.
//
// BNLOC_BENCH_JSON appends one line with both parts (results/BENCH_PR7.json
// is an older run that also carries a since-retired Part C; see
// results/README.md).
#include "bench_common.hpp"

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

using namespace bnloc;
using namespace bnloc::bench;

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Bit-exact equality of everything in a response except wall-clock
/// (ServeResponse::seconds, ServeResponse::solver_seconds) — the payload
/// the determinism contract covers.
bool payload_identical(const serve::ServeResponse& a,
                       const serve::ServeResponse& b) {
  if (a.tenant != b.tenant || a.id != b.id || a.engine != b.engine ||
      a.ok != b.ok || a.error != b.error || a.nodes != b.nodes ||
      a.anchors != b.anchors || a.localized != b.localized)
    return false;
  const LocalizationResult& ra = a.result;
  const LocalizationResult& rb = b.result;
  if (ra.estimates.size() != rb.estimates.size() ||
      ra.covariances.size() != rb.covariances.size() ||
      ra.change_per_iteration.size() != rb.change_per_iteration.size())
    return false;
  for (std::size_t i = 0; i < ra.estimates.size(); ++i) {
    if (ra.estimates[i].has_value() != rb.estimates[i].has_value())
      return false;
    if (ra.estimates[i] && (!same_bits(ra.estimates[i]->x, rb.estimates[i]->x) ||
                            !same_bits(ra.estimates[i]->y, rb.estimates[i]->y)))
      return false;
  }
  for (std::size_t i = 0; i < ra.covariances.size(); ++i) {
    if (ra.covariances[i].has_value() != rb.covariances[i].has_value())
      return false;
    if (ra.covariances[i] &&
        (!same_bits(ra.covariances[i]->xx, rb.covariances[i]->xx) ||
         !same_bits(ra.covariances[i]->xy, rb.covariances[i]->xy) ||
         !same_bits(ra.covariances[i]->yy, rb.covariances[i]->yy)))
      return false;
  }
  for (std::size_t i = 0; i < ra.change_per_iteration.size(); ++i)
    if (!same_bits(ra.change_per_iteration[i], rb.change_per_iteration[i]))
      return false;
  const CommStats& ca = ra.comm;
  const CommStats& cb = rb.comm;
  if (ca.rounds != cb.rounds || ca.messages_sent != cb.messages_sent ||
      ca.messages_received != cb.messages_received ||
      ca.bytes_sent != cb.bytes_sent ||
      ca.messages_retried != cb.messages_retried ||
      ca.messages_dropped != cb.messages_dropped ||
      ca.duplicates_rejected != cb.duplicates_rejected)
    return false;
  if (ra.iterations != rb.iterations || ra.converged != rb.converged ||
      ra.transport_hash != rb.transport_hash)
    return false;
  if (a.report.errors.size() != b.report.errors.size() ||
      !same_bits(a.report.coverage, b.report.coverage) ||
      !same_bits(a.report.penalized_mean, b.report.penalized_mean))
    return false;
  for (std::size_t i = 0; i < a.report.errors.size(); ++i)
    if (!same_bits(a.report.errors[i], b.report.errors[i])) return false;
  return true;
}

/// A mixed-tenant batch: four tenants round-robin over scenario seeds that
/// deliberately repeat across tenants (co-tenants solving the same world),
/// grid-heavy with particle/gauss/async requests mixed in.
std::vector<serve::ServeRequest> make_batch(std::size_t count,
                                            std::size_t nodes,
                                            std::size_t grid_side) {
  static const char* kTenants[] = {"acme", "globex", "initech", "umbrella"};
  std::vector<serve::ServeRequest> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    serve::ServeRequest req;
    req.tenant = kTenants[i % 4];
    req.id = "req-" + std::to_string(i);
    req.scenario.node_count = nodes;
    req.scenario.anchor_fraction = 0.12;
    req.scenario.radio = make_radio(0.22, RangingType::log_normal, 0.10);
    // 5 distinct worlds over 4 tenants: every world is measured by more
    // than one tenant, but no tenant sees only repeats.
    req.scenario.seed = 100 + (i % 5);
    req.algo_seed = 1 + i;
    req.grid.grid_side = grid_side;
    req.grid.pyramid_levels = 1;
    req.grid.iteration.max_iterations = 8;
    req.particle.iteration.max_iterations = 8;
    req.gauss.iteration.max_iterations = 8;
    switch (i % 8) {
      case 3: req.engine = serve::EngineKind::particle;
              req.particle.particle_count = 64;
              break;
      case 5: req.engine = serve::EngineKind::gauss; break;
      case 6: req.engine = serve::EngineKind::grid;  // async transport leg
              req.grid.transport.async = true;
              req.grid.transport.radio.loss = 0.05;
              break;
      default: req.engine = serve::EngineKind::grid; break;
    }
    batch.push_back(std::move(req));
  }
  return batch;
}

}  // namespace

int main() {
  const BenchConfig bc = BenchConfig::from_env();
  const std::size_t nodes = bc.fast ? 48 : 96;
  const std::size_t grid_side = bc.fast ? 20 : 28;
  const std::size_t batch_size = bc.fast ? 64 : 96;
  // Service pool: BNLOC_THREADS, same convention as the harness (0 = all
  // cores); threads=1 still exercises the full shard/emit machinery.
  const std::size_t serve_threads = bc.threads;

  std::printf("=== P3: bnloc-serve — multi-tenant batch service ===\n");
  std::printf("config: %zu-request batch, %zu nodes/request, grid %zux%zu, "
              "4 tenants, service threads=%zu%s\n\n",
              batch_size, nodes, grid_side, grid_side, serve_threads,
              bc.fast ? " (fast)" : "");

  obs::JsonWriter json;
  json.begin_object();
  json.kv("bench", "p3_serve");
  json.kv("nodes", static_cast<std::uint64_t>(nodes));
  json.kv("requests", static_cast<std::uint64_t>(batch_size));
  json.kv("threads", static_cast<std::uint64_t>(serve_threads));
  json.kv("fast", bc.fast);

  // --- A: throughput ------------------------------------------------------
  const auto batch = make_batch(batch_size, nodes, grid_side);
  serve::ServeConfig cfg;
  cfg.threads = serve_threads;
  serve::BatchService service(cfg);
  const auto responses = service.run_batch(batch);
  const serve::BatchStats& stats = service.last_batch();

  std::size_t failed = 0;
  for (const auto& r : responses)
    if (!r.ok) ++failed;
  std::printf("A. throughput: %.1f req/s  (%zu requests, %zu failed, "
              "%.3f s wall on %zu workers)\n",
              stats.requests_per_second(), stats.requests, failed,
              stats.wall_seconds, service.worker_count());
  std::printf("   latency: p50 %.1f ms  p90 %.1f ms  p99 %.1f ms\n\n",
              stats.latency_quantile(0.50) * 1e3,
              stats.latency_quantile(0.90) * 1e3,
              stats.latency_quantile(0.99) * 1e3);

  AsciiTable tenants_table(
      {"tenant", "requests", "failed", "latency s", "result peak B"});
  for (const serve::TenantStats& t : service.tenants())
    tenants_table.add_row({t.tenant, AsciiTable::fmt(double(t.requests), 0),
                           AsciiTable::fmt(double(t.failed), 0),
                           AsciiTable::fmt(t.total_seconds, 3),
                           AsciiTable::fmt(double(t.result_bytes_peak), 0)});
  tenants_table.print(std::cout);
  std::printf("\n");

  json.key("throughput").begin_object();
  json.kv("req_per_s", stats.requests_per_second());
  json.kv("p50_ms", stats.latency_quantile(0.50) * 1e3);
  json.kv("p99_ms", stats.latency_quantile(0.99) * 1e3);
  json.kv("failed", static_cast<std::uint64_t>(failed));
  json.key("tenants").begin_array();
  for (const serve::TenantStats& t : service.tenants()) {
    json.begin_object();
    json.kv("tenant", t.tenant);
    json.kv("requests", static_cast<std::uint64_t>(t.requests));
    json.kv("result_peak_bytes",
            static_cast<std::uint64_t>(t.result_bytes_peak));
    json.end_object();
  }
  json.end_array().end_object();

  // --- B: solo-vs-batch bit identity --------------------------------------
  bool identical = true;
  const auto identity_batch = make_batch(32, bc.fast ? 32 : 48, grid_side);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    serve::ServeConfig icfg;
    icfg.threads = threads;
    serve::BatchService batch_service(icfg);
    const auto in_batch = batch_service.run_batch(identity_batch);
    serve::BatchService solo_service(icfg);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < identity_batch.size(); ++i) {
      const serve::ServeResponse solo =
          solo_service.serve_one(identity_batch[i]);
      if (!payload_identical(solo, in_batch[i])) {
        ++mismatches;
        std::printf("   MISMATCH at threads=%zu request %zu (%s)\n", threads,
                    i, identity_batch[i].id.c_str());
      }
    }
    std::printf("B. identity at threads=%zu: %zu/%zu bit-identical "
                "solo-vs-batch%s\n",
                threads, identity_batch.size() - mismatches,
                identity_batch.size(), mismatches == 0 ? "" : "  ** FAIL **");
    if (mismatches > 0) identical = false;
  }
  json.kv("identity_ok", identical);
  json.end_object();

  const std::string path = env_string("BNLOC_BENCH_JSON", "");
  if (!path.empty()) {
    if (std::FILE* f = std::fopen(path.c_str(), "a")) {
      std::fprintf(f, "%s\n", json.str().c_str());
      std::fclose(f);
    }
  }

  if (!identical) {
    std::printf("\nFAILED: [identity gate]\n");
    return 1;
  }
  std::printf("\nOK: identity gate passed\n");
  return 0;
}
