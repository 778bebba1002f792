// bnloc-serve (serve/): JSON schema round-trips, the solo-vs-batch
// determinism contract, in-order streaming, per-request kernels, and
// per-tenant accounting. docs/SERVICE.md is the contract these tests
// pin down.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/gaussian_bncl.hpp"
#include "core/grid_bncl.hpp"
#include "core/particle_bncl.hpp"
#include "deploy/scenario.hpp"
#include "eval/experiment.hpp"
#include "obs/json.hpp"
#include "obs/prometheus.hpp"
#include "obs/telemetry.hpp"
#include "serve/json_io.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"

namespace bnloc::serve {
namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Everything the determinism contract covers (all payload, no wall-clock).
void expect_payload_identical(const ServeResponse& a, const ServeResponse& b) {
  ASSERT_EQ(a.id, b.id);
  EXPECT_EQ(a.tenant, b.tenant);
  EXPECT_EQ(a.engine, b.engine);
  ASSERT_EQ(a.ok, b.ok) << a.id << ": " << a.error << " vs " << b.error;
  EXPECT_EQ(a.error, b.error);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.anchors, b.anchors);
  EXPECT_EQ(a.localized, b.localized);
  const LocalizationResult& ra = a.result;
  const LocalizationResult& rb = b.result;
  ASSERT_EQ(ra.estimates.size(), rb.estimates.size());
  for (std::size_t i = 0; i < ra.estimates.size(); ++i) {
    ASSERT_EQ(ra.estimates[i].has_value(), rb.estimates[i].has_value());
    if (ra.estimates[i]) {
      EXPECT_TRUE(same_bits(ra.estimates[i]->x, rb.estimates[i]->x));
      EXPECT_TRUE(same_bits(ra.estimates[i]->y, rb.estimates[i]->y));
    }
  }
  ASSERT_EQ(ra.covariances.size(), rb.covariances.size());
  for (std::size_t i = 0; i < ra.covariances.size(); ++i) {
    ASSERT_EQ(ra.covariances[i].has_value(), rb.covariances[i].has_value());
    if (ra.covariances[i]) {
      EXPECT_TRUE(same_bits(ra.covariances[i]->xx, rb.covariances[i]->xx));
      EXPECT_TRUE(same_bits(ra.covariances[i]->xy, rb.covariances[i]->xy));
      EXPECT_TRUE(same_bits(ra.covariances[i]->yy, rb.covariances[i]->yy));
    }
  }
  EXPECT_EQ(ra.iterations, rb.iterations);
  EXPECT_EQ(ra.converged, rb.converged);
  EXPECT_EQ(ra.transport_hash, rb.transport_hash);
  EXPECT_EQ(ra.comm.messages_sent, rb.comm.messages_sent);
  EXPECT_EQ(ra.comm.bytes_sent, rb.comm.bytes_sent);
  EXPECT_EQ(ra.comm.messages_retried, rb.comm.messages_retried);
  ASSERT_EQ(a.report.errors.size(), b.report.errors.size());
  for (std::size_t i = 0; i < a.report.errors.size(); ++i)
    EXPECT_TRUE(same_bits(a.report.errors[i], b.report.errors[i]));
  EXPECT_TRUE(same_bits(a.report.coverage, b.report.coverage));
  EXPECT_TRUE(same_bits(a.report.penalized_mean, b.report.penalized_mean));
}

/// `prefix` followed by `i` ("r7"). Appends rather than `"r" +
/// std::to_string(i)`, whose inlined insert GCC 12 flags with a false
/// -Wrestrict.
std::string numbered(const char* prefix, std::size_t i) {
  std::string out(prefix);
  out += std::to_string(i);
  return out;
}

/// Tiny request: fast enough to serve dozens per test.
ServeRequest tiny_request(const std::string& tenant, const std::string& id,
                          std::uint64_t seed,
                          EngineKind engine = EngineKind::grid) {
  ServeRequest req;
  req.tenant = tenant;
  req.id = id;
  req.engine = engine;
  req.scenario.node_count = 24;
  req.scenario.anchor_fraction = 0.25;
  req.scenario.radio = make_radio(0.35, RangingType::log_normal, 0.1);
  req.scenario.seed = seed;
  req.algo_seed = seed * 7 + 1;
  req.grid.grid_side = 12;
  req.grid.pyramid_levels = 1;
  req.grid.iteration.max_iterations = 4;
  req.particle.particle_count = 32;
  req.particle.iteration.max_iterations = 4;
  req.gauss.iteration.max_iterations = 8;
  return req;
}

// --- JSON reader ------------------------------------------------------------

TEST(ServeJson, ParsesScalarsContainersAndEscapes) {
  JsonValue v;
  ASSERT_TRUE(parse_json(R"({"a": [1, -2.5e1, true, null], "b\n": "x\u00e9"})",
                         v, nullptr));
  ASSERT_TRUE(v.is(JsonValue::Kind::object));
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 4u);
  EXPECT_DOUBLE_EQ(a->items[0].num, 1.0);
  EXPECT_DOUBLE_EQ(a->items[1].num, -25.0);
  EXPECT_TRUE(a->items[2].flag);
  EXPECT_TRUE(a->items[3].is(JsonValue::Kind::null));
  const JsonValue* b = v.find("b\n");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->str, "x\xC3\xA9");  // U+00E9 as UTF-8
}

TEST(ServeJson, RejectsMalformedInputWithPosition) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(parse_json("{\"a\": }", v, &error));
  EXPECT_NE(error.find("offset"), std::string::npos);
  EXPECT_FALSE(parse_json("[1, 2] trailing", v, &error));
  EXPECT_NE(error.find("trailing"), std::string::npos);
  EXPECT_FALSE(parse_json("\"\\u12\"", v, &error));
  EXPECT_FALSE(parse_json("01abc", v, &error));
}

TEST(ServeJson, DuplicateKeysKeepLastOccurrence) {
  JsonValue v;
  ASSERT_TRUE(parse_json(R"({"k": 1, "k": 2})", v, nullptr));
  ASSERT_NE(v.find("k"), nullptr);
  EXPECT_DOUBLE_EQ(v.find("k")->num, 2.0);
}

// Serve echoes caller strings (tenant, id, error text) through obs's JSON
// writer, so the reader must give back every byte the writer escapes.
TEST(ServeJson, ReadsBackWhatTheObsWriterEscapes) {
  std::string raw;
  for (int c = 0; c < 0x80; ++c) raw.push_back(static_cast<char>(c));
  raw += "\xC3\xA9";  // U+00E9 as UTF-8 passes through unescaped
  obs::JsonWriter w;
  w.begin_object().kv(raw, raw).end_object();
  JsonValue v;
  std::string error;
  ASSERT_TRUE(parse_json(w.str(), v, &error)) << error;
  ASSERT_EQ(v.members.size(), 1u);
  EXPECT_EQ(v.members[0].first, raw);
  EXPECT_EQ(v.members[0].second.str, raw);
}

// The nesting cap counts enclosing containers of either kind, and only
// those: depth passes down a branch, never across siblings.
TEST(ServeJson, ObjectsCountTowardTheNestingCap) {
  const auto nested = [](std::size_t depth) {
    std::string text;
    for (std::size_t i = 0; i < depth; ++i) text += "{\"k\":";
    text += "0";
    return text + std::string(depth, '}');
  };
  JsonValue v;
  std::string error;
  EXPECT_TRUE(parse_json(nested(64), v, &error)) << error;
  EXPECT_FALSE(parse_json(nested(65), v, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
}

TEST(ServeJson, SiblingContainersDoNotAddUpTowardTheNestingCap) {
  // 100 siblings, each 63 deep, inside one top-level array: depth 64.
  const std::string branch = std::string(63, '[') + std::string(63, ']');
  std::string text = "[" + branch;
  for (int i = 1; i < 100; ++i) text += "," + branch;
  text += "]";
  JsonValue v;
  std::string error;
  ASSERT_TRUE(parse_json(text, v, &error)) << error;
  EXPECT_EQ(v.items.size(), 100u);
}

// --- Request decoding -------------------------------------------------------

TEST(ServeEngineKind, NamesRoundTripAndUnknownNamesFail) {
  for (const EngineKind kind :
       {EngineKind::grid, EngineKind::particle, EngineKind::gauss}) {
    EngineKind parsed = kind == EngineKind::grid ? EngineKind::gauss
                                                 : EngineKind::grid;
    ASSERT_TRUE(engine_kind_from(to_string(kind), parsed)) << to_string(kind);
    EXPECT_EQ(parsed, kind);
  }
  for (const char* bad : {"", "Grid", "grid ", "dvhop", "gaussian"}) {
    SCOPED_TRACE(bad);
    EngineKind out = EngineKind::particle;
    EXPECT_FALSE(engine_kind_from(bad, out));
    EXPECT_EQ(out, EngineKind::particle);  // left as it was
  }
}

TEST(ServeMakeLocalizer, BuildsTheRequestedEngineWithItsConfig) {
  const ServeRequest grid = tiny_request("t", "g", 1, EngineKind::grid);
  const auto g = make_localizer(grid);
  const auto* as_grid = dynamic_cast<const GridBncl*>(g.get());
  ASSERT_NE(as_grid, nullptr);
  EXPECT_EQ(as_grid->config().grid_side, 12u);

  const ServeRequest particle =
      tiny_request("t", "p", 1, EngineKind::particle);
  const auto p = make_localizer(particle);
  const auto* as_particle = dynamic_cast<const ParticleBncl*>(p.get());
  ASSERT_NE(as_particle, nullptr);
  EXPECT_EQ(as_particle->config().particle_count, 32u);

  const ServeRequest gauss = tiny_request("t", "n", 1, EngineKind::gauss);
  const auto n = make_localizer(gauss);
  const auto* as_gauss = dynamic_cast<const GaussianBncl*>(n.get());
  ASSERT_NE(as_gauss, nullptr);
  EXPECT_EQ(as_gauss->config().iteration.max_iterations, 8u);
}

TEST(ServeRequestDecode, FullRequestRoundTrip) {
  const char* text = R"({
    "tenant": "acme", "id": "r1", "engine": "particle", "algo_seed": 9,
    "scenario": {"nodes": 40, "anchor_fraction": 0.2, "seed": 3,
                 "deployment": "clusters", "anchor_placement": "perimeter",
                 "radio_range": 0.3, "noise": 0.05, "ranging": "gaussian",
                 "prior": "widened"},
    "engine_config": {"max_iterations": 6, "convergence_tol": 0.005,
                      "particle_count": 50, "robust": true, "async": true,
                      "loss": 0.1}
  })";
  JsonValue v;
  ASSERT_TRUE(parse_json(text, v, nullptr));
  ServeRequest req;
  std::string error;
  ASSERT_TRUE(parse_serve_request(v, req, &error)) << error;
  EXPECT_EQ(req.tenant, "acme");
  EXPECT_EQ(req.engine, EngineKind::particle);
  EXPECT_EQ(req.algo_seed, 9u);
  EXPECT_EQ(req.scenario.node_count, 40u);
  EXPECT_EQ(req.scenario.deployment.kind, DeploymentKind::clusters);
  EXPECT_EQ(req.scenario.anchor_placement, AnchorPlacement::perimeter);
  EXPECT_EQ(req.scenario.radio.ranging.type, RangingType::gaussian);
  EXPECT_DOUBLE_EQ(req.scenario.radio.range, 0.3);
  EXPECT_EQ(req.scenario.prior_quality, PriorQuality::widened);
  EXPECT_EQ(req.particle.particle_count, 50u);
  EXPECT_EQ(req.particle.iteration.max_iterations, 6u);
  // Shared knobs land on all three engine configs.
  EXPECT_EQ(req.grid.iteration.max_iterations, 6u);
  EXPECT_TRUE(req.grid.robustness.robust_likelihood);
  EXPECT_TRUE(req.gauss.transport.async);
  EXPECT_DOUBLE_EQ(req.particle.transport.radio.loss, 0.1);
}

TEST(ServeRequestDecode, UnknownFieldsAreErrors) {
  JsonValue v;
  ServeRequest req;
  std::string error;
  ASSERT_TRUE(parse_json(R"({"scenaro": {}})", v, nullptr));
  EXPECT_FALSE(parse_serve_request(v, req, &error));
  EXPECT_NE(error.find("scenaro"), std::string::npos);
  ASSERT_TRUE(parse_json(R"({"scenario": {"node_count": 5}})", v, nullptr));
  EXPECT_FALSE(parse_serve_request(v, req, &error));
  EXPECT_NE(error.find("node_count"), std::string::npos);
}

// Counts are range-checked before the double -> std::size_t cast, which is
// undefined behaviour for values outside std::size_t (1e999 parses as inf).
TEST(ServeRequestDecode, CountsBeyondSizeTAreErrors) {
  const char* cases[] = {R"({"engine_config": {"grid_side": 1e20}})",
                         R"({"scenario": {"nodes": 1e999}})"};
  for (const char* text : cases) {
    SCOPED_TRACE(text);
    JsonValue v;
    ASSERT_TRUE(parse_json(text, v, nullptr));
    ServeRequest req;
    std::string error;
    EXPECT_FALSE(parse_serve_request(v, req, &error));
    EXPECT_NE(error.find("must be a non-negative integer"), std::string::npos)
        << error;
  }
}

// The reader recurses once per container, so unbounded nesting would let a
// short batch overflow the stack; nesting past 64 is a parse error.
TEST(ServeRequestDecode, NestingPastTheCapIsAnError) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  JsonValue v;
  std::string error;
  EXPECT_TRUE(parse_json(nested(64), v, &error)) << error;
  for (const std::size_t depth : {std::size_t{65}, std::size_t{100000}}) {
    SCOPED_TRACE(depth);
    EXPECT_FALSE(parse_json(nested(depth), v, &error));
    EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  }
  std::vector<ServeRequest> reqs;
  EXPECT_FALSE(parse_serve_batch("{\"requests\": " + nested(100000) + "}",
                                 reqs, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
}

TEST(ServeRequestDecode, EngineThreadsKnobIsRejected) {
  JsonValue v;
  ServeRequest req;
  std::string error;
  ASSERT_TRUE(parse_json(R"({"engine_config": {"threads": 4}})", v, nullptr));
  EXPECT_FALSE(parse_serve_request(v, req, &error));
  EXPECT_NE(error.find("service owns parallelism"), std::string::npos);
}

TEST(ServeRequestDecode, BatchAcceptsBothTopLevelForms) {
  std::vector<ServeRequest> reqs;
  std::string error;
  ASSERT_TRUE(parse_serve_batch(R"([{"id": "a"}, {}])", reqs, &error)) << error;
  ASSERT_EQ(reqs.size(), 2u);
  EXPECT_EQ(reqs[0].id, "a");
  EXPECT_EQ(reqs[1].id, "req-1");  // missing ids default to req-<index>

  ASSERT_TRUE(parse_serve_batch(R"({"requests": [{"tenant": "t"}]})", reqs,
                                &error));
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].tenant, "t");

  EXPECT_FALSE(parse_serve_batch(R"({"jobs": []})", reqs, &error));
  EXPECT_FALSE(parse_serve_batch(R"([{"engine": "dvhop"}])", reqs, &error));
  EXPECT_NE(error.find("request 0"), std::string::npos);
}

// --- Response encoding ------------------------------------------------------

TEST(ServeResponseJson, EmitsSchemaFieldsAndParsesBack) {
  BatchService service(ServeConfig{.threads = 1});
  const ServeResponse response = service.serve_one(tiny_request("t", "r", 5));
  ASSERT_TRUE(response.ok) << response.error;
  const std::string line = serve_response_json(response);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one line per response

  JsonValue v;
  ASSERT_TRUE(parse_json(line, v, nullptr));
  for (const char* key :
       {"type", "tenant", "id", "engine", "ok", "nodes", "anchors",
        "localized", "coverage", "mean_error", "median_error", "q90_error",
        "rmse_error", "penalized_mean", "iterations", "converged",
        "msgs_per_node", "bytes_per_node", "transport_hash", "solver_seconds",
        "serve_seconds"})
    EXPECT_NE(v.find(key), nullptr) << key;
  EXPECT_EQ(v.find("type")->str, "result");
  EXPECT_EQ(v.find("transport_hash")->str.size(), 16u);  // 64-bit hex
  EXPECT_EQ(v.find("engine")->str, "bncl-grid");
}

TEST(ServeResponseJson, FailedRequestCarriesErrorAndOmitsResults) {
  BatchService service(ServeConfig{.threads = 1});
  ServeRequest bad = tiny_request("t", "bad", 1);
  bad.scenario.node_count = 1;  // validate(): nodes must be >= 2
  const ServeResponse response = service.serve_one(bad);
  EXPECT_FALSE(response.ok);
  const std::string line = serve_response_json(response);
  JsonValue v;
  ASSERT_TRUE(parse_json(line, v, nullptr));
  ASSERT_NE(v.find("error"), nullptr);
  EXPECT_EQ(v.find("mean_error"), nullptr);
  EXPECT_FALSE(v.find("ok")->flag);
}

// --- The determinism contract ----------------------------------------------

TEST(BatchService, SoloVsBatchBitIdenticalAcrossThreadCounts) {
  // 32 mixed-tenant requests over repeated worlds, all three engines plus
  // an async-transport grid leg — the contract of docs/SERVICE.md.
  std::vector<ServeRequest> batch;
  const char* tenants[] = {"a", "b", "c"};
  for (std::size_t i = 0; i < 32; ++i) {
    ServeRequest req = tiny_request(tenants[i % 3], numbered("r", i),
                                    100 + (i % 4));
    if (i % 8 == 3) req.engine = EngineKind::particle;
    if (i % 8 == 5) req.engine = EngineKind::gauss;
    if (i % 8 == 6) {
      req.grid.transport.async = true;
      req.grid.transport.radio.loss = 0.05;
    }
    batch.push_back(std::move(req));
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    BatchService batch_service(ServeConfig{.threads = threads});
    const auto in_batch = batch_service.run_batch(batch);
    ASSERT_EQ(in_batch.size(), batch.size());
    BatchService solo_service(ServeConfig{.threads = 1});
    for (std::size_t i = 0; i < batch.size(); ++i)
      expect_payload_identical(solo_service.serve_one(batch[i]), in_batch[i]);
  }
}

// --- Streaming --------------------------------------------------------------

TEST(BatchService, StreamsResultsInRequestOrder) {
  std::vector<ServeRequest> batch;
  for (std::size_t i = 0; i < 16; ++i)
    batch.push_back(tiny_request(numbered("t", i % 2),
                                 numbered("r", i), 50 + i));
  BatchService service(ServeConfig{.threads = 4});
  std::vector<std::string> streamed_ids;
  std::vector<std::string> lines;
  const auto responses = service.run_batch(
      batch, [&](const ServeResponse& response, std::string_view line) {
        streamed_ids.push_back(response.id);
        lines.emplace_back(line);
      });
  ASSERT_EQ(streamed_ids.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(streamed_ids[i], batch[i].id);  // stream order == request order
    EXPECT_EQ(lines[i], serve_response_json(responses[i]));
  }
}

TEST(BatchService, InvalidRequestsEmitFailureLinesWithoutStoppingTheBatch) {
  std::vector<ServeRequest> batch;
  batch.push_back(tiny_request("t", "good-0", 1));
  ServeRequest bad = tiny_request("t", "bad", 2);
  bad.scenario.radio.range = -1.0;
  batch.push_back(std::move(bad));
  batch.push_back(tiny_request("t", "good-1", 3));

  BatchService service(ServeConfig{.threads = 2});
  std::size_t streamed = 0;
  const auto responses =
      service.run_batch(batch, [&](const ServeResponse&, std::string_view) {
        ++streamed;
      });
  EXPECT_EQ(streamed, 3u);
  EXPECT_TRUE(responses[0].ok);
  EXPECT_FALSE(responses[1].ok);
  EXPECT_NE(responses[1].error.find("radio_range"), std::string::npos);
  EXPECT_TRUE(responses[2].ok);
  EXPECT_EQ(service.last_batch().failed, 1u);
}

// Single-request batches that used to trip an engine or radio assertion and
// abort the whole service: each must stream one ok=false line that names
// the offending knob. A row sets its fields through the request JSON where
// the schema has them, then on the decoded ServeRequest (`mutate`); there is
// one row per invariant a constructor asserts.
TEST(BatchService, EngineInvariantViolationsFailTheRequestNotTheProcess) {
  struct Case {
    const char* request;  ///< JSON members after "id"; may be empty.
    void (*mutate)(ServeRequest&);
    const char* field;
  };
  const Case cases[] = {
      // Scenario: build_scenario, deploy, FaultInjector.
      {R"("scenario": {"nodes": 1})", nullptr, "nodes"},
      {R"("scenario": {"anchor_fraction": 1.5})", nullptr, "anchor_fraction"},
      {R"("scenario": {"radio_range": 1e999})", nullptr, "radio_range"},
      {R"("engine": "gauss", "scenario": {"noise": 1e999})", nullptr, "noise"},
      {"", [](ServeRequest& r) { r.scenario.deployment.field = {}; },
       "deployment.field"},
      {R"("scenario": {"deployment": "clusters"})",
       [](ServeRequest& r) { r.scenario.deployment.cluster_count = 0; },
       "deployment.cluster_count"},
      {"", [](ServeRequest& r) { r.scenario.faults.outlier_fraction = 1.5; },
       "faults.outlier_fraction"},
      {"",
       [](ServeRequest& r) {
         r.scenario.faults.outlier_fraction = 0.2;
         r.scenario.faults.outlier_tail_scale = 0.0;
       },
       "faults.outlier_tail_scale"},
      {"",
       [](ServeRequest& r) {
         r.scenario.faults.crash_fraction = 0.2;
         r.scenario.faults.crash_round_min = 9;
         r.scenario.faults.crash_round_max = 3;
       },
       "faults.crash_round_min"},
      {"",
       [](ServeRequest& r) {
         r.scenario.faults.crash_fraction = 0.2;
         r.scenario.faults.reboot_fraction = 0.5;
         r.scenario.faults.reboot_delay_min = 0;
       },
       "faults.reboot_delay_min"},
      {"",
       [](ServeRequest& r) {
         r.scenario.faults.crash_fraction = 0.2;
         r.scenario.faults.reboot_fraction = 0.5;
         r.scenario.faults.reboot_delay_min = 8;
         r.scenario.faults.reboot_delay_max = 4;
       },
       "reboot_delay_max"},
      // Grid engine, with its robustness and schedule blocks.
      {R"("engine_config": {"grid_side": 6})", nullptr, "grid_side"},
      {R"("engine_config": {"grid_side": 65536})", nullptr, "grid_side"},
      {R"("engine_config": {"pyramid_levels": 0})", nullptr, "pyramid_levels"},
      {R"("engine_config": {"update_quorum": 2.0})", nullptr, "update_quorum"},
      {"", [](ServeRequest& r) { r.grid.damping = 1.5; }, "damping"},
      {"",
       [](ServeRequest& r) {
         r.grid.sched.policy = SchedulePolicy::residual;
         r.grid.sched.link_budget_frac = 0.0;
       },
       "sched.link_budget_frac"},
      {"",
       [](ServeRequest& r) {
         r.grid.sched.policy = SchedulePolicy::residual;
         r.grid.sched.starvation_rounds = 0;
       },
       "sched.starvation_rounds"},
      // Transport: the one loss knob on both radios, then the async radio.
      {R"("engine_config": {"loss": 1.0})", nullptr, "loss"},
      {R"("engine_config": {"async": true, "loss": 1.0})", nullptr, "loss"},
      {R"("engine_config": {"async": true, "latency": -1})", nullptr,
       "latency"},
      {R"("engine_config": {"async": true, "latency": 1e999})", nullptr,
       "radio.latency"},
      {R"("engine_config": {"async": true, "latency": 1e300})", nullptr,
       "radio.latency"},
      {R"("engine_config": {"async": true})",
       [](ServeRequest& r) { r.grid.transport.radio.latency_jitter = -1.0; },
       "radio.latency_jitter"},
      {R"("engine_config": {"async": true})",
       [](ServeRequest& r) { r.grid.transport.radio.duty_cycle = 0.0; },
       "radio.duty_cycle"},
      {R"("engine_config": {"async": true})",
       [](ServeRequest& r) { r.grid.transport.radio.ack_loss = 1.0; },
       "radio.ack_loss"},
      {R"("engine_config": {"async": true})",
       [](ServeRequest& r) { r.grid.transport.radio.clock_skew = 1.0; },
       "radio.clock_skew"},
      {R"("engine_config": {"async": true})",
       [](ServeRequest& r) { r.grid.transport.radio.backoff_base = 0.0; },
       "radio.backoff_base"},
      {R"("engine_config": {"async": true})",
       [](ServeRequest& r) { r.grid.transport.radio.backoff_factor = 0.5; },
       "radio.backoff_factor"},
      {R"("engine_config": {"async": true})",
       [](ServeRequest& r) { r.grid.transport.radio.backoff_cap = 0.1; },
       "radio.backoff_cap"},
      {R"("engine_config": {"async": true})",
       [](ServeRequest& r) {
         r.grid.transport.radio.backoff_cap =
             std::numeric_limits<double>::infinity();
       },
       "radio.backoff_cap"},
      {R"("engine_config": {"async": true})",
       [](ServeRequest& r) {
         r.grid.transport.radio.flap_rate = 0.1;
         r.grid.transport.radio.flap_downtime = 0.0;
       },
       "radio.flap_downtime"},
      // Particle and Gaussian engines.
      {R"("engine": "particle", "engine_config": {"particle_count": 4})",
       nullptr, "particle_count"},
      {R"("engine": "gauss")",
       [](ServeRequest& r) { r.gauss.damping = -0.5; }, "damping"},
  };
  BatchService service(ServeConfig{.threads = 1});
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.request) + " / " + c.field);
    const std::string text = std::string(R"({"id": "r")") +
                             (*c.request ? ", " : "") + c.request + "}";
    JsonValue v;
    ASSERT_TRUE(parse_json(text, v, nullptr));
    ServeRequest req;
    std::string error;
    ASSERT_TRUE(parse_serve_request(v, req, &error)) << error;
    if (c.mutate) c.mutate(req);
    std::vector<std::string> lines;
    (void)service.run_batch({req},
                            [&](const ServeResponse&, std::string_view line) {
                              lines.emplace_back(line);
                            });
    ASSERT_EQ(lines.size(), 1u);
    JsonValue out;
    ASSERT_TRUE(parse_json(lines[0], out, nullptr));
    EXPECT_FALSE(out.find("ok")->flag);
    ASSERT_NE(out.find("error"), nullptr);
    EXPECT_NE(out.find("error")->str.find(c.field), std::string::npos)
        << out.find("error")->str;
  }
}

// --- Per-request kernels -----------------------------------------------------

TEST(BatchService, EachRequestBuildsItsOwnKernels) {
  // Two tenants send the same grid request. Each run owns its kernel
  // cache, so the folded build count is twice a solo engine run's and no
  // request reads kernels another one built.
  const ServeRequest req = tiny_request("a", "same-world", 77);
  ServeRequest twin = req;
  twin.tenant = "b";

  std::uint64_t solo_built = 0;
  {
    const Scenario scenario = build_scenario(req.scenario);
    const GridBncl engine(req.grid);
    Rng rng = make_algo_rng(engine.name(), req.algo_seed);
    obs::Telemetry sink;
    {
      const obs::TelemetryScope scope(&sink);
      (void)engine.localize(scenario, rng);
    }
    solo_built = sink.registry.counter("grid.kernels.built");
  }
  ASSERT_GT(solo_built, 0u);

  BatchService service(ServeConfig{.threads = 1});
  const auto responses = service.run_batch({req, twin});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(service.metrics().counter("grid.kernels.built"), 2 * solo_built);
  // Built and shared are the only kernel counters; none is process-wide.
  for (const obs::MetricEntry& entry : service.metrics().snapshot()) {
    if (entry.name.rfind("grid.kernels.", 0) != 0) continue;
    EXPECT_TRUE(entry.name == "grid.kernels.built" ||
                entry.name == "grid.kernels.shared")
        << entry.name;
  }

  BatchService solo_service(ServeConfig{.threads = 1});
  expect_payload_identical(solo_service.serve_one(req), responses[0]);
  expect_payload_identical(solo_service.serve_one(twin), responses[1]);
}

TEST(BatchService, RepeatedBatchesRebuildTheirKernels) {
  // Nothing outlives the request that built it: a second batch of the same
  // request on the same service builds every kernel again, so the folded
  // counters double, and it repeats the first payload bit for bit.
  const ServeRequest req = tiny_request("t", "again", 13);
  BatchService service(ServeConfig{.threads = 1});
  const auto first = service.run_batch({req});
  const std::uint64_t built = service.metrics().counter("grid.kernels.built");
  const std::uint64_t shared =
      service.metrics().counter("grid.kernels.shared");
  ASSERT_GT(built, 0u);
  const auto second = service.run_batch({req});
  ASSERT_TRUE(first[0].ok && second[0].ok);
  EXPECT_EQ(service.metrics().counter("grid.kernels.built"), 2 * built);
  EXPECT_EQ(service.metrics().counter("grid.kernels.shared"), 2 * shared);
  expect_payload_identical(first[0], second[0]);
}

TEST(BatchService, FoldedKernelCountersDoNotDependOnThreadCount) {
  // Each request counts only its own kernels, so the folded counters are a
  // sum over requests, whichever worker ran which request and in whatever
  // order they finished.
  std::vector<ServeRequest> batch;
  for (std::size_t i = 0; i < 8; ++i)
    batch.push_back(tiny_request(i % 2 ? "a" : "b", numbered("k", i),
                                 40 + (i % 3)));
  std::uint64_t built[2] = {0, 0};
  std::uint64_t shared[2] = {0, 0};
  const std::size_t thread_counts[2] = {1, 4};
  for (std::size_t k = 0; k < 2; ++k) {
    BatchService service(ServeConfig{.threads = thread_counts[k]});
    for (const ServeResponse& response : service.run_batch(batch))
      ASSERT_TRUE(response.ok) << response.error;
    built[k] = service.metrics().counter("grid.kernels.built");
    shared[k] = service.metrics().counter("grid.kernels.shared");
  }
  EXPECT_GT(built[0], 0u);
  EXPECT_EQ(built[0], built[1]);
  EXPECT_EQ(shared[0], shared[1]);
}

// --- Tenant accounting ------------------------------------------------------

TEST(BatchService, TenantStatsAccumulateAcrossBatches) {
  BatchService service(ServeConfig{.threads = 2});
  (void)service.run_batch(
      {tiny_request("x", "r0", 1), tiny_request("y", "r1", 2)});
  (void)service.run_batch(
      {tiny_request("x", "r2", 3), tiny_request("x", "r3", 4)});
  const auto tenants = service.tenants();
  ASSERT_EQ(tenants.size(), 2u);
  EXPECT_EQ(tenants[0].tenant, "x");  // sorted by tenant id
  EXPECT_EQ(tenants[0].requests, 3u);
  EXPECT_EQ(tenants[1].tenant, "y");
  EXPECT_EQ(tenants[1].requests, 1u);
  EXPECT_GT(tenants[0].result_bytes_peak, 0u);
}

TEST(BatchService, ResultBytesPeakCountsEachResponseLine) {
  // A request that fails validation holds no result vectors, so its
  // footprint is exactly its response line; the tenant's figure is the
  // largest per-batch sum of those lines.
  const auto failing = [](const std::string& id) {
    ServeRequest bad = tiny_request("t", id, 1);
    bad.scenario.node_count = 1;  // validate(): nodes must be >= 2
    return bad;
  };
  BatchService service(ServeConfig{.threads = 2});
  std::size_t batch_bytes = 0;
  const BatchService::ResultSink add_line =
      [&](const ServeResponse& response, std::string_view line) {
        EXPECT_FALSE(response.ok);
        batch_bytes += line.size();
      };

  (void)service.run_batch({failing("one")}, add_line);
  const std::size_t single = batch_bytes;
  EXPECT_EQ(service.tenants().at(0).result_bytes_peak, single);

  batch_bytes = 0;
  (void)service.run_batch({failing("two-a"), failing("two-b")}, add_line);
  const std::size_t pair = batch_bytes;
  ASSERT_GT(pair, single);
  EXPECT_EQ(service.tenants().at(0).result_bytes_peak, pair);

  batch_bytes = 0;
  (void)service.run_batch({failing("three")}, add_line);
  EXPECT_LT(batch_bytes, pair);
  EXPECT_EQ(service.tenants().at(0).result_bytes_peak, pair);  // a peak
  EXPECT_EQ(service.tenants().at(0).failed, 4u);
}

TEST(BatchService, SinkLinesStayValidUntilTheNextBatch) {
  // The sink receives views of the service's own copy of each line; they
  // outlive the sink call and the run_batch return.
  std::vector<ServeRequest> batch;
  for (std::size_t i = 0; i < 6; ++i)
    batch.push_back(tiny_request(numbered("t", i % 3),
                                 numbered("r", i), 60 + i));
  BatchService service(ServeConfig{.threads = 3});
  std::vector<std::string_view> views;
  const auto responses = service.run_batch(
      batch, [&](const ServeResponse&, std::string_view line) {
        views.push_back(line);
      });
  ASSERT_EQ(views.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(views[i], serve_response_json(responses[i])) << i;
}

TEST(BatchService, TenantPercentilesReadTheRegistry) {
  std::vector<ServeRequest> batch;
  for (std::size_t i = 0; i < 8; ++i)
    batch.push_back(tiny_request(i % 4 == 0 ? "rare" : "busy",
                                 numbered("r", i), 20 + i));
  BatchService service(ServeConfig{.threads = 2});
  (void)service.run_batch(batch);
  (void)service.run_batch({tiny_request("rare", "late", 40)});

  const auto tenants = service.tenants();
  ASSERT_EQ(tenants.size(), 2u);
  for (const TenantStats& stats : tenants) {
    SCOPED_TRACE(stats.tenant);
    const std::string name =
        obs::labeled("serve.latency_ns", {{"tenant", stats.tenant}});
    EXPECT_EQ(service.metrics().histogram_count(name), stats.requests);
    const auto seconds = [&](double q) {
      return static_cast<double>(
                 service.metrics().histogram_quantile(name, q)) *
             1e-9;
    };
    EXPECT_EQ(stats.latency_p50, seconds(0.50));
    EXPECT_EQ(stats.latency_p95, seconds(0.95));
    EXPECT_EQ(stats.latency_p99, seconds(0.99));
    EXPECT_GT(stats.latency_p50, 0.0);
  }
  EXPECT_EQ(tenants[0].tenant, "busy");
  EXPECT_EQ(tenants[0].requests, 6u);
  EXPECT_EQ(tenants[1].requests, 3u);
}

TEST(BatchService, SolverSecondsTimeTheEngineCallAlone) {
  BatchService service(ServeConfig{.threads = 1});
  const ServeResponse ok = service.serve_one(tiny_request("t", "ok", 9));
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_GT(ok.solver_seconds, 0.0);
  EXPECT_LE(ok.solver_seconds, ok.seconds);  // build + solve + score
  JsonValue v;
  ASSERT_TRUE(parse_json(serve_response_json(ok), v, nullptr));
  ASSERT_NE(v.find("solver_seconds"), nullptr);
  EXPECT_EQ(v.find("solver_seconds")->num, ok.solver_seconds);

  ServeRequest bad = tiny_request("t", "bad", 9);
  bad.scenario.node_count = 1;  // rejected before the engine runs
  const ServeResponse failed = service.serve_one(bad);
  ASSERT_FALSE(failed.ok);
  EXPECT_EQ(failed.solver_seconds, 0.0);
}

TEST(BatchService, TenantLatencyPercentilesWithoutPayloadChange) {
  // The latency histogram rides outside the determinism contract (it holds
  // wall-clock), but its *presence* — and span collection — must not change
  // a single payload bit.
  std::vector<ServeRequest> batch;
  for (int i = 0; i < 6; ++i)
    batch.push_back(tiny_request("t", numbered("r", i),
                                 static_cast<std::uint64_t>(i + 1)));

  BatchService plain(ServeConfig{.threads = 2});
  ServeConfig instrumented_cfg{.threads = 2};
  instrumented_cfg.collect_spans = true;
  BatchService instrumented(instrumented_cfg);
  const auto a = plain.run_batch(batch);
  const auto b = instrumented.run_batch(batch);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    expect_payload_identical(a[i], b[i]);

  for (const BatchService* service : {&plain, &instrumented}) {
    const auto tenants = service->tenants();
    ASSERT_EQ(tenants.size(), 1u);
    EXPECT_GT(tenants[0].latency_p50, 0.0);
    EXPECT_LE(tenants[0].latency_p50, tenants[0].latency_p95);
    EXPECT_LE(tenants[0].latency_p95, tenants[0].latency_p99);
    // Request-latency observations land in the shared registry too, both
    // bare and per-tenant labeled.
    EXPECT_EQ(service->metrics().histogram_count("serve.latency_ns"), 6u);
    EXPECT_EQ(service->metrics().histogram_count(
                  obs::labeled("serve.latency_ns", {{"tenant", "t"}})),
              6u);
  }

  // Spans: opt-in, one serve.request root per request with the engine run
  // nested under it on the request's own track.
  EXPECT_TRUE(plain.spans().empty());
  const std::vector<obs::SpanRecord> spans = instrumented.spans().rows();
  ASSERT_FALSE(spans.empty());
  std::size_t roots = 0;
  for (const obs::SpanRecord& s : spans)
    if (s.parent < 0) {
      EXPECT_EQ(s.name, "serve.request");
      EXPECT_GT(s.track, 0u);
      ++roots;
    }
  EXPECT_EQ(roots, batch.size());
}

// bnloc_serve's stderr summary and bench_p3_serve read these.
TEST(BatchStats, LatencyQuantileIsNearestRankAndZeroWhenEmpty) {
  BatchStats stats;
  EXPECT_EQ(stats.latency_quantile(0.5), 0.0);
  EXPECT_EQ(stats.requests_per_second(), 0.0);
  stats.latencies = {0.5, 0.1, 0.4, 0.2, 0.3};
  EXPECT_EQ(stats.latency_quantile(0.0), 0.1);
  EXPECT_EQ(stats.latency_quantile(0.5), 0.3);
  EXPECT_EQ(stats.latency_quantile(0.6), 0.3);  // rank round(2.4) = 2
  EXPECT_EQ(stats.latency_quantile(0.9), 0.5);  // rank round(3.6) = 4
  EXPECT_EQ(stats.latency_quantile(1.0), 0.5);
  EXPECT_EQ(stats.latency_quantile(-1.0), 0.1);  // q clamps to [0, 1]
  EXPECT_EQ(stats.latency_quantile(2.0), 0.5);
  EXPECT_EQ(stats.latencies.front(), 0.5);  // request order kept
  stats.requests = 5;
  stats.wall_seconds = 2.0;
  EXPECT_EQ(stats.requests_per_second(), 2.5);
}

}  // namespace
}  // namespace bnloc::serve
