// End-to-end benchmark of the bnloc library: one workload per process.
//
//   bnloc_e2e --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke]
//             [--trace-out FILE]
//
// run.py builds this binary and runs it; README.md has the workload and
// metric tables. Every timing is taken from outside the library, around
// calls into its public API (build_scenario, Localizer::localize, evaluate,
// serve::parse_serve_batch, BatchService::run_batch and serve_one); the
// traced mode additionally folds the counters and spans the library already
// records. The last line of stdout is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The exit code is 1 when an output check failed.
//
// The timed phase runs a fixed set of inputs in repeated passes for T
// seconds (at least one pass). Each input's latency is the fastest of its
// passes: on a shared machine outside load comes in bursts of seconds and
// only ever adds time, so the fastest repeat is the steadiest estimate.
// After it, an untimed reference set gives the accuracy and radio metrics.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bnloc/bnloc.hpp"
#include "obs/json.hpp"

using namespace bnloc;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Options ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 18.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bnloc_e2e: %s\nusage: bnloc_e2e --workload "
               "grid_default|grid_fine|gauss_async|serve_mixed [--seed S] "
               "[--seconds T] [--trace 0|1] [--smoke] [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      o.seed = std::strtoull(v.c_str(), &end, 10);
      // World seeds are seed*100000 + index and travel through JSON numbers
      // in the serve workload, so they must stay well inside 2^53.
      if (v.empty() || *end != '\0' || o.seed > 1000000000ULL)
        usage("--seed must be an integer in [0, 1e9]");
    } else if (arg == "--seconds") {
      o.seconds = std::atof(value().c_str());
      if (!(o.seconds > 0.0)) usage("--seconds must be positive");
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else {
      usage("unknown argument");
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

/// World `index` of seed S uses scenario seed S*100000 + index; the warm-up
/// world (index -1) takes the last seed of the block. The algorithm seed is
/// the same value.
constexpr std::uint64_t kSeedStride = 100000;
std::uint64_t world_seed(std::uint64_t seed, std::int64_t index) {
  const std::uint64_t offset =
      index < 0 ? kSeedStride - 1 : static_cast<std::uint64_t>(index);
  return seed * kSeedStride + offset;
}

/// Accuracy, radio cost and the result digest are measured on the first
/// inputs of this seed, whatever --seed is. They are exact, so measuring
/// them on one fixed set makes every change of them a change of the code,
/// which a 1 % bound can gate; the timed inputs still follow --seed.
constexpr std::uint64_t kReferenceSeed = 0;

// --- Statistics and digests -------------------------------------------------

/// Linear interpolation between order statistics.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double h = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (h - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xffULL;
      h *= 0x00000100000001b3ULL;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
};

/// FNV-1a over the bits of every estimate and covariance, the comm
/// counters, the round count and the transport hash.
std::uint64_t digest_of(const LocalizationResult& r) {
  Fnv f;
  for (const auto& e : r.estimates) {
    f.mix(std::uint64_t{e.has_value()});
    if (e) {
      f.mix(e->x);
      f.mix(e->y);
    }
  }
  for (const auto& c : r.covariances) {
    f.mix(std::uint64_t{c.has_value()});
    if (c) {
      f.mix(c->xx);
      f.mix(c->xy);
      f.mix(c->yy);
    }
  }
  const CommStats& c = r.comm;
  for (const std::size_t v :
       {c.rounds, c.messages_sent, c.messages_received, c.bytes_sent,
        c.messages_retried, c.messages_dropped, c.duplicates_rejected,
        r.iterations})
    f.mix(std::uint64_t{v});
  f.mix(std::uint64_t{r.converged});
  f.mix(r.transport_hash);
  return f.h;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB -> MB
}

// --- One solved input, as the benchmark keeps it ----------------------------

struct OpResult {
  bool ok = false;
  double latency_s = 0.0;  ///< engines: localize(); serve: submit to line.
  double end_s = 0.0;      ///< completion, as an offset into the phase.
  double evaluate_s = 0.0;
  std::uint64_t digest = 0;
  std::size_t nodes = 0;
  std::size_t unknowns = 0;
  std::size_t messages = 0;
  std::size_t bytes = 0;
  std::size_t iterations = 0;
  double penalized_mean = 0.0;
  std::vector<double> errors;
};

void record_solution(OpResult& op, const LocalizationResult& r,
                     const ErrorReport& report, std::size_t nodes,
                     std::size_t anchors) {
  op.digest = digest_of(r);
  op.nodes = nodes;
  op.unknowns = nodes - anchors;
  op.messages = r.comm.messages_sent;
  op.bytes = r.comm.bytes_sent;
  op.iterations = r.iterations;
  op.penalized_mean = report.penalized_mean;
  op.errors = report.errors;
}

/// Accuracy and radio cost over one pass of solved inputs.
struct Quality {
  double error_mean_r = 0.0;
  double error_p90_r = 0.0;
  double msgs_per_node = 0.0;
  double kb_per_node = 0.0;
  std::uint64_t digest = 0;
  std::size_t inputs = 0;
  std::size_t error_samples = 0;
};

Quality quality_of(const std::vector<OpResult>& ops) {
  double charged = 0.0;
  double unknowns = 0.0;
  double nodes = 0.0;
  double messages = 0.0;
  double bytes = 0.0;
  std::vector<double> pooled;
  Fnv digest;
  for (const OpResult& op : ops) {
    charged += op.penalized_mean * static_cast<double>(op.unknowns);
    unknowns += static_cast<double>(op.unknowns);
    nodes += static_cast<double>(op.nodes);
    messages += static_cast<double>(op.messages);
    bytes += static_cast<double>(op.bytes);
    pooled.insert(pooled.end(), op.errors.begin(), op.errors.end());
    digest.mix(op.digest);
  }
  Quality q;
  q.error_mean_r = ratio(charged, unknowns);
  q.error_p90_r = quantile(pooled, 0.9);
  q.msgs_per_node = ratio(messages, nodes);
  q.kb_per_node = ratio(bytes / 1024.0, nodes);
  q.digest = digest.h;
  q.inputs = ops.size();
  q.error_samples = pooled.size();
  return q;
}

/// Latency and throughput of a timed phase in which op i solved input
/// i % inputs. An input's latency is the fastest of its passes; the
/// throughput is completed ops over the wall time of the phase.
struct Timing {
  std::vector<double> input_ms;
  double throughput = 0.0;
  std::size_t completed = 0;
  std::size_t passes = 0;
};

Timing timing_of(const std::vector<OpResult>& ops, std::size_t inputs) {
  Timing t;
  std::vector<std::vector<double>> samples(inputs);
  double wall_s = 0.0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    wall_s = std::max(wall_s, ops[i].end_s);
    if (ops[i].ok) samples[i % inputs].push_back(ops[i].latency_s * 1e3);
  }
  for (const std::vector<double>& s : samples) {
    t.completed += s.size();
    if (!s.empty()) t.input_ms.push_back(*std::min_element(s.begin(), s.end()));
  }
  t.throughput = ratio(static_cast<double>(t.completed), wall_s);
  t.passes = ops.size() / inputs;
  return t;
}

// --- Result reporting -------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

struct Outcome {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t passes = 0;
  std::vector<std::string> problems;  ///< failed output checks.
  std::uint64_t digest = 0;

  void add(std::string name, double value, std::string unit,
           std::size_t samples) {
    metrics.push_back({std::move(name), std::isfinite(value) ? value : 0.0,
                       std::move(unit), samples});
  }
  void check(bool ok, std::string what) {
    if (!ok) problems.push_back(std::move(what));
  }
  void tally(const OpResult& op) {
    ++attempted;
    if (!op.ok) ++failed;
  }
};

int report(const Options& o, const Outcome& out) {
  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(out.digest));
  std::printf("workload %s  seed %llu  %s  simd %s  ops %zu  passes %zu\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.trace ? "traced" : "untraced", simd::active_name(),
              out.attempted, out.passes);
  for (const Metric& m : out.metrics)
    std::printf("  %-30s %16.6f %-6s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  std::printf("  %-30s %16s\n", "result_digest", digest);
  std::printf("  %-30s %16.6f ratio  n=%zu\n", "fail_frac",
              ratio(static_cast<double>(out.failed),
                    static_cast<double>(out.attempted)),
              out.attempted);
  for (const std::string& p : out.problems)
    std::printf("  CHECK FAILED: %s\n", p.c_str());

  // What the last line has no room for, kept by run.py --json.
  obs::JsonWriter detail;
  detail.begin_object();
  detail.kv("workload", o.workload);
  detail.kv("seed", o.seed);
  detail.kv("trace", o.trace);
  detail.kv("smoke", o.smoke);
  detail.kv("seconds", o.seconds);
  detail.kv("simd", simd::active_name());
  detail.kv("version", version());
  detail.kv("result_digest", digest);
  detail.kv("passes", std::uint64_t{out.passes});
  detail.key("samples").begin_object();
  for (const Metric& m : out.metrics)
    detail.kv(m.name, std::uint64_t{m.samples});
  detail.end_object();
  detail.key("problems").begin_array();
  for (const std::string& p : out.problems) detail.value(p);
  detail.end_array();
  detail.end_object();
  std::printf("E2E_DETAIL %s\n", detail.str().c_str());

  obs::JsonWriter line;
  line.begin_object();
  line.kv("correct", out.problems.empty());
  line.kv("attempted", std::uint64_t{std::max<std::size_t>(out.attempted, 1)});
  line.kv("failed", std::uint64_t{out.failed});
  line.key("metrics").begin_object();
  for (const Metric& m : out.metrics) {
    line.key(m.name).begin_object();
    line.kv("value", m.value);
    line.kv("unit", m.unit);
    line.end_object();
  }
  line.end_object();
  line.end_object();
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return out.problems.empty() ? 0 : 1;
}

/// The timed inputs give the latency and throughput, the reference set the
/// accuracy, radio cost and digest. With 20 to 64 inputs a pass, the median
/// is the highest latency percentile with ten samples beyond it. `rss_mb`
/// is read when the timed phase ends, before the checks and the reference
/// set add threads and allocations of their own.
void add_end_to_end(Outcome& out, const std::vector<double>& setup_s,
                    const Timing& t, double rss_mb, const Quality& ref) {
  out.add("setup_s", median(setup_s), "s", setup_s.size());
  out.add("latency_ms_p50", quantile(t.input_ms, 0.5), "ms",
          t.input_ms.size());
  out.add("throughput_ops_s", t.throughput, "ops/s", t.completed);
  out.add("error_mean_r", ref.error_mean_r, "R", ref.inputs);
  out.add("error_p90_r", ref.error_p90_r, "R", ref.error_samples);
  out.add("msgs_per_node", ref.msgs_per_node, "msgs", ref.inputs);
  out.add("kb_per_node", ref.kb_per_node, "kB", ref.inputs);
  out.add("peak_rss_mb", rss_mb, "MB", 1);
  out.passes = t.passes;
  out.digest = ref.digest;
}

void check_ceiling(Outcome& out, const char* set, const Quality& q,
                   double ceiling) {
  out.check(q.error_mean_r < ceiling,
            std::string(set) + " error_mean_r " +
                std::to_string(q.error_mean_r) + " is not below the ceiling " +
                std::to_string(ceiling));
}

/// Checks of every untraced run: no failed op, every repeat of an input
/// reproduces its first pass bit for bit, and the accuracy of the timed
/// inputs and of the reference set stays below the workload's ceiling.
void check_outputs(Outcome& out, const std::vector<OpResult>& ops,
                   std::size_t inputs, const Quality& timed,
                   const Quality& ref, double ceiling) {
  std::size_t drifted = 0;
  for (std::size_t i = inputs; i < ops.size(); ++i)
    if (ops[i].digest != ops[i % inputs].digest) ++drifted;
  out.check(drifted == 0, std::to_string(drifted) +
                              " repeated inputs differ from their first pass");
  out.check(out.failed == 0, "fail_frac is not 0");
  check_ceiling(out, "timed-input", timed, ceiling);
  check_ceiling(out, "reference-set", ref, ceiling);
}

/// What the traced mode measures besides the library's own counters and
/// spans: timings of public calls, taken from outside, over one pass run
/// untraced ("plain") and one pass run traced.
struct LayerTimings {
  std::size_t ops = 0;
  std::vector<double> build_ms;
  std::vector<double> evaluate_ms;
  std::vector<double> decode_ms;
  std::vector<double> service_ms;
  std::vector<double> emit_wait_ms;
  double worker_busy_frac = 0.0;
  std::vector<double> rounds;
  std::vector<double> plain_ms;
  std::vector<double> traced_ms;
};

void add_per_layer(Outcome& out, const LayerTimings& t,
                   const obs::Registry& reg, const obs::SpanStore& spans) {
  const double n = static_cast<double>(t.ops);
  const std::size_t ns = t.ops;
  std::map<std::string, double> span_ms;
  for (const obs::SpanRecord& row : spans.rows())
    span_ms[row.name] += static_cast<double>(row.dur_ns) * 1e-6;
  const auto per_op = [&](std::string_view counter) {
    return static_cast<double>(reg.counter(counter)) / n;
  };
  const auto share = [&](std::string_view part, std::string_view rest) {
    const auto a = static_cast<double>(reg.counter(part));
    return ratio(a, a + static_cast<double>(reg.counter(rest)));
  };
  const auto engines_sum = [&](std::string_view suffix) {
    double sum = 0.0;
    for (const char* engine : {"grid.", "gauss.", "particle."})
      sum += static_cast<double>(reg.counter(std::string(engine) +
                                             std::string(suffix)));
    return sum;
  };

  out.add("deploy.build_scenario_ms", median(t.build_ms), "ms",
          t.build_ms.size());
  out.add("eval.evaluate_ms", median(t.evaluate_ms), "ms",
          t.evaluate_ms.size());
  out.add("serve.decode_ms", median(t.decode_ms), "ms", t.decode_ms.size());
  out.add("serve.service_ms_p50", quantile(t.service_ms, 0.5), "ms",
          t.service_ms.size());
  out.add("serve.emit_wait_ms_p50", quantile(t.emit_wait_ms, 0.5), "ms",
          t.emit_wait_ms.size());
  out.add("serve.emit_wait_ms_p75", quantile(t.emit_wait_ms, 0.75), "ms",
          t.emit_wait_ms.size());
  out.add("serve.worker_busy_frac", t.worker_busy_frac, "ratio",
          t.service_ms.size());

  const double runs = engines_sum("runs");
  out.add("core.rounds",
          ratio(std::accumulate(t.rounds.begin(), t.rounds.end(), 0.0),
                static_cast<double>(t.rounds.size())),
          "rounds", t.rounds.size());
  out.add("core.converged_frac", ratio(engines_sum("converged"), runs),
          "ratio", ns);
  out.add("core.capped_frac", ratio(engines_sum("maxed_out"), runs), "ratio",
          ns);

  const double publish = span_ms["grid.publish"];
  const double sched = span_ms["grid.sched"];
  const double update = span_ms["grid.update"];
  const double commit = span_ms["grid.commit"];
  out.add("grid.publish_ms", publish / n, "ms", ns);
  out.add("grid.sched_ms", sched / n, "ms", ns);
  out.add("grid.update_ms", update / n, "ms", ns);
  out.add("grid.commit_ms", commit / n, "ms", ns);
  // grid.run less its phase spans: setup, level switches, estimate output.
  out.add("grid.run_self_ms",
          (span_ms["grid.run"] - publish - sched - update - commit) / n, "ms",
          ns);

  out.add("grid.cell_visits", per_op("grid.cell_visits"), "count", ns);
  out.add("grid.kernel_cells", per_op("grid.kernel_cells"), "count", ns);
  out.add("grid.kernels.built", per_op("grid.kernels.built"), "count", ns);
  out.add("grid.kernel_reuse_ratio",
          share("grid.kernels.shared", "grid.kernels.built"), "ratio", ns);
  out.add("grid.kernel_process_hit_ratio",
          share("grid.kernels.process.hit", "grid.kernels.process.miss"),
          "ratio", ns);
  out.add("grid.message_reuse_ratio",
          share("grid.messages.reused", "grid.messages.computed"), "ratio",
          ns);
  out.add("grid.pyramid.roi_cells", per_op("grid.pyramid.roi_cells"), "count",
          ns);
  out.add("sched.links_deferred", per_op("sched.links_deferred"), "count",
          ns);
  out.add("radio.broadcasts", per_op("radio.broadcasts"), "count", ns);
  out.add("radio.bytes_sent", per_op("radio.bytes_sent"), "B", ns);
  out.add("radio.async.retries", per_op("radio.async.retries"), "count", ns);
  out.add("radio.async.dropped", per_op("radio.async.dropped"), "count", ns);
  out.add("radio.async.delivery_ratio",
          share("radio.async.delivered", "radio.async.dropped"), "ratio", ns);
  out.add("gauss.factor_visits", per_op("gauss.factor_visits"), "count", ns);
  out.add("particle.weight_evals", per_op("particle.weight_evals"), "count",
          ns);
  out.add("trace.overhead_ratio",
          ratio(median(t.traced_ms), median(t.plain_ms)), "ratio",
          t.traced_ms.size());
}

void write_trace(Outcome& out, const Options& o, const obs::SpanStore& spans) {
  if (o.trace_out.empty()) return;
  out.check(obs::export_trace_events_json(o.trace_out, spans),
            "could not write " + o.trace_out);
}

// --- Closed loop ------------------------------------------------------------

/// Runs ops 0, 1, 2, ... on `clients` threads. A client takes the next op
/// only when its previous one is done (a closed loop). Ops below `min_ops`
/// always run; later ones are handed out only until `seconds` have passed.
/// `run` must not throw. Returns the ops in order.
std::vector<OpResult> closed_loop(
    std::size_t clients, double seconds, std::size_t min_ops,
    const std::function<OpResult(std::size_t)>& run) {
  std::mutex claim;
  std::size_t next = 0;
  std::vector<std::vector<std::pair<std::size_t, OpResult>>> done(clients);
  const auto start = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (;;) {
          std::size_t i = 0;
          {
            // Claims are serialized and the clock is monotonic, so once one
            // claim is refused every later one is too: ops 0..n-1 all run.
            const std::lock_guard<std::mutex> lock(claim);
            if (next >= min_ops && seconds_since(start) >= seconds) break;
            i = next++;
          }
          OpResult op = run(i);
          op.end_s = seconds_since(start);
          done[c].emplace_back(i, std::move(op));
        }
      });
    }
  }
  std::vector<OpResult> ops;
  for (auto& list : done) {
    for (auto& [i, op] : list) {
      if (ops.size() <= i) ops.resize(i + 1);
      ops[i] = std::move(op);
    }
  }
  return ops;
}

constexpr std::size_t kClients = 2;
constexpr std::size_t kReplay = 4;  ///< inputs re-solved serially.
/// Set-ups per untimed run; setup_s is their median, which a burst of
/// outside load during one or two of them does not move.
constexpr std::size_t kSetups = 5;

// --- Engine workloads -------------------------------------------------------

struct EngineWorkload {
  std::size_t nodes = 0;
  std::size_t inputs = 0;       ///< distinct worlds in one pass.
  std::size_t reference = 0;    ///< worlds in the reference set.
  double error_ceiling = 0.0;  ///< error_mean_r check: 2x the baseline.
  std::function<std::unique_ptr<Localizer>()> make;
};

/// The repository's default experiment scenario: line-drop deployment, 8 %
/// random anchors, R = 0.12, 10 % log-normal ranging noise, exact priors.
ScenarioConfig line_drop(std::size_t nodes, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.node_count = nodes;
  cfg.anchor_fraction = 0.08;
  cfg.deployment.kind = DeploymentKind::line_drop;
  cfg.anchor_placement = AnchorPlacement::random;
  cfg.radio = make_radio(0.12, RangingType::log_normal, 0.10);
  cfg.prior_quality = PriorQuality::exact;
  cfg.seed = seed;
  return cfg;
}

OpResult solve(const Localizer& engine, const Scenario& world,
               obs::Telemetry* telemetry) {
  OpResult op;
  try {
    Rng rng = make_algo_rng(engine.name(), world.seed);
    const auto start = Clock::now();
    LocalizationResult result;
    {
      std::optional<obs::TelemetryScope> scope;
      if (telemetry) scope.emplace(telemetry);
      result = engine.localize(world, rng);
    }
    op.latency_s = seconds_since(start);
    const auto scored = Clock::now();
    const ErrorReport report = evaluate(world, result);
    op.evaluate_s = seconds_since(scored);
    record_solution(op, result, report, world.node_count(),
                    world.anchor_count());
    op.ok = true;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "op on world %llu failed: %s\n",
                 static_cast<unsigned long long>(world.seed), ex.what());
  }
  return op;
}

Outcome run_engine(const Options& o, const EngineWorkload& w) {
  const std::size_t reps = o.smoke || o.trace ? 1 : kSetups;
  const std::size_t n = o.smoke ? 2 : w.inputs;

  Outcome out;
  std::vector<Scenario> worlds;
  std::unique_ptr<Localizer> engine;
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const auto start = Clock::now();
    worlds.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const auto built = Clock::now();
      worlds.push_back(build_scenario(line_drop(
          w.nodes, world_seed(o.seed, static_cast<std::int64_t>(i)))));
      build_ms.push_back(seconds_since(built) * 1e3);
    }
    engine = w.make();
    const Scenario warm =
        build_scenario(line_drop(w.nodes, world_seed(o.seed, -1)));
    out.check(solve(*engine, warm, nullptr).ok, "warm-up op failed");
    setup_s.push_back(seconds_since(start));
  }
  const auto input = [&](std::size_t i, obs::Telemetry* telemetry) {
    return solve(*engine, worlds[i % n], telemetry);
  };

  if (o.trace) {
    const std::vector<OpResult> plain = closed_loop(
        kClients, 0.0, n, [&](std::size_t i) { return input(i, nullptr); });
    std::deque<obs::Telemetry> sinks(n);
    for (obs::Telemetry& sink : sinks) {
      sink.trace_enabled = false;
      sink.spans_enabled = true;
    }
    const std::vector<OpResult> traced = closed_loop(
        kClients, 0.0, n, [&](std::size_t i) { return input(i, &sinks[i]); });

    obs::Registry folded;
    obs::SpanStore spans;
    LayerTimings t;
    t.ops = n;
    t.build_ms = build_ms;
    for (std::size_t i = 0; i < n; ++i) {
      folded.merge(sinks[i].registry);
      spans.merge(sinks[i].spans, static_cast<std::uint32_t>(i + 1));
      const OpResult& a = plain[i];
      const OpResult& b = traced[i];
      out.tally(a);
      out.tally(b);
      out.check(a.ok && b.ok && a.digest == b.digest,
                "input " + std::to_string(i) +
                    ": traced result differs from the untraced one");
      t.evaluate_ms.push_back(a.evaluate_s * 1e3);
      t.rounds.push_back(static_cast<double>(a.iterations));
      t.plain_ms.push_back(a.latency_s * 1e3);
      t.traced_ms.push_back(b.latency_s * 1e3);
    }
    add_per_layer(out, t, folded, spans);
    out.digest = quality_of(plain).digest;
    write_trace(out, o, spans);
    return out;
  }

  const std::vector<OpResult> ops = closed_loop(
      kClients, o.seconds, n, [&](std::size_t i) { return input(i, nullptr); });
  const double rss_mb = peak_rss_mb();
  for (const OpResult& op : ops) out.tally(op);
  const std::vector<OpResult> first(
      ops.begin(), ops.begin() + static_cast<std::ptrdiff_t>(n));
  for (std::size_t i = 0; i < std::min(kReplay, n); ++i) {
    const OpResult again = input(i, nullptr);
    out.check(again.ok && again.digest == first[i].digest,
              "input " + std::to_string(i) +
                  ": serial replay is not bit-identical");
  }

  std::vector<Scenario> reference;
  for (std::size_t i = 0; i < (o.smoke ? 2 : w.reference); ++i)
    reference.push_back(build_scenario(line_drop(
        w.nodes, world_seed(kReferenceSeed, static_cast<std::int64_t>(i)))));
  const std::vector<OpResult> ref_ops =
      closed_loop(kClients, 0.0, reference.size(), [&](std::size_t i) {
        return solve(*engine, reference[i], nullptr);
      });
  for (const OpResult& op : ref_ops) out.tally(op);

  const Quality ref = quality_of(ref_ops);
  check_outputs(out, ops, n, quality_of(first), ref, w.error_ceiling);
  add_end_to_end(out, setup_s, timing_of(ops, n), rss_mb, ref);
  return out;
}

EngineWorkload grid_default() {
  return {200, 20, 12, 0.22, [] { return std::make_unique<GridBncl>(); }};
}

EngineWorkload grid_fine() {
  return {200, 20, 12, 0.15, [] {
            GridBnclConfig cfg;
            cfg.grid_side = 96;
            cfg.pyramid_levels = 2;
            return std::make_unique<GridBncl>(cfg);
          }};
}

EngineWorkload gauss_async() {
  return {600, 40, 24, 0.08, [] {
            GaussianBnclConfig cfg;
            cfg.transport.async = true;
            cfg.transport.radio.loss = 0.1;
            return std::make_unique<GaussianBncl>(cfg);
          }};
}

// --- Serve workload ---------------------------------------------------------

constexpr const char* kTenants[] = {"acme", "globex", "initech", "umbrella"};
constexpr std::size_t kWorldsPerBatch = 5;
constexpr double kServeErrorCeiling = 0.52;  // 2x the baseline

/// Batch `batch` of seed `seed` of the serve mix as JSON text: four tenants
/// round-robin over five worlds shared across tenants, grid-heavy, with one
/// particle, one Gauss and one async-grid request in every eight. Batch -1
/// is the warm-up batch; all its requests use world -1.
std::string encode_batch(std::uint64_t seed_base, std::int64_t batch,
                         std::size_t count) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("requests").begin_array();
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t world =
        batch < 0 ? -1
                  : batch * static_cast<std::int64_t>(kWorldsPerBatch) +
                        static_cast<std::int64_t>(i % kWorldsPerBatch);
    const std::uint64_t seed = world_seed(seed_base, world);
    const std::size_t kind = i % 8;
    w.begin_object();
    w.kv("tenant", kTenants[i % 4]);
    w.kv("id", "b" + std::to_string(batch) + "-r" + std::to_string(i));
    w.kv("engine", kind == 3 ? "particle" : kind == 5 ? "gauss" : "grid");
    w.kv("algo_seed", seed);
    w.key("scenario").begin_object();
    w.kv("nodes", std::uint64_t{96});
    w.kv("anchor_fraction", 0.12);
    w.kv("radio_range", 0.22);
    w.kv("noise", 0.10);
    w.kv("ranging", "log_normal");
    w.kv("seed", seed);
    w.end_object();
    w.key("engine_config").begin_object();
    w.kv("max_iterations", std::uint64_t{8});
    if (kind == 3) {
      w.kv("particle_count", std::uint64_t{64});
    } else if (kind != 5) {
      w.kv("grid_side", std::uint64_t{28});
      if (kind == 6) {
        w.kv("async", true);
        w.kv("loss", 0.05);
      }
    }
    w.end_object();
    w.end_object();
  }
  w.end_array().end_object();
  return w.str();
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Bit-exact equality of everything in a response except its wall-clock
/// fields: the payload the service's determinism contract covers.
bool payload_identical(const serve::ServeResponse& a,
                       const serve::ServeResponse& b) {
  if (a.tenant != b.tenant || a.id != b.id || a.engine != b.engine ||
      a.ok != b.ok || a.error != b.error || a.nodes != b.nodes ||
      a.anchors != b.anchors || a.localized != b.localized)
    return false;
  const LocalizationResult& ra = a.result;
  const LocalizationResult& rb = b.result;
  if (digest_of(ra) != digest_of(rb) ||
      ra.change_per_iteration.size() != rb.change_per_iteration.size())
    return false;
  for (std::size_t i = 0; i < ra.change_per_iteration.size(); ++i)
    if (!same_bits(ra.change_per_iteration[i], rb.change_per_iteration[i]))
      return false;
  if (a.report.errors.size() != b.report.errors.size() ||
      !same_bits(a.report.coverage, b.report.coverage) ||
      !same_bits(a.report.penalized_mean, b.report.penalized_mean))
    return false;
  for (std::size_t i = 0; i < a.report.errors.size(); ++i)
    if (!same_bits(a.report.errors[i], b.report.errors[i])) return false;
  return true;
}

/// One batch through the service, timed from submit (before decode) to the
/// arrival of each request's line at the sink; offsets are taken from
/// `origin`.
struct BatchRun {
  bool decoded = false;
  std::vector<serve::ServeRequest> requests;  ///< kept on request.
  std::vector<serve::ServeResponse> responses;
  std::vector<OpResult> ops;
  double decode_s = 0.0;
  double wall_s = 0.0;
};

BatchRun serve_batch(serve::BatchService& service, const std::string& text,
                     bool keep_requests, Clock::time_point origin) {
  BatchRun run;
  const auto submit = Clock::now();
  const double submitted = seconds_since(origin);
  std::vector<serve::ServeRequest> requests;
  std::string error;
  run.decoded = serve::parse_serve_batch(text, requests, &error);
  run.decode_s = seconds_since(submit);
  if (!run.decoded) {
    std::fprintf(stderr, "batch did not decode: %s\n", error.c_str());
    return run;
  }
  if (keep_requests) run.requests = requests;
  // The sink runs under the service's emit lock, once per request in
  // request order, so the vector needs no lock of its own.
  std::vector<double> arrival;
  arrival.reserve(requests.size());
  run.responses = service.run_batch(
      std::move(requests), [&](const serve::ServeResponse&, std::string_view) {
        arrival.push_back(seconds_since(submit));
      });
  run.wall_s = seconds_since(submit);
  for (std::size_t i = 0; i < run.responses.size(); ++i) {
    const serve::ServeResponse& r = run.responses[i];
    OpResult op;
    op.ok = r.ok;
    op.latency_s = arrival[i];
    op.end_s = submitted + arrival[i];
    if (r.ok) record_solution(op, r.result, r.report, r.nodes, r.anchors);
    run.ops.push_back(std::move(op));
  }
  return run;
}

Outcome run_serve(const Options& o) {
  const std::size_t reps = o.smoke || o.trace ? 1 : kSetups;
  const std::size_t batch_size = o.smoke ? 8 : 32;
  const std::size_t pass_batches = o.smoke ? 1 : 2;
  const std::size_t n = pass_batches * batch_size;
  const std::size_t replay = 8;

  serve::ServeConfig cfg;
  cfg.threads = kClients;
  Outcome out;
  std::vector<std::string> batches;
  std::unique_ptr<serve::BatchService> service;
  std::vector<double> setup_s;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    service.reset();
    const auto start = Clock::now();
    KernelCacheRegistry::instance().clear();  // every set-up starts cold
    batches.clear();
    for (std::size_t b = 0; b < pass_batches; ++b)
      batches.push_back(
          encode_batch(o.seed, static_cast<std::int64_t>(b), batch_size));
    service = std::make_unique<serve::BatchService>(cfg);
    const BatchRun warm =
        serve_batch(*service, encode_batch(o.seed, -1, 8), false, start);
    out.check(warm.decoded && std::all_of(warm.ops.begin(), warm.ops.end(),
                                          [](const OpResult& op) {
                                            return op.ok;
                                          }),
              "warm-up batch failed");
    setup_s.push_back(seconds_since(start));
  }

  if (o.trace) {
    // One pass untraced, then one traced on a service recording spans;
    // both start from a cold kernel registry.
    serve::ServeConfig traced_cfg = cfg;
    traced_cfg.collect_spans = true;
    serve::BatchService traced_service(traced_cfg);
    LayerTimings t;
    double busy_s = 0.0;
    double wall_s = 0.0;
    std::vector<OpResult> plain_ops;
    for (const bool traced : {false, true}) {
      KernelCacheRegistry::instance().clear();
      for (std::size_t b = 0; b < pass_batches; ++b) {
        const BatchRun run = serve_batch(traced ? traced_service : *service,
                                         batches[b], !traced, Clock::now());
        out.check(run.decoded, "batch did not decode");
        for (std::size_t i = 0; i < run.ops.size(); ++i) {
          const OpResult& op = run.ops[i];
          out.tally(op);
          if (traced) {
            const std::size_t k = b * batch_size + i;
            t.traced_ms.push_back(op.latency_s * 1e3);
            out.check(k < plain_ops.size() && op.digest == plain_ops[k].digest,
                      "request " + std::to_string(k) +
                          ": traced response differs from the untraced one");
            continue;
          }
          const serve::ServeResponse& r = run.responses[i];
          plain_ops.push_back(op);
          t.plain_ms.push_back(op.latency_s * 1e3);
          busy_s += r.seconds;
          t.service_ms.push_back(r.seconds * 1e3);
          t.emit_wait_ms.push_back(
              (op.latency_s - run.decode_s - r.seconds) * 1e3);
          t.rounds.push_back(static_cast<double>(r.result.iterations));
          if (!r.ok) continue;
          // Building and scoring run inside serve_one; time the same public
          // calls here, from outside.
          const auto built = Clock::now();
          const Scenario world = build_scenario(run.requests[i].scenario);
          t.build_ms.push_back(seconds_since(built) * 1e3);
          const auto scored = Clock::now();
          (void)evaluate(world, r.result);
          t.evaluate_ms.push_back(seconds_since(scored) * 1e3);
        }
        if (!traced) {
          t.decode_ms.push_back(run.decode_s * 1e3);
          wall_s += run.wall_s;
        }
      }
    }
    t.ops = n;
    t.worker_busy_frac = ratio(
        busy_s, static_cast<double>(service->worker_count()) * wall_s);
    add_per_layer(out, t, traced_service.metrics(), traced_service.spans());
    out.digest = quality_of(plain_ops).digest;
    write_trace(out, o, traced_service.spans());
    return out;
  }

  std::vector<OpResult> ops;
  std::vector<serve::ServeRequest> first_requests;
  std::vector<serve::ServeResponse> first_responses;
  const auto start = Clock::now();
  for (std::size_t b = 0; b < pass_batches || seconds_since(start) < o.seconds;
       ++b) {
    BatchRun run =
        serve_batch(*service, batches[b % pass_batches], b == 0, start);
    if (!run.decoded) {
      out.check(false, "batch " + std::to_string(b) + " did not decode");
      run.ops.resize(batch_size);  // every request of it failed
    }
    for (OpResult& op : run.ops) {
      out.tally(op);
      ops.push_back(std::move(op));
    }
    if (b == 0) {
      first_requests = std::move(run.requests);
      first_responses = std::move(run.responses);
    }
  }
  const double rss_mb = peak_rss_mb();
  for (std::size_t i = 0; i < std::min(replay, first_requests.size()); ++i) {
    const serve::ServeResponse solo = service->serve_one(first_requests[i]);
    out.check(payload_identical(solo, first_responses[i]),
              "request " + std::to_string(i) +
                  ": serve_one is not bit-identical to the batch");
  }

  BatchRun ref_run = serve_batch(
      *service, encode_batch(kReferenceSeed, 0, batch_size), false,
      Clock::now());
  out.check(ref_run.decoded, "reference batch did not decode");
  if (!ref_run.decoded) ref_run.ops.resize(batch_size);
  for (const OpResult& op : ref_run.ops) out.tally(op);

  const Quality ref = quality_of(ref_run.ops);
  check_outputs(out, ops, n,
                quality_of(std::vector<OpResult>(
                    ops.begin(), ops.begin() + static_cast<std::ptrdiff_t>(n))),
                ref, kServeErrorCeiling);
  add_end_to_end(out, setup_s, timing_of(ops, n), rss_mb, ref);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  Outcome out;
  if (o.workload == "grid_default")
    out = run_engine(o, grid_default());
  else if (o.workload == "grid_fine")
    out = run_engine(o, grid_fine());
  else if (o.workload == "gauss_async")
    out = run_engine(o, gauss_async());
  else if (o.workload == "serve_mixed")
    out = run_serve(o);
  else
    usage("unknown workload");
  return report(o, out);
}
