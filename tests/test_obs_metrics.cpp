// Unit tests for the production observability tier (PR 8): log-bucketed
// histograms (bucket geometry, exact merge), hierarchical spans (nesting,
// frame restore, trace-event export), and the Prometheus text exposition
// (label escaping, family sanitization, cumulative buckets).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/prometheus.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"

namespace bnloc {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- LogHistogram bucket geometry ----------------------------------------

TEST(LogHistogram, SmallValuesGetExactBuckets) {
  // Everything below 2^(kSubBits+1) = 16 is stored exactly.
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(obs::LogHistogram::bucket_index(v), v);
    EXPECT_EQ(obs::LogHistogram::bucket_lower(static_cast<std::uint32_t>(v)),
              v);
    EXPECT_EQ(obs::LogHistogram::bucket_upper(static_cast<std::uint32_t>(v)),
              v);
  }
}

TEST(LogHistogram, IndexingIsContinuousAtTheExactBoundary) {
  // 15 is the last exact bucket; 16 opens the first log-linear one, with no
  // gap or overlap in the index sequence.
  EXPECT_EQ(obs::LogHistogram::bucket_index(15), 15u);
  EXPECT_EQ(obs::LogHistogram::bucket_index(16), 16u);
  EXPECT_EQ(obs::LogHistogram::bucket_lower(16), 16u);
  EXPECT_EQ(obs::LogHistogram::bucket_upper(15), 15u);
}

TEST(LogHistogram, BucketEdgesBracketEveryValue) {
  // lower(i) <= v <= upper(i) for the bucket v maps to, and the edges of
  // consecutive buckets tile the axis without gaps.
  const std::uint64_t probes[] = {0,  1,   7,    15,   16,   17,        31,
                                  32, 100, 1000, 4095, 4096, 123456789,
                                  std::uint64_t{1} << 40,
                                  (std::uint64_t{1} << 40) + 12345};
  for (const std::uint64_t v : probes) {
    const std::uint32_t i = obs::LogHistogram::bucket_index(v);
    EXPECT_LE(obs::LogHistogram::bucket_lower(i), v) << v;
    EXPECT_GE(obs::LogHistogram::bucket_upper(i), v) << v;
  }
  for (std::uint32_t i = 0; i < 300; ++i)
    EXPECT_EQ(obs::LogHistogram::bucket_upper(i) + 1,
              obs::LogHistogram::bucket_lower(i + 1))
        << i;
}

TEST(LogHistogram, RelativeBucketWidthIsBounded) {
  // 8 sub-buckets per octave: the bucket containing v is never wider than
  // 12.5% of v (quantile error bound).
  for (const std::uint64_t v :
       {std::uint64_t{100}, std::uint64_t{999}, std::uint64_t{1} << 20,
        std::uint64_t{987654321}}) {
    const std::uint32_t i = obs::LogHistogram::bucket_index(v);
    const double width =
        static_cast<double>(obs::LogHistogram::bucket_upper(i) -
                            obs::LogHistogram::bucket_lower(i) + 1);
    EXPECT_LE(width / static_cast<double>(v), 0.125) << v;
  }
}

TEST(LogHistogram, ObserveTracksCountSumAndQuantiles) {
  obs::LogHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.quantile(0.5), 0u);
  for (std::uint64_t v = 1; v <= 10; ++v) h.observe(v);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_EQ(h.sum(), 55u);
  // Values below 16 are exact, so the quantiles are too.
  EXPECT_EQ(h.quantile(0.5), 5u);
  EXPECT_EQ(h.quantile(0.0), 1u);  // clamped to rank 1
  EXPECT_EQ(h.quantile(1.0), 10u);
}

TEST(LogHistogram, MergeEqualsSingleAccumulation) {
  // Bucket counts are plain u64 adds: splitting a stream across sinks and
  // merging must reproduce the single-sink histogram exactly, regardless of
  // split point or merge order.
  std::vector<std::uint64_t> values;
  std::uint64_t x = 1;
  for (int i = 0; i < 200; ++i) {
    x = x * 2862933555777941757ull + 3037000493ull;  // any fixed sequence
    values.push_back(x >> 34);
  }
  obs::LogHistogram whole;
  for (const std::uint64_t v : values) whole.observe(v);

  obs::LogHistogram a, b, c, merged;
  for (std::size_t i = 0; i < values.size(); ++i)
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).observe(values[i]);
  merged.merge(c);  // arbitrary order — addition commutes
  merged.merge(a);
  merged.merge(b);

  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_EQ(merged.sum(), whole.sum());
  EXPECT_EQ(merged.buckets(), whole.buckets());
  for (const double q : {0.5, 0.9, 0.95, 0.99})
    EXPECT_EQ(merged.quantile(q), whole.quantile(q)) << q;
}

TEST(LogHistogram, ClearResets) {
  obs::LogHistogram h;
  h.observe(42);
  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

// --- Registry histograms and ambient observe ------------------------------

TEST(RegistryHistogram, ObserveMergeAndReaders) {
  obs::Registry a, b;
  a.observe("lat", 10);
  a.observe("lat", 20);
  b.observe("lat", 30);
  a.merge(b);
  EXPECT_EQ(a.histogram_count("lat"), 3u);
  EXPECT_EQ(a.histogram_sum("lat"), 60u);
  EXPECT_EQ(a.histogram_quantile("lat", 1.0),
            obs::LogHistogram::bucket_upper(
                obs::LogHistogram::bucket_index(30)));
  EXPECT_EQ(a.histogram_count("missing"), 0u);

  const auto snap = a.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].kind, obs::MetricKind::histogram);
  EXPECT_EQ(snap[0].count, 3u);
  EXPECT_EQ(snap[0].hist_sum, 60u);
  EXPECT_FALSE(snap[0].buckets.empty());
}

TEST(RegistryHistogram, AmbientObserveScaledIsFixedPoint) {
  obs::Telemetry sink;
  {
    const obs::TelemetryScope scope(&sink);
    obs::observe("raw", 7);
    obs::observe_scaled("resid", 0.5, 10.0);    // -> 5
    obs::observe_scaled("resid", -1.0, 10.0);   // negative clamps to 0
    obs::observe_scaled("resid", 0.26, 10.0);   // llround(2.6) -> 3
  }
  obs::observe("raw", 9);  // no sink installed: must not record
  EXPECT_EQ(sink.registry.histogram_count("raw"), 1u);
  EXPECT_EQ(sink.registry.histogram_sum("raw"), 7u);
  EXPECT_EQ(sink.registry.histogram_count("resid"), 3u);
  EXPECT_EQ(sink.registry.histogram_sum("resid"), 8u);
}

// --- Spans ----------------------------------------------------------------

TEST(Span, RecordsNestingUnderTheAmbientSink) {
  obs::Telemetry sink;
  sink.spans_enabled = true;
  {
    const obs::TelemetryScope scope(&sink);
    const obs::Span outer("outer");
    {
      const obs::Span inner("inner");
      { const obs::Span leaf("leaf"); }
    }
    { const obs::Span sibling("sibling"); }
  }
  const std::vector<obs::SpanRecord> rows = sink.spans.rows();
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0].name, "outer");
  EXPECT_EQ(rows[0].parent, -1);
  EXPECT_EQ(rows[1].name, "inner");
  EXPECT_EQ(rows[1].parent, 0);
  EXPECT_EQ(rows[2].name, "leaf");
  EXPECT_EQ(rows[2].parent, 1);
  EXPECT_EQ(rows[3].name, "sibling");
  EXPECT_EQ(rows[3].parent, 0);  // frame restored after inner closed
  for (const obs::SpanRecord& r : rows)
    EXPECT_LE(r.start_ns, r.start_ns + r.dur_ns);
}

TEST(Span, DisabledByDefaultAndWithoutSink) {
  { const obs::Span orphan("orphan"); }  // no sink: must be a no-op
  obs::Telemetry sink;                   // spans_enabled defaults to false
  {
    const obs::TelemetryScope scope(&sink);
    const obs::Span s("ignored");
  }
  EXPECT_TRUE(sink.spans.empty());
  // The registry timer is kept with records off.
  EXPECT_EQ(sink.registry.timer_calls("ignored"), 1u);
}

TEST(Span, NestedScopeWithDifferentSinkStartsNewRootAndRestores) {
  obs::Telemetry outer_sink, inner_sink;
  outer_sink.spans_enabled = inner_sink.spans_enabled = true;
  {
    const obs::TelemetryScope outer_scope(&outer_sink);
    const obs::Span outer("outer");
    {
      const obs::TelemetryScope inner_scope(&inner_sink);
      // Different sink: no cross-sink parenting — this span is a root in
      // inner_sink even though "outer" is still open.
      const obs::Span inner("inner");
    }
    // Back under the outer sink: parenting resumes under "outer".
    { const obs::Span child("child"); }
  }
  const auto outer_rows = outer_sink.spans.rows();
  const auto inner_rows = inner_sink.spans.rows();
  ASSERT_EQ(outer_rows.size(), 2u);
  ASSERT_EQ(inner_rows.size(), 1u);
  EXPECT_EQ(inner_rows[0].parent, -1);
  EXPECT_EQ(outer_rows[1].name, "child");
  EXPECT_EQ(outer_rows[1].parent, 0);
}

TEST(SpanStore, MergeRebasesParentsAndStampsTrack) {
  obs::SpanStore a, b;
  const std::int32_t r0 = a.begin("a.root", -1, 10);
  a.end(r0, 20);
  const std::int32_t r1 = b.begin("b.root", -1, 5);
  const std::int32_t r2 = b.begin("b.child", r1, 6);
  b.end(r2, 8);
  b.end(r1, 9);
  a.merge(b, /*track=*/3);
  const auto rows = a.rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[1].name, "b.root");
  EXPECT_EQ(rows[1].parent, -1);
  EXPECT_EQ(rows[1].track, 3u);
  EXPECT_EQ(rows[2].parent, 1);  // rebased past a's single record
  EXPECT_EQ(rows[2].track, 3u);
}

TEST(SpanExport, TraceEventJsonHasCompleteEvents) {
  obs::SpanStore store;
  const std::int32_t root = store.begin("request", -1, 1000);
  const std::int32_t child = store.begin("engine", root, 2000);
  store.end(child, 3500);
  store.end(root, 4000);

  const std::string path = ::testing::TempDir() + "/bnloc_spans.json";
  ASSERT_TRUE(obs::export_trace_events_json(path, store));
  const std::string body = slurp(path);
  std::remove(path.c_str());
  for (const char* needle :
       {"\"traceEvents\":[", "\"name\":\"request\"", "\"name\":\"engine\"",
        "\"ph\":\"X\"", "\"ts\":1", "\"dur\":1.5", "\"pid\":1",
        "\"parent\":0", "\"displayTimeUnit\":\"ms\""}) {
    EXPECT_NE(body.find(needle), std::string::npos) << needle;
  }
  EXPECT_FALSE(
      obs::export_trace_events_json("/no-such-dir-xyz/t.json", store));
}

// --- Prometheus exposition ------------------------------------------------

TEST(Prometheus, EscapesLabelValues) {
  EXPECT_EQ(obs::prometheus_escape("plain"), "plain");
  EXPECT_EQ(obs::prometheus_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::prometheus_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::prometheus_escape("a\nb"), "a\\nb");
}

TEST(Prometheus, LabeledBuildsNameWithEscapedValues) {
  EXPECT_EQ(obs::labeled("serve.latency_ns", {{"tenant", "acme"}}),
            "serve.latency_ns{tenant=\"acme\"}");
  EXPECT_EQ(obs::labeled("m", {{"a", "1"}, {"b", "x\"y"}}),
            "m{a=\"1\",b=\"x\\\"y\"}");
}

TEST(Prometheus, TextExposesEveryKindWithSanitizedFamilies) {
  obs::Registry r;
  r.count("grid.cell_visits", 12);
  r.gauge("serve.queue_depth", 3.5);
  r.time_ns("grid.rounds", 2'000'000'000);  // 2 s
  r.observe("serve.latency_ns", 100);
  r.observe("serve.latency_ns", 200);
  const std::string text = obs::prometheus_text(r);
  for (const char* needle :
       {"# TYPE grid_cell_visits_total counter\n",
        "grid_cell_visits_total 12\n",
        "# TYPE serve_queue_depth gauge\n", "serve_queue_depth 3.5\n",
        "# TYPE grid_rounds_seconds_total counter\n",
        "grid_rounds_seconds_total 2\n", "grid_rounds_calls_total 1\n",
        "# TYPE serve_latency_ns histogram\n",
        "serve_latency_ns_bucket{le=\"+Inf\"} 2\n",
        "serve_latency_ns_sum 300\n", "serve_latency_ns_count 2\n"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(Prometheus, HistogramBucketsAreCumulative) {
  obs::Registry r;
  r.observe("h", 1);
  r.observe("h", 1);
  r.observe("h", 5);
  const std::string text = obs::prometheus_text(r);
  // Exact small-value buckets: le="1" holds 2, le="5" accumulates to 3.
  EXPECT_NE(text.find("h_bucket{le=\"1\"} 2\n"), std::string::npos) << text;
  EXPECT_NE(text.find("h_bucket{le=\"5\"} 3\n"), std::string::npos) << text;
  EXPECT_NE(text.find("h_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
}

TEST(Prometheus, LabeledSeriesShareOneTypeHeader) {
  obs::Registry r;
  r.count("serve.requests", 5);
  r.count(obs::labeled("serve.requests", {{"tenant", "a"}}), 2);
  r.count(obs::labeled("serve.requests", {{"tenant", "b"}}), 3);
  const std::string text = obs::prometheus_text(r);
  std::size_t headers = 0, pos = 0;
  const std::string header = "# TYPE serve_requests_total counter";
  while ((pos = text.find(header, pos)) != std::string::npos) {
    ++headers;
    pos += header.size();
  }
  EXPECT_EQ(headers, 1u);
  EXPECT_NE(text.find("serve_requests_total 5\n"), std::string::npos);
  EXPECT_NE(text.find("serve_requests_total{tenant=\"a\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("serve_requests_total{tenant=\"b\"} 3\n"),
            std::string::npos);
}

TEST(Prometheus, ExportWritesFileAndFailsOnBadPath) {
  obs::Registry r;
  r.count("x", 1);
  const std::string path = ::testing::TempDir() + "/bnloc_metrics.prom";
  ASSERT_TRUE(obs::export_prometheus(path, r));
  EXPECT_NE(slurp(path).find("x_total 1\n"), std::string::npos);
  std::remove(path.c_str());
  EXPECT_FALSE(obs::export_prometheus("/no-such-dir-xyz/m.prom", r));
}

}  // namespace
}  // namespace bnloc
