#include "obs/span.hpp"

#include <chrono>

#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "support/assert.hpp"

namespace bnloc::obs {

namespace {

/// Innermost open span on this thread, tagged with the sink it belongs to so
/// a span under a freshly-installed sink starts a new root instead of
/// parenting across sinks.
struct SpanFrame {
  Telemetry* sink = nullptr;
  std::int32_t span = -1;
};
thread_local SpanFrame t_span_frame;

}  // namespace

std::uint64_t trace_now_ns() noexcept {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

std::int32_t SpanStore::begin(std::string_view name, std::int32_t parent,
                              std::uint64_t start_ns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  SpanRecord r;
  r.name.assign(name);
  r.parent = parent;
  r.start_ns = start_ns;
  rows_.push_back(std::move(r));
  return static_cast<std::int32_t>(rows_.size() - 1);
}

void SpanStore::end(std::int32_t index, std::uint64_t end_ns) {
  const std::lock_guard<std::mutex> lock(mutex_);
  BNLOC_ASSERT(index >= 0 && static_cast<std::size_t>(index) < rows_.size(),
               "span index out of range");
  SpanRecord& r = rows_[static_cast<std::size_t>(index)];
  r.dur_ns = end_ns > r.start_ns ? end_ns - r.start_ns : 0;
}

void SpanStore::merge(const SpanStore& other, std::uint32_t track) {
  if (&other == this) return;
  const std::scoped_lock lock(mutex_, other.mutex_);
  const std::int32_t base = static_cast<std::int32_t>(rows_.size());
  rows_.reserve(rows_.size() + other.rows_.size());
  for (const SpanRecord& src : other.rows_) {
    SpanRecord r = src;
    if (r.parent >= 0) r.parent += base;
    r.track = track;
    rows_.push_back(std::move(r));
  }
}

std::vector<SpanRecord> SpanStore::rows() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return rows_;
}

std::size_t SpanStore::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return rows_.size();
}

void SpanStore::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  rows_.clear();
}

Span::Span(const char* name) noexcept : name_(name) {
  Telemetry* t = current();
  if (!t) return;
  sink_ = t;
  start_ns_ = trace_now_ns();
  if (!t->spans_enabled) return;
  const std::int32_t parent =
      t_span_frame.sink == t ? t_span_frame.span : -1;
  index_ = t->spans.begin(name, parent, start_ns_);
  saved_frame_sink_ = t_span_frame.sink;
  saved_frame_span_ = t_span_frame.span;
  t_span_frame.sink = t;
  t_span_frame.span = index_;
}

void Span::close() noexcept {
  if (!sink_) return;
  auto* t = static_cast<Telemetry*>(sink_);
  sink_ = nullptr;
  const std::uint64_t end_ns = trace_now_ns();
  if (index_ >= 0) {
    BNLOC_ASSERT(t_span_frame.sink == t && t_span_frame.span == index_,
                 "recorded spans must close innermost first");
    t->spans.end(index_, end_ns);
    t_span_frame.sink = static_cast<Telemetry*>(saved_frame_sink_);
    t_span_frame.span = saved_frame_span_;
  }
  // The same clamp SpanStore::end applies, so the timer is exactly the sum
  // of the recorded durations.
  t->registry.time_ns(name_, end_ns > start_ns_ ? end_ns - start_ns_ : 0);
}

bool export_trace_events_json(const std::string& path,
                              const SpanStore& store) {
  const std::vector<SpanRecord> rows = store.rows();
  JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SpanRecord& r = rows[i];
    w.begin_object();
    w.kv("name", r.name);
    w.kv("ph", "X");
    // Trace-event timestamps are microseconds; fractional is accepted.
    w.kv("ts", static_cast<double>(r.start_ns) / 1000.0);
    w.kv("dur", static_cast<double>(r.dur_ns) / 1000.0);
    w.kv("pid", std::uint64_t{1});
    w.kv("tid", static_cast<std::uint64_t>(r.track) + 1);
    w.key("args").begin_object();
    w.kv("id", static_cast<std::uint64_t>(i));
    w.kv("parent", static_cast<double>(r.parent));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.end_object();

  return write_text_file(path, w.str());
}

}  // namespace bnloc::obs
