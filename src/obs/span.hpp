// Spans: the one scoped phase timer, with optional per-instance records.
//
// With a sink installed, every Span adds its duration to the registry timer
// of its own name (Registry::time_ns) when it closes — so a registry's
// timers are exactly the fold of its spans. When the sink also sets
// Telemetry::spans_enabled, the span records its *instance* with start time,
// duration and parent — enough to reconstruct the timeline of one request
// (serve request → engine run → pyramid level → publish/update/commit) and
// open it in a trace viewer via export_trace_events_json
// (Chrome/Perfetto trace-event format).
//
// Same write-only contract as the rest of obs/: a Span never reads anything
// back, so results are bit-identical with spans on or off (the recorded
// timestamps are wall-clock and outside the determinism contract — only the
// span *structure* is reproducible). Records are opt-in (spans_enabled
// defaults to FALSE): unlike a timer slot, each instance allocates a record,
// so the Monte-Carlo harness (thousands of rounds × trials) stays lean
// unless a caller opts in.
//
// Parent tracking is per-thread: a thread-local frame remembers the
// innermost open recorded span *for the current sink*. Spans opened on a
// different thread (or under a different sink) become roots — exactly right
// for the serve tier, where each request's engine runs on one worker and
// the per-request stores are merged in request order onto distinct tracks.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace bnloc::obs {

struct SpanRecord {
  std::string name;
  std::int32_t parent = -1;   ///< index into the same store; -1 = root.
  std::uint32_t track = 0;    ///< viewer lane (serve: request index + 1).
  std::uint64_t start_ns = 0; ///< relative to the process trace epoch.
  std::uint64_t dur_ns = 0;   ///< 0 while the span is still open.
};

/// Monotonic nanoseconds since the first trace timestamp this process took.
/// Using one process-wide epoch keeps spans from different sinks alignable
/// on a single timeline.
[[nodiscard]] std::uint64_t trace_now_ns() noexcept;

/// Append-only store of finished and in-flight span records. Internally
/// locked (one request's engine may be instrumented from a worker thread
/// while the service thread merges another store).
class SpanStore {
 public:
  SpanStore() = default;
  SpanStore(const SpanStore&) = delete;
  SpanStore& operator=(const SpanStore&) = delete;

  /// Open a span; returns its index (stable: records are never reordered).
  std::int32_t begin(std::string_view name, std::int32_t parent,
                     std::uint64_t start_ns);
  /// Close span `index` at `end_ns`.
  void end(std::int32_t index, std::uint64_t end_ns);

  /// Append `other`'s records, rebasing parent indices and stamping `track`.
  /// Called in request order by the serve tier — deterministic layout.
  void merge(const SpanStore& other, std::uint32_t track);

  [[nodiscard]] std::vector<SpanRecord> rows() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const { return size() == 0; }
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<SpanRecord> rows_;
};

/// RAII phase timer over the ambient sink (obs/telemetry.hpp). Without a
/// sink installed on this thread it does nothing. With one, it times from
/// construction to close() (or destruction) into the sink's registry timer
/// `name`, and also records the instance when the sink's spans_enabled is
/// set. Recorded spans must close innermost first (asserted).
class Span {
 public:
  explicit Span(const char* name) noexcept;
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// End the span now; later calls and the destructor do nothing.
  void close() noexcept;

 private:
  /// Telemetry* (void* keeps the header cycle-free); null without a sink
  /// or once closed.
  void* sink_ = nullptr;
  const char* name_;
  std::uint64_t start_ns_ = 0;
  std::int32_t index_ = -1;  ///< record index; -1 when not recorded.
  /// Saved thread-local frame, restored on close (handles nested scopes
  /// installing a different sink mid-span).
  void* saved_frame_sink_ = nullptr;
  std::int32_t saved_frame_span_ = -1;
};

/// Export a store as Chrome trace-event JSON ("X" complete events; open it
/// at ui.perfetto.dev or chrome://tracing). Returns false when the file
/// cannot be written.
bool export_trace_events_json(const std::string& path, const SpanStore& store);

}  // namespace bnloc::obs
