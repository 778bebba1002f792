// Metrics registry: named counters, gauges, and phase timers.
//
// The registry is the passive half of the telemetry layer (obs/): code under
// instrumentation reports what happened, and nothing in here ever feeds back
// into an algorithm — a run with a registry attached is bit-identical to one
// without (see docs/OBSERVABILITY.md, "Determinism contract").
//
// Three metric kinds:
//  * counter — monotone event count (u64). Integer addition commutes, so the
//    folded value is independent of which thread reported which increment.
//  * gauge   — a scalar snapshot (last write wins). Used for per-run facts
//    set exactly once (thread count, node count), not for racing writers.
//  * timer   — accumulated wall time of a named phase plus a call count.
//    Durations are stored as integer nanoseconds so folding is exact and
//    order-independent; the *values* are wall-clock and therefore outside
//    the determinism contract (only their presence is reproducible).
//  * histogram — a log-bucketed distribution of u64 observations
//    (obs/histogram.hpp). Buckets are integers with fixed edges, so merging
//    is element-wise addition and folds exactly like counters. Whether the
//    *observed values* are deterministic depends on the site: scaled
//    residuals are, request latencies are wall-clock.
//
// Accumulation model: the Monte-Carlo harness hands every trial its own
// Telemetry (and thus its own Registry), so during a run each registry is
// touched by exactly one thread; at the end the per-trial registries are
// folded into the aggregate IN TRIAL ORDER (obs/telemetry.hpp). The mutex
// below additionally makes a single registry safe to share across threads
// (e.g. one ambient sink over parallel trials) — counter and timer folds
// stay deterministic because integer sums commute.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/histogram.hpp"

namespace bnloc::obs {

enum class MetricKind { counter, gauge, timer, histogram };

/// One metric in a registry snapshot.
struct MetricEntry {
  std::string name;
  MetricKind kind = MetricKind::counter;
  /// counter value / number of gauge writes / timer call count / histogram
  /// observation count.
  std::uint64_t count = 0;
  /// gauge value (last write) / timer total seconds; 0 for counters.
  double value = 0.0;
  /// Histograms only: exact sum of observations and bucket occupancy
  /// (obs::LogHistogram geometry); empty for the other kinds.
  std::uint64_t hist_sum = 0;
  std::vector<std::uint64_t> buckets;
};

[[nodiscard]] const char* to_string(MetricKind kind) noexcept;

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  void count(std::string_view name, std::uint64_t delta = 1);
  void gauge(std::string_view name, double value);
  void time_ns(std::string_view name, std::uint64_t ns);
  /// Record one u64 observation into the named log-bucket histogram.
  void observe(std::string_view name, std::uint64_t value);

  /// Fold `other` into this registry: counters and timers add, gauges take
  /// `other`'s value when it ever wrote one. Deterministic given call order
  /// (the harness merges per-trial registries in trial order).
  void merge(const Registry& other);

  /// All metrics, sorted by name (stable, diffable output).
  [[nodiscard]] std::vector<MetricEntry> snapshot() const;

  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  [[nodiscard]] double gauge_value(std::string_view name) const;
  [[nodiscard]] double timer_seconds(std::string_view name) const;
  [[nodiscard]] std::uint64_t timer_calls(std::string_view name) const;
  [[nodiscard]] std::uint64_t histogram_count(std::string_view name) const;
  [[nodiscard]] std::uint64_t histogram_sum(std::string_view name) const;
  /// Bucket-upper-edge quantile of the named histogram; 0 when absent/empty.
  [[nodiscard]] std::uint64_t histogram_quantile(std::string_view name,
                                                 double q) const;
  [[nodiscard]] bool empty() const;
  void clear();

 private:
  struct Slot {
    MetricKind kind = MetricKind::counter;
    std::uint64_t count = 0;
    std::uint64_t ticks_ns = 0;  ///< timers: exact integer accumulation.
    double value = 0.0;          ///< gauges only.
    /// Histograms only (pointer keeps Slot small for the common kinds).
    std::unique_ptr<LogHistogram> hist;
  };

  /// Find-or-create; caller must hold mutex_.
  Slot& slot(std::string_view name, MetricKind kind);
  [[nodiscard]] const Slot* find(std::string_view name) const;

  /// Transparent: lookups hash the caller's view, building no key string.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const noexcept {
      return std::hash<std::string_view>{}(name);
    }
  };

  mutable std::mutex mutex_;
  std::vector<std::string> names_;  ///< slot id -> name, insertion order.
  std::vector<Slot> slots_;
  std::unordered_map<std::string, std::size_t, NameHash, std::equal_to<>>
      index_;
};

}  // namespace bnloc::obs
