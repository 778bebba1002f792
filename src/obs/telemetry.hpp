// Ambient telemetry sink: how instrumented code finds "the" registry/trace.
//
// A Telemetry bundles a metrics Registry with a ConvergenceTrace. Install
// one on the current thread with a TelemetryScope; instrumentation sites
// (obs::count, obs::gauge, obs::Span, obs::record_round) report to
// whatever sink is installed and are a thread-local load plus a branch when
// none is — the null sink costs effectively nothing and is the default
// everywhere, so the seed behavior of every engine and bench is unchanged.
// obs::Span (obs/span.hpp) is the one phase timer: every span adds its
// duration to the registry timer of its name, so timers are the fold of
// spans whether or not the sink records the span instances.
//
// Telemetry is strictly write-only from the instrumented code's point of
// view: no call reads a metric back, so enabling a sink cannot perturb
// results (the determinism contract, asserted by tests/test_obs.cpp and
// bench_f15_trace).
//
// Threading: the scope is per-thread. The Monte-Carlo harness installs a
// dedicated per-trial Telemetry on whichever worker runs the trial
// (RunTelemetry below) and folds the per-trial registries IN TRIAL ORDER
// afterwards — the thread-local accumulation that keeps folded counters
// bit-identical at any thread count. Sharing one Telemetry across threads
// is also safe (Registry and ConvergenceTrace are internally locked), but
// trace rows from concurrent runs would interleave; use RunTelemetry when
// you want per-trial traces.
#pragma once

#include <cmath>
#include <cstdint>
#include <deque>

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace bnloc::obs {

struct Telemetry {
  Registry registry;
  ConvergenceTrace trace;
  SpanStore spans;
  /// When false the sink captures counters/timers only: engines skip the
  /// per-round estimate emission that feeds the trace.
  bool trace_enabled = true;
  /// Opt-in: obs::Span also records each instance into `spans` (its
  /// registry timer is kept either way). Off by default — each record
  /// allocates, and the Monte-Carlo harness doesn't want thousands of them
  /// per trial.
  bool spans_enabled = false;
};

/// The sink installed on this thread, or nullptr.
[[nodiscard]] Telemetry* current() noexcept;

/// RAII installation of a sink on the current thread; restores the previous
/// sink (possibly nullptr) on destruction. Passing nullptr installs the
/// null sink, which is how the harness shields nested code when needed.
class TelemetryScope {
 public:
  explicit TelemetryScope(Telemetry* telemetry) noexcept;
  ~TelemetryScope();
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

 private:
  Telemetry* prev_;
};

/// Telemetry capture for one run_algorithm call (eval/experiment.hpp):
/// `trials[t]` receives trial t's counters, timers, and trace; `aggregate`
/// receives the per-trial registries folded in trial order after the join,
/// plus anything recorded outside the trial loop. Every per-trial sink
/// takes `aggregate`'s trace_enabled and spans_enabled; per-trial span
/// stores are folded into `aggregate.spans` in trial order with the trial
/// index as the track.
struct RunTelemetry {
  Telemetry aggregate;
  /// deque, not vector: Telemetry holds mutexes and is neither movable nor
  /// copyable, and deque::resize constructs elements in place.
  std::deque<Telemetry> trials;
};

// --- Instrumentation sites (no-ops without an installed sink) -------------

inline void count(std::string_view name, std::uint64_t delta = 1) {
  if (Telemetry* t = current()) t->registry.count(name, delta);
}

inline void gauge(std::string_view name, double value) {
  if (Telemetry* t = current()) t->registry.gauge(name, value);
}

/// Record one u64 observation into the named log-bucket histogram.
inline void observe(std::string_view name, std::uint64_t value) {
  if (Telemetry* t = current()) t->registry.observe(name, value);
}

/// Histogram a non-negative double by fixed-point scaling (llround — a pure
/// function, so the bucketed value is as deterministic as the input).
/// E.g. observe_scaled("grid.round.residual", residual, 1e9).
inline void observe_scaled(std::string_view name, double value,
                           double scale) {
  if (Telemetry* t = current()) {
    const double scaled = value * scale;
    t->registry.observe(
        name, scaled <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(scaled)));
  }
}

}  // namespace bnloc::obs
