// The bnloc-serve request/response surface (docs/SERVICE.md).
//
// A ServeRequest is one self-contained localization problem: which tenant
// asked, which engine to run, the scenario to build, and the seeds. A
// ServeResponse is everything the service says back — the full
// LocalizationResult plus the ground-truth score (simulated batches carry
// their truth) and the service-side latency.
//
// Determinism contract: a request's response payload (everything except
// the wall-clock fields `seconds`/`solver_seconds`) is a pure function of
// the request — bit-identical whether it runs alone or inside any batch,
// at any service thread count. See docs/SERVICE.md "Isolation and
// determinism".
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/gaussian_bncl.hpp"
#include "core/grid_bncl.hpp"
#include "core/localizer.hpp"
#include "core/particle_bncl.hpp"
#include "deploy/scenario.hpp"
#include "eval/metrics.hpp"

namespace bnloc::serve {

enum class EngineKind { grid, particle, gauss };

[[nodiscard]] const char* to_string(EngineKind kind) noexcept;
/// Parse "grid" / "particle" / "gauss"; false on anything else.
[[nodiscard]] bool engine_kind_from(std::string_view name, EngineKind& out);

struct ServeRequest {
  std::string tenant = "default";
  std::string id;  ///< caller-chosen; echoed on the response line.
  EngineKind engine = EngineKind::grid;
  /// The world to solve: built per request via build_scenario
  /// (deterministic in scenario.seed).
  ScenarioConfig scenario;
  /// Engine configuration; only the struct matching `engine` is read.
  GridBnclConfig grid;
  ParticleBnclConfig particle;
  GaussianBnclConfig gauss;
  /// Seed of the algorithm RNG (scenario.seed seeds the world). The actual
  /// stream is derived from (engine name, algo_seed), as in the
  /// Monte-Carlo harness, so engines never share streams.
  std::uint64_t algo_seed = 1;
};

struct ServeResponse {
  std::string tenant;
  std::string id;
  std::string engine;  ///< Localizer::name() — pinned (docs/API.md).
  bool ok = false;
  std::string error;  ///< set iff !ok (validation or runtime failure).
  std::size_t nodes = 0;
  std::size_t anchors = 0;
  std::size_t localized = 0;
  LocalizationResult result;
  /// Ground-truth score (ServeConfig::evaluate, on by default — simulated
  /// batches carry their truth; a deployment without truth turns it off).
  ErrorReport report;
  /// Wall time of the engine's localize() call alone (0 when the request
  /// failed before the engine ran). Wall-clock: outside the determinism
  /// contract.
  double solver_seconds = 0.0;
  /// Service-side wall latency of this request (build + solve + score).
  /// Wall-clock: outside the determinism contract.
  double seconds = 0.0;
};

/// Check a request against the invariants its scenario and the selected
/// engine's constructor assert (each config's own `validate()`), so a bad
/// request fails alone instead of aborting the service. Returns an empty
/// string when valid, else the reason, prefixed `scenario: ` or
/// `engine_config: `.
[[nodiscard]] std::string validate(const ServeRequest& request);

/// Construct the configured engine for a request (the engine config
/// matching `request.engine`, verbatim — scope/thread sanitization is the
/// service's job, service.cpp).
[[nodiscard]] std::unique_ptr<Localizer> make_localizer(
    const ServeRequest& request);

}  // namespace bnloc::serve
