// Public interface every localization algorithm in bnloc implements.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "deploy/scenario.hpp"
#include "geom/cov2.hpp"
#include "geom/vec2.hpp"
#include "net/comm_stats.hpp"
#include "support/rng.hpp"

namespace bnloc {

struct LocalizationResult {
  /// Per-node position estimate; nullopt when the algorithm could not
  /// localize that node (e.g. no anchor in range for Centroid). Anchors are
  /// filled with their known positions.
  std::vector<std::optional<Vec2>> estimates;
  /// Per-node uncertainty, for algorithms that produce one (Bayesian
  /// engines); nullopt otherwise.
  std::vector<std::optional<Cov2>> covariances;
  CommStats comm;
  std::size_t iterations = 0;
  bool converged = false;
  /// AsyncRadio event-history digest (net/async_radio.hpp): two runs of the
  /// same seeded configuration replayed the same transport history iff the
  /// hashes match, at any thread count. 0 under the synchronous transport.
  std::uint64_t transport_hash = 0;

  /// Convergence trace: per-iteration mean belief change (engines only).
  std::vector<double> change_per_iteration;

  [[nodiscard]] std::size_t localized_count() const noexcept;
};

class Localizer {
 public:
  virtual ~Localizer() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Solve one scenario. `rng` supplies any algorithmic randomness (particle
  /// sampling, packet loss); implementations must not consult the ground
  /// truth of unknown nodes.
  [[nodiscard]] virtual LocalizationResult localize(const Scenario& scenario,
                                                    Rng& rng) const = 0;
};

/// Pre-sizes a result and copies anchor positions in.
[[nodiscard]] LocalizationResult make_result_skeleton(
    const Scenario& scenario);

}  // namespace bnloc
