// Scoring localization results against ground truth.
#pragma once

#include <span>
#include <vector>

#include "core/localizer.hpp"
#include "deploy/scenario.hpp"
#include "support/stats.hpp"

namespace bnloc {

struct ErrorReport {
  /// Position error of each *localized unknown*, normalized by the radio
  /// range (the standard unit of the 2005-2008 localization literature).
  std::vector<double> errors;
  /// Localized unknowns / total unknowns.
  double coverage = 0.0;
  Summary summary;  ///< over `errors`.

  /// Mean with unlocalized nodes charged the error of guessing the field
  /// center — makes low-coverage algorithms comparable on one number.
  double penalized_mean = 0.0;
};

[[nodiscard]] ErrorReport evaluate(const Scenario& scenario,
                                   const LocalizationResult& result);

/// Calibration check for Bayesian engines: fraction of unknowns whose true
/// position lies within `k` sigma (Mahalanobis) of the reported belief.
/// Only nodes with a covariance count.
[[nodiscard]] double coverage_within_sigma(const Scenario& scenario,
                                           const LocalizationResult& result,
                                           double k_sigma);

/// Detection quality of an anchor-fault classifier (e.g. vet_anchors)
/// against the injected ground truth.
struct DetectionReport {
  std::size_t true_positives = 0;
  std::size_t false_positives = 0;
  std::size_t false_negatives = 0;

  [[nodiscard]] double precision() const noexcept;
  [[nodiscard]] double recall() const noexcept;
};

[[nodiscard]] DetectionReport score_anchor_detection(
    const Scenario& scenario, std::span<const unsigned char> flagged);

}  // namespace bnloc
