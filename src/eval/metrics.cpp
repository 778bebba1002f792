#include "eval/metrics.hpp"

#include <cmath>

#include "support/assert.hpp"

namespace bnloc {

ErrorReport evaluate(const Scenario& scenario,
                     const LocalizationResult& result) {
  BNLOC_ASSERT(result.estimates.size() == scenario.node_count(),
               "result does not match scenario");
  ErrorReport report;
  const double r = scenario.radio.range;
  std::size_t unknowns = 0;
  std::size_t localized = 0;
  double penalized_sum = 0.0;
  const Vec2 center = scenario.field.center();
  for (std::size_t i = 0; i < scenario.node_count(); ++i) {
    if (scenario.is_anchor[i]) continue;
    ++unknowns;
    if (result.estimates[i]) {
      const double err =
          distance(*result.estimates[i], scenario.true_positions[i]) / r;
      report.errors.push_back(err);
      penalized_sum += err;
      ++localized;
    } else {
      penalized_sum += distance(center, scenario.true_positions[i]) / r;
    }
  }
  report.coverage =
      unknowns ? static_cast<double>(localized) / static_cast<double>(unknowns)
               : 0.0;
  report.summary = summarize(report.errors);
  report.penalized_mean =
      unknowns ? penalized_sum / static_cast<double>(unknowns) : 0.0;
  return report;
}

double DetectionReport::precision() const noexcept {
  const std::size_t flagged = true_positives + false_positives;
  return flagged ? static_cast<double>(true_positives) /
                       static_cast<double>(flagged)
                 : 1.0;
}

double DetectionReport::recall() const noexcept {
  const std::size_t faulty = true_positives + false_negatives;
  return faulty ? static_cast<double>(true_positives) /
                      static_cast<double>(faulty)
                : 1.0;
}

DetectionReport score_anchor_detection(const Scenario& scenario,
                                       std::span<const unsigned char>
                                           flagged) {
  BNLOC_ASSERT(flagged.size() == scenario.node_count(),
               "flag vector does not match scenario");
  DetectionReport report;
  const bool labeled =
      scenario.faults.active &&
      scenario.faults.anchor_faulty.size() == scenario.node_count();
  for (std::size_t i = 0; i < scenario.node_count(); ++i) {
    if (!scenario.is_anchor[i]) continue;
    const bool truly_faulty = labeled && scenario.faults.anchor_faulty[i];
    if (flagged[i] && truly_faulty) ++report.true_positives;
    if (flagged[i] && !truly_faulty) ++report.false_positives;
    if (!flagged[i] && truly_faulty) ++report.false_negatives;
  }
  return report;
}

double coverage_within_sigma(const Scenario& scenario,
                             const LocalizationResult& result,
                             double k_sigma) {
  std::size_t with_cov = 0;
  std::size_t inside = 0;
  for (std::size_t i = 0; i < scenario.node_count(); ++i) {
    if (scenario.is_anchor[i]) continue;
    if (!result.estimates[i] || !result.covariances[i]) continue;
    const Cov2& cov = *result.covariances[i];
    if (cov.det() <= 0.0) continue;
    ++with_cov;
    const double md2 =
        cov.mahalanobis_sq(scenario.true_positions[i], *result.estimates[i]);
    if (md2 <= k_sigma * k_sigma) ++inside;
  }
  return with_cov ? static_cast<double>(inside) /
                        static_cast<double>(with_cov)
                  : 0.0;
}

}  // namespace bnloc
