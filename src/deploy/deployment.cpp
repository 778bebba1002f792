#include "deploy/deployment.hpp"

#include <cmath>

#include "support/assert.hpp"

namespace bnloc {

namespace {

Placement deploy_uniform(const DeploymentSpec& spec, std::size_t count,
                         Rng& rng) {
  Placement out;
  out.positions.reserve(count);
  const auto prior = std::make_shared<UniformPrior>(spec.field);
  out.priors.assign(count, prior);
  for (std::size_t i = 0; i < count; ++i)
    out.positions.push_back(prior->sample(rng));
  return out;
}

Placement deploy_grid_jitter(const DeploymentSpec& spec, std::size_t count,
                             Rng& rng) {
  Placement out;
  out.positions.reserve(count);
  out.priors.reserve(count);
  // Near-square grid covering the field.
  const auto cols = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(count) * spec.field.width() /
                          spec.field.height())));
  const auto rows_needed =
      (count + cols - 1) / cols;
  const double pitch_x = spec.field.width() / static_cast<double>(cols);
  const double pitch_y = spec.field.height() / static_cast<double>(rows_needed);
  const double sigma = spec.grid_jitter_factor * std::min(pitch_x, pitch_y);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t r = i / cols;
    const std::size_t c = i % cols;
    const Vec2 planned{
        spec.field.lo.x + (static_cast<double>(c) + 0.5) * pitch_x,
        spec.field.lo.y + (static_cast<double>(r) + 0.5) * pitch_y};
    const Vec2 landed = spec.field.clamp(
        planned + Vec2{rng.normal(0.0, sigma), rng.normal(0.0, sigma)});
    out.positions.push_back(landed);
    out.priors.push_back(GaussianPrior::isotropic(planned, sigma));
  }
  return out;
}

Placement deploy_clusters(const DeploymentSpec& spec, std::size_t count,
                          Rng& rng) {
  Placement out;
  out.positions.reserve(count);
  out.priors.reserve(count);
  const double sigma = spec.cluster_sigma_factor * spec.field.width();
  // Cluster centers are planned (known) positions, kept away from the edge
  // so clusters mostly fit inside the field.
  std::vector<Vec2> centers;
  std::vector<PriorPtr> cluster_priors;
  const Aabb inner = spec.field.inflated(-2.0 * sigma);
  for (std::size_t k = 0; k < spec.cluster_count; ++k) {
    const Vec2 c{rng.uniform(inner.lo.x, inner.hi.x),
                 rng.uniform(inner.lo.y, inner.hi.y)};
    centers.push_back(c);
    cluster_priors.push_back(GaussianPrior::isotropic(c, sigma));
  }
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t k = i % spec.cluster_count;  // balanced assignment
    const Vec2 landed = spec.field.clamp(cluster_priors[k]->sample(rng));
    out.positions.push_back(landed);
    out.priors.push_back(cluster_priors[k]);
  }
  return out;
}

Placement deploy_line_drop(const DeploymentSpec& spec, std::size_t count,
                           Rng& rng) {
  Placement out;
  out.positions.reserve(count);
  out.priors.reserve(count);
  // Boustrophedon flight path: enough horizontal passes that nominal drop
  // spacing stays below the lateral pass separation.
  const std::size_t passes =
      std::max<std::size_t>(2, static_cast<std::size_t>(
                                   std::round(std::sqrt(
                                       static_cast<double>(count) / 4.0))));
  const std::size_t per_pass = (count + passes - 1) / passes;
  const double lateral_sigma = spec.drop_lateral_factor * spec.field.width();
  const double margin = 2.0 * lateral_sigma;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t pass = i / per_pass;
    const std::size_t slot = i % per_pass;
    const double y =
        spec.field.lo.y + margin +
        (spec.field.height() - 2.0 * margin) * static_cast<double>(pass) /
            static_cast<double>(passes - 1 == 0 ? 1 : passes - 1);
    const double spacing =
        (spec.field.width() - 2.0 * margin) /
        static_cast<double>(per_pass == 1 ? 1 : per_pass - 1);
    double x = spec.field.lo.x + margin +
               spacing * static_cast<double>(slot);
    // Alternate flight direction per pass (boustrophedon).
    if (pass % 2 == 1) x = spec.field.lo.x + spec.field.hi.x - x;
    const Vec2 planned{x, y};
    const double along_sigma = spec.drop_spacing_error * spacing;
    const auto prior = std::make_shared<GaussianPrior>(
        planned, std::max(along_sigma, 1e-4),
        std::max(lateral_sigma, 1e-4), Vec2{1.0, 0.0});
    out.positions.push_back(spec.field.clamp(prior->sample(rng)));
    out.priors.push_back(prior);
  }
  return out;
}

}  // namespace

std::string DeploymentSpec::validate() const {
  if (!(field.area() > 0.0)) return "field must have a positive area";
  if (kind == DeploymentKind::clusters && cluster_count < 1)
    return "cluster_count must be >= 1 for a clusters deployment";
  return {};
}

Placement deploy(const DeploymentSpec& spec, std::size_t count, Rng& rng) {
  BNLOC_ASSERT(count > 0, "deployment needs at least one node");
  BNLOC_ASSERT_VALID(spec);
  switch (spec.kind) {
    case DeploymentKind::uniform:
      return deploy_uniform(spec, count, rng);
    case DeploymentKind::grid_jitter:
      return deploy_grid_jitter(spec, count, rng);
    case DeploymentKind::clusters:
      return deploy_clusters(spec, count, rng);
    case DeploymentKind::line_drop:
      return deploy_line_drop(spec, count, rng);
  }
  return deploy_uniform(spec, count, rng);
}

const char* to_string(DeploymentKind kind) noexcept {
  switch (kind) {
    case DeploymentKind::uniform:
      return "uniform";
    case DeploymentKind::grid_jitter:
      return "grid_jitter";
    case DeploymentKind::clusters:
      return "clusters";
    case DeploymentKind::line_drop:
      return "line_drop";
  }
  return "?";
}

}  // namespace bnloc
