#include "serve/request.hpp"

namespace bnloc::serve {

const char* to_string(EngineKind kind) noexcept {
  switch (kind) {
    case EngineKind::grid: return "grid";
    case EngineKind::particle: return "particle";
    case EngineKind::gauss: return "gauss";
  }
  return "?";
}

bool engine_kind_from(std::string_view name, EngineKind& out) {
  if (name == "grid") {
    out = EngineKind::grid;
  } else if (name == "particle") {
    out = EngineKind::particle;
  } else if (name == "gauss") {
    out = EngineKind::gauss;
  } else {
    return false;
  }
  return true;
}

namespace {

/// The knob blocks every engine config embeds, checked on the config that
/// will run (the decoder applies shared knobs to all three).
template <typename EngineConfig>
std::string validate_shared(const EngineConfig& config) {
  const double quorum = config.robustness.update_quorum;
  if (!(quorum >= 0.0 && quorum <= 1.0))
    return "engine.update_quorum must be in [0, 1]";
  const TransportConfig& transport = config.transport;
  if (transport.async) {
    if (!(transport.radio.loss >= 0.0 && transport.radio.loss < 1.0))
      return "engine.loss must be in [0, 1)";
    if (!(transport.radio.latency >= 0.0))
      return "engine.latency must be >= 0";
  } else {
    const double loss = config.iteration.packet_loss;
    if (!(loss >= 0.0 && loss < 1.0))
      return "engine.packet_loss must be in [0, 1)";
  }
  return {};
}

}  // namespace

std::string validate(const ServeRequest& request) {
  const ScenarioConfig& s = request.scenario;
  if (s.node_count < 2) return "scenario.nodes must be >= 2";
  if (s.anchor_fraction < 0.0 || s.anchor_fraction > 1.0)
    return "scenario.anchor_fraction must be in [0, 1]";
  if (s.radio.range <= 0.0) return "scenario.radio_range must be > 0";
  if (s.radio.ranging.noise_factor < 0.0)
    return "scenario.noise must be >= 0";
  switch (request.engine) {
    case EngineKind::grid:
      if (request.grid.grid_side < 8) return "engine.grid_side must be >= 8";
      if (request.grid.pyramid_levels < 1)
        return "engine.pyramid_levels must be >= 1";
      return validate_shared(request.grid);
    case EngineKind::particle:
      if (request.particle.particle_count < 8)
        return "engine.particle_count must be >= 8";
      return validate_shared(request.particle);
    case EngineKind::gauss:
      return validate_shared(request.gauss);
  }
  return {};
}

std::unique_ptr<Localizer> make_localizer(const ServeRequest& request) {
  switch (request.engine) {
    case EngineKind::grid:
      return std::make_unique<GridBncl>(request.grid);
    case EngineKind::particle:
      return std::make_unique<ParticleBncl>(request.particle);
    case EngineKind::gauss:
      return std::make_unique<GaussianBncl>(request.gauss);
  }
  return nullptr;
}

}  // namespace bnloc::serve
