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

std::string validate(const ServeRequest& request) {
  if (std::string why = request.scenario.validate(); !why.empty())
    return "scenario: " + why;
  std::string why;
  switch (request.engine) {
    case EngineKind::grid: why = request.grid.validate(); break;
    case EngineKind::particle: why = request.particle.validate(); break;
    case EngineKind::gauss: why = request.gauss.validate(); break;
  }
  return why.empty() ? why : "engine_config: " + why;
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
