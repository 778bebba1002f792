#include "support/config.hpp"

#include <charconv>
#include <cstdlib>

namespace bnloc {

std::optional<std::size_t> parse_count(std::string_view text) noexcept {
  // from_chars takes no whitespace, no '+' and, for an unsigned type, no
  // '-'; it reports overflow instead of wrapping like strtoull.
  const char* last = text.data() + text.size();
  std::size_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc{} || end != last) return std::nullopt;
  return value;
}

std::size_t env_size_t(const char* name, std::size_t fallback) noexcept {
  const char* raw = std::getenv(name);
  if (!raw) return fallback;
  return parse_count(raw).value_or(fallback);
}

bool env_flag(const char* name) noexcept {
  const char* raw = std::getenv(name);
  if (!raw) return false;
  const std::string v = raw;
  return v == "1" || v == "true" || v == "yes" || v == "on";
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  return (raw && *raw) ? std::string(raw) : fallback;
}

BenchConfig BenchConfig::from_env() noexcept {
  BenchConfig cfg;
  cfg.fast = env_flag("BNLOC_FAST");
  if (cfg.fast) {
    cfg.trials = 3;
    cfg.nodes = 100;
  }
  cfg.trials = env_size_t("BNLOC_TRIALS", cfg.trials);
  cfg.nodes = env_size_t("BNLOC_NODES", cfg.nodes);
  cfg.threads = env_size_t("BNLOC_THREADS", cfg.threads);
  return cfg;
}

}  // namespace bnloc
