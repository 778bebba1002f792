// Environment-driven configuration for bench binaries.
//
// All bench targets run argument-free (the harness iterates build/bench/*),
// so sizing knobs come from the environment: BNLOC_TRIALS, BNLOC_NODES,
// BNLOC_THREADS, BNLOC_FAST. See DESIGN.md section 5. `parse_count` also
// reads bnloc_serve's count flags.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace bnloc {

/// A decimal count: one or more ASCII digits and nothing else (no sign, no
/// whitespace), within std::size_t. nullopt otherwise, so "-1" and an
/// overflowing value are rejected instead of wrapping to a huge count.
[[nodiscard]] std::optional<std::size_t> parse_count(
    std::string_view text) noexcept;

/// parse_count of the variable's value; `fallback` when it is unset, empty
/// or not a count.
[[nodiscard]] std::size_t env_size_t(const char* name,
                                     std::size_t fallback) noexcept;
[[nodiscard]] bool env_flag(const char* name) noexcept;
[[nodiscard]] std::string env_string(const char* name,
                                     const std::string& fallback);

/// Shared sizing for the experiment benches.
struct BenchConfig {
  std::size_t trials = 8;    ///< Monte-Carlo repetitions per configuration.
                             ///< (pooled per-node errors give ~1.5k samples
                             ///< per table cell at the 200-node default).
  std::size_t nodes = 200;   ///< default network size.
  /// Harness worker threads for trial-level parallelism (BNLOC_THREADS).
  /// 1 = serial (the default: seed behavior is unchanged unless opted in);
  /// 0 = hardware concurrency. Aggregates are bit-identical at any value.
  std::size_t threads = 1;
  bool fast = false;         ///< BNLOC_FAST=1 shrinks everything for CI.

  static BenchConfig from_env() noexcept;
};

}  // namespace bnloc
