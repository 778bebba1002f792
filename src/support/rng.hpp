// Deterministic, splittable random number generation.
//
// Experiments in this repository must be bit-reproducible across runs and
// independent of evaluation order, so we avoid std::mt19937 global state and
// instead pass explicit Rng objects. The generator is xoshiro256** seeded via
// SplitMix64 (the construction recommended by the xoshiro authors). split()
// derives an independent substream, which lets Monte-Carlo trials and
// per-node noise draws be decorrelated without sharing mutable state.
#pragma once

#include <cstdint>
#include <vector>

namespace bnloc {

/// SplitMix64: used for seeding and for cheap hash-style stream derivation.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** PRNG with helpers for the distributions bnloc needs.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept;

  /// Derive an independent substream; deterministic in (parent state, salt).
  [[nodiscard]] Rng split(std::uint64_t salt) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }
  result_type operator()() noexcept { return next_u64(); }

  std::uint64_t next_u64() noexcept;

  /// Uniform in [0, 1).
  double uniform() noexcept;
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) noexcept;
  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n) noexcept;
  /// Standard normal via Marsaglia polar method (cached spare).
  double normal() noexcept;
  double normal(double mean, double stddev) noexcept;
  double exponential(double rate) noexcept;
  bool bernoulli(double p) noexcept;

  /// k distinct indices from [0, n), in random order. k <= n required.
  [[nodiscard]] std::vector<std::size_t> sample_indices(std::size_t n,
                                                        std::size_t k);

 private:
  std::uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace bnloc
