// Memoization of annulus range kernels within one grid run.
//
// Within one localize() run every link kernel is built from the same
// RangingSpec, grid shape, and truncation width — the only thing that varies
// is the measured distance. Links are symmetric (i measures the same d_ij as
// j), node degrees overlap, and quantized rangers repeat values, so a run of
// 200 nodes builds far fewer distinct kernels than it has directed links.
//
// The cache keys on the *exact* bit pattern of the measured distance
// (std::bit_cast, no quantization): two links share a kernel only when they
// would have built bit-identical kernels anyway, so the fast path cannot
// perturb a single output bit. Kernels live in a deque — addresses stay
// stable as the cache grows, so callers can hold plain pointers.
//
// Each grid run owns its cache: GridRun builds one per pyramid level and
// drops it with the level, so nothing outlives the run that measured the
// distances. Lookups are internally synchronized all the same (one lock
// per lookup; misses build under it), so a cache may be shared across
// threads. A kernel is immutable after construction, so reading a returned
// pointer needs no further synchronization.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "inference/range_kernel.hpp"

namespace bnloc {

class KernelCache {
 public:
  /// Fixes the kernel parameters every lookup shares. The spec and shape are
  /// copied; the cache outliving them is fine.
  KernelCache(RangingSpec ranging, GridShape shape, double trunc_sigmas = 3.5)
      : ranging_(std::move(ranging)),
        shape_(shape),
        trunc_sigmas_(trunc_sigmas) {}

  /// The annulus kernel for `measured`; built on first sight, shared after.
  /// The pointer stays valid for the cache's lifetime. Thread-safe: misses
  /// build under the internal lock (concurrent lookups of a distance the
  /// cache already holds pay one lock acquisition and no construction).
  const RangeKernel* range(double measured);

  struct Stats {
    std::size_t built = 0;   ///< distinct kernels constructed.
    std::size_t shared = 0;  ///< lookups served from the cache.
  };
  /// Snapshot of the cumulative counters, taken under the lock.
  [[nodiscard]] Stats stats() const;

 private:
  RangingSpec ranging_;
  GridShape shape_;
  double trunc_sigmas_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::deque<RangeKernel> kernels_;  ///< deque: stable addresses.
  Stats stats_;
};

/// An empty remnant of the process-wide kernel pool, which is gone: kernels
/// now live only in the KernelCache of the run that built them, so there is
/// no process-wide kernel state to clear. It is kept only because
/// bench/e2e/e2e.cpp calls `instance().clear()` before each set-up, and it
/// goes together with those two calls.
class KernelCacheRegistry {
 public:
  static KernelCacheRegistry& instance() {
    static KernelCacheRegistry registry;
    return registry;
  }
  void clear() {}
};

}  // namespace bnloc
