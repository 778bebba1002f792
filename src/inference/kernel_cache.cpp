#include "inference/kernel_cache.hpp"

namespace bnloc {

const RangeKernel* KernelCache::range(double measured) {
  const auto key = std::bit_cast<std::uint64_t>(measured);
  std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, fresh] = index_.try_emplace(key, kernels_.size());
  if (fresh) {
    kernels_.push_back(
        RangeKernel::make_range(measured, ranging_, shape_, trunc_sigmas_));
    ++stats_.built;
  } else {
    ++stats_.shared;
  }
  return &kernels_[it->second];
}

KernelCache::Stats KernelCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace bnloc
