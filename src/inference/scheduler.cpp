#include "inference/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "support/assert.hpp"

namespace bnloc {

ResidualScheduler::ResidualScheduler(const ScheduleConfig& config,
                                     std::size_t slot_count,
                                     std::size_t node_count)
    : config_(config),
      defer_(slot_count, 0),
      streak_(slot_count, 0),
      pub_residual_(node_count, 0.0),
      node_accum_(node_count, 0.0),
      seen_accum_(slot_count, 0.0) {
  BNLOC_ASSERT_VALID(config_);
  ver_accum_.reserve(4 * node_count);
  ver_accum_.push_back(0.0);  // version 0 = never published
}

void ResidualScheduler::commit_publish(std::size_t node, std::uint64_t ver) {
  BNLOC_ASSERT(ver == ver_accum_.size(),
               "publish versions must be committed in sequence");
  node_accum_[node] += pub_residual_[node];
  ver_accum_.push_back(node_accum_[node]);
}

void ResidualScheduler::reset_level() {
  std::fill(defer_.begin(), defer_.end(), static_cast<unsigned char>(0));
  std::fill(streak_.begin(), streak_.end(), 0U);
  candidates_.clear();
  stats_ = {};
}

void ResidualScheduler::reset_slot(std::size_t slot) {
  defer_[slot] = 0;
  streak_[slot] = 0;
}

void ResidualScheduler::begin_round() {
  // Only last round's candidates can hold a defer bit, so clearing them is
  // enough — no O(slot_count) sweep per round.
  for (const Candidate& c : candidates_) defer_[c.slot] = 0;
  candidates_.clear();
  stats_ = {};
}

void ResidualScheduler::add_candidate(std::uint32_t node, std::uint32_t slot,
                                      double residual) {
  candidates_.push_back(
      {std::bit_cast<std::uint64_t>(std::max(residual, 0.0)), node, slot});
}

void ResidualScheduler::commit_round() {
  std::sort(candidates_.begin(), candidates_.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.residual_bits != b.residual_bits)
                return a.residual_bits > b.residual_bits;
              if (a.node != b.node) return a.node < b.node;
              return a.slot < b.slot;
            });
  const std::size_t total = candidates_.size();
  // ceil(frac * total): at least one grant whenever there are candidates.
  const std::size_t budget = std::min(
      total, static_cast<std::size_t>(std::ceil(
                 config_.link_budget_frac * static_cast<double>(total))));
  for (std::size_t idx = 0; idx < total; ++idx) {
    const Candidate& c = candidates_[idx];
    if (idx < budget) {
      streak_[c.slot] = 0;
      ++stats_.processed;
    } else if (streak_[c.slot] >= config_.starvation_rounds) {
      streak_[c.slot] = 0;
      ++stats_.promotions;
      ++stats_.processed;
    } else {
      defer_[c.slot] = 1;
      ++streak_[c.slot];
      ++stats_.deferred;
    }
  }
}

}  // namespace bnloc
