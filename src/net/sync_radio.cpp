#include "net/sync_radio.hpp"

#include <algorithm>

#include "obs/telemetry.hpp"
#include "support/assert.hpp"

namespace bnloc {

SyncRadio::SyncRadio(const Graph& graph, double loss, Rng rng,
                     std::span<const std::size_t> death_rounds,
                     std::span<const std::size_t> reboot_rounds)
    : graph_(&graph),
      loss_(loss),
      rng_(rng),
      death_rounds_(death_rounds.begin(), death_rounds.end()),
      reboot_rounds_(reboot_rounds.begin(), reboot_rounds.end()) {
  BNLOC_ASSERT(loss >= 0.0 && loss < 1.0, "loss probability out of range");
  BNLOC_ASSERT(death_rounds_.empty() ||
                   death_rounds_.size() == graph.node_count(),
               "death schedule size mismatch");
  BNLOC_ASSERT(reboot_rounds_.empty() ||
                   reboot_rounds_.size() == graph.node_count(),
               "reboot schedule size mismatch");
  BNLOC_ASSERT(reboot_rounds_.empty() || !death_rounds_.empty(),
               "reboot schedule requires a death schedule");
  const std::size_t n = graph.node_count();
  offsets_.resize(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v)
    offsets_[v + 1] = offsets_[v] + graph.degree(v);
  delivered_.assign(offsets_.back(), 1);
  if (loss_ > 0.0) reverse_ = reverse_slots(graph);
}

void SyncRadio::begin_round() {
  ++stats_.rounds;
  ++round_;
  round_open_ = true;
  obs::count("radio.rounds");
  if (loss_ <= 0.0) return;  // flags stay all-delivered
  std::size_t drops = 0;
  for (auto& flag : delivered_) {
    flag = rng_.bernoulli(loss_) ? 0 : 1;
    drops += flag ? 0 : 1;
  }
  if (drops) obs::count("radio.links_dropped", drops);
}

std::size_t SyncRadio::crashed_count() const noexcept {
  std::size_t dead = 0;
  for (std::size_t u = 0; u < death_rounds_.size(); ++u)
    if (crashed(u)) ++dead;
  return dead;
}

bool SyncRadio::just_rebooted(std::size_t node) const noexcept {
  return !reboot_rounds_.empty() && reboot_rounds_[node] == round_ &&
         death_rounds_[node] < round_;
}

void SyncRadio::record_broadcast(std::size_t node, std::size_t bytes) {
  BNLOC_ASSERT(round_open_, "broadcast outside a round");
  if (crashed(node)) return;  // a dead node transmits nothing
  ++stats_.messages_sent;
  stats_.bytes_sent += bytes;
  // The reverse of node's incoming slot k carries node -> its k-th neighbor.
  std::size_t received = graph_->degree(node);
  if (loss_ > 0.0) {
    received = 0;
    for (std::size_t s = offsets_[node]; s < offsets_[node + 1]; ++s)
      received += delivered_[reverse_[s]];
  }
  stats_.messages_received += received;
  obs::count("radio.broadcasts");
  obs::count("radio.bytes_sent", bytes);
  obs::count("radio.deliveries", received);
}

bool SyncRadio::delivered(std::size_t from, std::size_t to) const {
  if (crashed(from)) return false;
  if (loss_ <= 0.0) return true;
  const auto nbs = graph_->neighbors(to);
  const auto it =
      std::find_if(nbs.begin(), nbs.end(),
                   [from](const Neighbor& nb) { return nb.node == from; });
  BNLOC_ASSERT(it != nbs.end(), "delivered() queried for a non-link");
  const auto k = static_cast<std::size_t>(it - nbs.begin());
  return delivered_[offsets_[to] + k] != 0;
}

}  // namespace bnloc
