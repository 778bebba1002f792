// Synchronous-round broadcast radio with Bernoulli packet loss and
// fault-injected node crashes.
//
// Model: time advances in rounds. In a round every participating node
// broadcasts one summary packet; each directed link (u -> v) independently
// delivers or drops it. Engines query `delivered_slot` to decide whether v
// sees u's *current* belief this round or must keep using the last copy it
// received. This is the textbook abstraction of a TDMA/gossip localization
// protocol and is what lets F12 study loss robustness without a full MAC
// simulation.
//
// Crash schedules (F13): a node with death round d transmits through round d
// and delivers nothing afterwards — its neighbors simply stop hearing it,
// exactly like a battery death. Dead nodes send no packets (no accounting).
// An optional reboot schedule models battery-swap recovery: a node with
// reboot round b is back on the air from round b on (`just_rebooted` flags
// the single round where engines must run their cold-restart logic).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/adjacency.hpp"
#include "net/comm_stats.hpp"
#include "support/rng.hpp"

namespace bnloc {

class SyncRadio {
 public:
  /// `loss` is the independent per-reception drop probability in [0, 1).
  /// `death_rounds` (optional, per node) is the fault-injected crash
  /// schedule: node u delivers nothing once the round counter exceeds
  /// death_rounds[u]. Empty means no crashes. `reboot_rounds` (optional,
  /// requires a death schedule) is the battery-swap recovery schedule: node
  /// u transmits again from round reboot_rounds[u] on (kNeverCrashes
  /// sentinel = stays dead).
  SyncRadio(const Graph& graph, double loss, Rng rng,
            std::span<const std::size_t> death_rounds = {},
            std::span<const std::size_t> reboot_rounds = {});

  /// Start a new round; re-draws the loss process for every directed link.
  void begin_round();

  /// Record that `node` broadcast a payload of `bytes` this round. A crashed
  /// node transmits nothing: the call is ignored (no bytes, no messages).
  void record_broadcast(std::size_t node, std::size_t bytes);

  /// Did the broadcast of `from` reach `to` this round? Only meaningful for
  /// neighbors; non-neighbors never hear each other. Stable within a round.
  /// O(degree of `to`): the slot is found by a scan of `to`'s neighbors.
  [[nodiscard]] bool delivered(std::size_t from, std::size_t to) const;

  /// delivered(from, to) addressed by the link's receiver-side CSR slot
  /// (slot offsets[to] + k carries `to`'s k-th neighbor, `from`): O(1) —
  /// the form the per-slot reads on the engines' hot path use.
  [[nodiscard]] bool delivered_slot(std::size_t from,
                                    std::size_t slot) const noexcept {
    if (crashed(from)) return false;
    return loss_ <= 0.0 || delivered_[slot] != 0;
  }

  /// Has `node` crashed as of the current round (i.e. its broadcasts are no
  /// longer delivered)?
  [[nodiscard]] bool crashed(std::size_t node) const noexcept {
    if (death_rounds_.empty() || round_ <= death_rounds_[node]) return false;
    return reboot_rounds_.empty() || round_ < reboot_rounds_[node];
  }

  /// Nodes crashed as of the current round (telemetry: the trace's
  /// crashed_nodes column). 0 when no crash schedule was given.
  [[nodiscard]] std::size_t crashed_count() const noexcept;

  /// Did `node` come back from a crash in the round just begun? Engines use
  /// this to force a republish past their change-gates: the rebooted node's
  /// neighbors may have retired it (TTL) and will not hear it otherwise.
  [[nodiscard]] bool just_rebooted(std::size_t node) const noexcept;

  /// Rounds elapsed (number of begin_round calls so far).
  [[nodiscard]] std::size_t round() const noexcept { return round_; }

  [[nodiscard]] const CommStats& stats() const noexcept { return stats_; }
  [[nodiscard]] double loss() const noexcept { return loss_; }

 private:
  const Graph* graph_;
  double loss_;
  Rng rng_;
  // CSR-aligned delivery flags: slot k corresponds to the k-th (node,
  // neighbor) pair in graph order.
  std::vector<std::size_t> offsets_;
  std::vector<unsigned char> delivered_;
  // Per slot, the slot of the opposite direction (reverse_slots), so a
  // broadcast counts its deliveries without a lookup. Built only with loss.
  std::vector<std::uint32_t> reverse_;
  std::vector<std::size_t> death_rounds_;   ///< empty = nobody crashes.
  std::vector<std::size_t> reboot_rounds_;  ///< empty = crashes are final.
  CommStats stats_;
  std::size_t round_ = 0;
  bool round_open_ = false;
};

}  // namespace bnloc
