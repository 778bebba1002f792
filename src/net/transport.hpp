// Transport<Payload>: the one link layer every BNCL engine talks through.
//
// An engine publishes one summary per node per round and reads, per
// receiver-side directed slot, the summary that slot currently holds. Which
// summary that is depends on the link layer underneath, chosen once by
// `TransportConfig::async`:
//
//  * sync (default): SyncRadio lockstep rounds with i.i.d. loss, drawn once
//    per directed link per round (`transport.radio.loss`). Each sender keeps
//    its current and previous
//    summary; a slot serves the current one when this round's delivery
//    succeeded and the previous one otherwise — the textbook idealization of
//    a broadcast protocol with a one-deep sender cache.
//  * async: the event-driven AsyncRadio (the same loss, drawn per attempt,
//    plus latency, retries, churn, partitions). Senders
//    keep a short history of published payloads (bounded by the radio's
//    worst-case in-flight horizon, so a retried packet can always find its
//    body) and each slot holds an inbox with the newest *accepted* summary,
//    which may be several rounds stale.
//
// Both branches share one staleness rule: a slot is heard in a round iff its
// sender is alive, the link delivered, and its receiver is alive (exactly
// the conditions under which the async radio accepts a packet). With a
// stale-belief TTL, `input` retires a slot not heard for more than `ttl`
// rounds. Reboots wipe the rebooted node's RAM: under async its inbox and
// history go (neighbors re-seed it through `relay`); under sync its incoming
// slots get a TTL grace so retirement restarts from the reboot round. What
// a rebooted *sender* keeps is engine policy, set through `reset`.
//
// The per-slot read sits on the grid engine's update hot path, so the whole
// class is header-inline and branches on which radio it holds — no virtual
// call per slot. All mutation happens in serial phases (`begin_round`, `publish`,
// `reset`, `relay`, `transform`); `input` and the other const reads are safe
// from the node-parallel phases.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "deploy/scenario.hpp"
#include "net/async_radio.hpp"
#include "net/comm_stats.hpp"
#include "net/sync_radio.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace bnloc {

/// Transport selection, shared by every engine. Defaults preserve the
/// synchronous lockstep transport; `async = true` swaps in the event-driven
/// AsyncRadio (net/async_radio.hpp) plus the graceful-degradation ladder
/// (sequence-gated summaries, heartbeats, store-and-forward re-entry).
struct TransportConfig {
  bool async = false;
  /// Link-layer parameters (loss, latency, retry ladder, duty cycle, churn,
  /// partitions). `radio.loss` is the one loss knob of both transports;
  /// the rest is read by the async transport only.
  AsyncRadioConfig radio;

  /// Empty when the selected transport accepts this config, else the
  /// reason. The sync radio reads only the loss, so it is held to the
  /// async radio's checks on a radio that differs from the defaults in the
  /// loss alone.
  [[nodiscard]] std::string validate() const {
    AsyncRadioConfig sync_radio;
    sync_radio.loss = radio.loss;
    const std::string why = (async ? radio : sync_radio).validate();
    return why.empty() ? why : "radio." + why;
  }
};

template <typename Payload>
class Transport {
 public:
  /// Version `input` reports for a slot the TTL retired.
  static constexpr std::uint64_t kStale = ~std::uint64_t{0};

  /// What a slot serves this round: the summary (nullptr when there is
  /// none, or the TTL retired it) and its version (0 = nothing published
  /// or heard; kStale = retired).
  struct Input {
    const Payload* payload = nullptr;
    std::uint64_t ver = 0;
  };

  /// Heartbeat republish period of the async transport, in rounds: a
  /// quiet (converged) node whose last summary may have been dropped
  /// re-broadcasts at least this often, so silence is never mistaken for
  /// agreement.
  static constexpr std::size_t kHeartbeatRounds = 8;

  /// `stale_ttl` is the retirement TTL in rounds (0 disables). Both radios
  /// take the same `rng` and draw from the same `config.radio.loss`, so a
  /// config differing only in `config.async` compares the same scenario
  /// under the two link layers.
  Transport(const Scenario& scenario, const TransportConfig& config,
            std::size_t stale_ttl, Rng rng)
      : heartbeat_(config.async ? kHeartbeatRounds
                                : (config.radio.loss > 0.0 ? 1 : 0)),
        ttl_(stale_ttl) {
    const Graph& graph = scenario.graph;
    const std::size_t n = graph.node_count();
    offsets_.assign(n + 1, 0);
    for (std::size_t v = 0; v < n; ++v)
      offsets_[v + 1] = offsets_[v] + graph.degree(v);
    sender_.resize(offsets_[n]);
    for (std::size_t v = 0; v < n; ++v) {
      const auto nbs = graph.neighbors(v);
      for (std::size_t k = 0; k < nbs.size(); ++k)
        sender_[offsets_[v] + k] = static_cast<std::uint32_t>(nbs[k].node);
    }
    cur_.resize(n);
    if (config.async) {
      async_.emplace(graph, config.radio, rng, scenario.faults.death_round,
                     scenario.faults.reboot_round);
      history_.resize(n);
      inbox_.resize(offsets_[n]);
      inbox_ver_.assign(offsets_[n], 0);
    } else {
      sync_.emplace(graph, config.radio.loss, rng,
                    scenario.faults.death_round, scenario.faults.reboot_round);
      prev_.resize(n);
      track_reboots_ = !scenario.faults.reboot_round.empty();
      if (ttl_ > 0) last_heard_.assign(offsets_[n], 0);
    }
  }

  /// Advance one round: draw the link layer's deliveries, wipe rebooted
  /// nodes' RAM, and record which slots were heard. Serial only — all of
  /// the transport's randomness happens here. Timed as `radio.round`.
  void begin_round() {
    const obs::Span round_span("radio.round");
    if (async_)
      begin_async_round();
    else
      begin_sync_round();
  }

  /// Nodes whose reboot round is the round just begun (the engines'
  /// cold-restart hook).
  [[nodiscard]] std::span<const std::uint32_t> rebooted() const noexcept {
    return async_ ? async_->rebooted_this_round()
                  : std::span<const std::uint32_t>(rebooted_);
  }

  /// Restart `u`'s published state without transmitting: its newest
  /// summary (and under sync its previous one too) becomes `payload` under
  /// version `ver` — version 0 with an empty payload clears it. Under sync
  /// this is the sender-side summary a receiver falls back to on a dropped
  /// delivery; async receivers only ever hold what they accepted.
  void reset(std::size_t u, std::uint64_t ver, Payload payload) {
    if (!async_) prev_[u] = {ver, payload};
    cur_[u] = {ver, std::move(payload)};
  }

  /// Broadcast `u`'s summary under version `ver` (strictly increasing per
  /// node under async: it is the receiver-side dedup key), metered as
  /// `bytes` on the air. A crashed node transmits nothing.
  void publish(std::size_t u, std::uint64_t ver, Payload payload,
               std::size_t bytes) {
    if (async_) {
      BNLOC_ASSERT(history_[u].empty() || history_[u].back().ver < ver,
                   "publish versions must increase per node");
      history_[u].push_back({ver, async_->round(), payload});
      async_->send(u, ver, bytes);
    } else {
      prev_[u] = std::move(cur_[u]);
      sync_->record_broadcast(u, bytes);
    }
    cur_[u] = {ver, std::move(payload)};
  }

  /// Async store-and-forward re-send of `from`'s newest published summary
  /// to one neighbor (warm re-entry for a rebooted node). No-op under sync,
  /// or if `from` has nothing published since its own last reboot.
  void relay(std::size_t from, std::size_t to, std::size_t bytes) {
    if (!async_ || history_[from].empty()) return;
    Stored& newest = history_[from].back();
    newest.round = async_->round();  // refresh retention: back in flight
    async_->relay(from, to, newest.ver, bytes);
  }

  /// The summary receiver-side slot `slot` serves this round, with the
  /// stale-TTL rule applied. Pure read.
  [[nodiscard]] Input input(std::size_t slot) const noexcept {
    if (async_) {
      const std::uint64_t ver = inbox_ver_[slot];
      if (ver == 0) return {};
      if (ttl_ > 0 && round() - async_->accepted_round(slot) > ttl_)
        return {nullptr, kStale};
      return {&inbox_[slot], ver};
    }
    if (ttl_ > 0 && round() - last_heard_[slot] > ttl_)
      return {nullptr, kStale};
    const std::size_t j = sender_[slot];
    const Summary& s = sync_->delivered_slot(j, slot) ? cur_[j] : prev_[j];
    return {s.ver != 0 ? &s.payload : nullptr, s.ver};
  }

  /// Sender `u`'s newest published (or `reset`) summary, independent of
  /// any delivery: what the grid engine's two-hop non-link evidence and
  /// relay sizing read.
  [[nodiscard]] Input newest(std::size_t u) const noexcept {
    const Summary& s = cur_[u];
    return {s.ver != 0 ? &s.payload : nullptr, s.ver};
  }

  /// Apply `fn` to every stored payload — sender summaries, async send
  /// histories, and inboxes. Used at pyramid level switches, where
  /// summaries are re-expressed on the finer grid receiver-locally (no
  /// radio traffic) before anyone consumes them.
  template <typename Fn>
  void transform(Fn&& fn) {
    for (std::size_t u = 0; u < cur_.size(); ++u) {
      if (cur_[u].ver != 0) fn(cur_[u].payload);
      if (!async_ && prev_[u].ver != 0) fn(prev_[u].payload);
    }
    if (!async_) return;
    for (auto& h : history_)
      for (Stored& s : h) fn(s.payload);
    for (std::size_t slot = 0; slot < inbox_.size(); ++slot)
      if (inbox_ver_[slot] != 0) fn(inbox_[slot]);
  }

  /// Receiver-side directed slot of `receiver`'s k-th neighbor (Graph
  /// neighbor order, the engines' per-link indexing).
  [[nodiscard]] std::size_t slot(std::size_t receiver,
                                 std::size_t k) const noexcept {
    return offsets_[receiver] + k;
  }
  /// Rounds begun so far (the round just begun, 1-based).
  [[nodiscard]] std::size_t round() const noexcept {
    return async_ ? async_->round() : sync_->round();
  }
  [[nodiscard]] bool crashed(std::size_t u) const noexcept {
    return async_ ? async_->crashed(u) : sync_->crashed(u);
  }
  [[nodiscard]] std::size_t crashed_count() const noexcept {
    return async_ ? async_->crashed_count() : sync_->crashed_count();
  }

  /// Slots that have heard their sender at least once, but not within the
  /// last `ttl` rounds (the trace's `stale_links` column). Same heard rule
  /// on both branches, so a clean run reads 0 under either. 0 with the TTL
  /// off.
  [[nodiscard]] std::size_t stale_links() const noexcept {
    if (ttl_ == 0) return 0;
    const std::size_t now = round();
    std::size_t stale = 0;
    for (std::size_t s = 0; s < sender_.size(); ++s) {
      const std::size_t heard =
          async_ ? (inbox_ver_[s] != 0 ? async_->accepted_round(s) : 0)
                 : last_heard_[s];
      if (heard != 0 && now - heard > ttl_) ++stale;
    }
    return stale;
  }

  /// Longest a quiet sender may stay silent before it must republish:
  /// kHeartbeatRounds under async; under sync 1 with loss (a
  /// receiver that misses a delivery falls back to the previous summary,
  /// so a silent sender would leave it alternating between two versions)
  /// and 0 (never) without.
  [[nodiscard]] std::size_t heartbeat_rounds() const noexcept {
    return heartbeat_;
  }

  [[nodiscard]] const CommStats& stats() const noexcept {
    return async_ ? async_->stats() : sync_->stats();
  }
  /// Replay identity of the async radio's event history; 0 under sync,
  /// whose history is a pure function of the seed.
  [[nodiscard]] std::uint64_t hash() const noexcept {
    return async_ ? async_->event_hash() : 0;
  }
  /// Async deliveries whose body had aged out of the sender's history.
  [[nodiscard]] std::size_t history_misses() const noexcept {
    return history_misses_;
  }

 private:
  struct Summary {
    std::uint64_t ver = 0;
    Payload payload{};
  };
  struct Stored {
    std::uint64_t ver = 0;
    std::size_t round = 0;  ///< retention tag (publish or latest relay).
    Payload payload{};
  };

  void begin_sync_round() {
    sync_->begin_round();
    const std::size_t now = sync_->round();
    rebooted_.clear();
    if (track_reboots_)
      for (std::size_t u = 0; u + 1 < offsets_.size(); ++u)
        if (sync_->just_rebooted(u))
          rebooted_.push_back(static_cast<std::uint32_t>(u));
    if (ttl_ == 0) return;
    for (const std::uint32_t r : rebooted_)
      for (std::size_t s = offsets_[r]; s < offsets_[r + 1]; ++s)
        last_heard_[s] = now;
    for (std::size_t v = 0; v + 1 < offsets_.size(); ++v) {
      if (sync_->crashed(v)) continue;
      for (std::size_t s = offsets_[v]; s < offsets_[v + 1]; ++s)
        if (sync_->delivered_slot(sender_[s], s)) last_heard_[s] = now;
    }
  }

  void begin_async_round() {
    async_->begin_round();
    // Rebooted nodes lose both directions of state: what they had heard
    // (inbox) and what they had published (history) — a relay can only
    // forward summaries minted after the reboot.
    for (const std::uint32_t u : async_->rebooted_this_round()) {
      history_[u].clear();
      for (std::size_t s = offsets_[u]; s < offsets_[u + 1]; ++s) {
        inbox_[s] = Payload{};
        inbox_ver_[s] = 0;
      }
    }
    for (const AsyncDelivery& d : async_->deliveries()) {
      const Stored* found = find(sender_[d.slot], d.seq);
      if (!found) {
        // The body aged out of the sender's history. The horizon bound
        // makes this unreachable for live senders; it can only happen when
        // the sender rebooted and wiped its history mid-flight.
        ++history_misses_;
        obs::count("radio.async.history_misses");
        continue;
      }
      inbox_[d.slot] = found->payload;
      inbox_ver_[d.slot] = d.seq;
    }
    // Prune send histories: anything older than the in-flight horizon can
    // no longer be delivered. The newest entry always survives — it is the
    // relay body for warm re-entry.
    const std::size_t now = async_->round();
    const std::size_t horizon = async_->max_packet_age_rounds();
    const std::size_t cutoff = now > horizon ? now - horizon : 0;
    for (auto& h : history_)
      while (h.size() > 1 && h.front().round < cutoff) h.pop_front();
  }

  [[nodiscard]] const Stored* find(std::size_t sender,
                                   std::uint64_t ver) const noexcept {
    const auto& h = history_[sender];
    // Newest-first scan: deliveries overwhelmingly bind the latest publish.
    for (auto it = h.rbegin(); it != h.rend(); ++it)
      if (it->ver == ver) return &*it;
    return nullptr;
  }

  std::optional<AsyncRadio> async_;
  std::optional<SyncRadio> sync_;
  std::size_t heartbeat_;
  std::size_t ttl_;
  // Receiver-grouped directed CSR: slot offsets_[v] + k carries the link
  // (v's k-th neighbor = sender_[slot] -> v).
  std::vector<std::size_t> offsets_;
  std::vector<std::uint32_t> sender_;
  std::vector<Summary> cur_;  ///< per sender: newest published summary.
  // Sync branch.
  std::vector<Summary> prev_;  ///< per sender: the summary before cur_.
  std::vector<std::size_t> last_heard_;  ///< per slot; only with a TTL.
  std::vector<std::uint32_t> rebooted_;
  bool track_reboots_ = false;
  // Async branch.
  std::vector<std::deque<Stored>> history_;
  std::vector<Payload> inbox_;
  std::vector<std::uint64_t> inbox_ver_;
  std::size_t history_misses_ = 0;
};

}  // namespace bnloc
