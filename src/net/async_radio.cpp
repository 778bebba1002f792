#include "net/async_radio.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "obs/telemetry.hpp"
#include "support/assert.hpp"

namespace bnloc {

namespace {

/// Worst-case in-flight lifetime of one packet, in rounds: transmit phase
/// (< 1) + full backoff ladder at the jittered cap + max latency draw +
/// duty-cycle deferral (< 1), with one round of slack.
double packet_lifetime(const AsyncRadioConfig& c) noexcept {
  const double ladder =
      static_cast<double>(c.max_retries) * c.backoff_cap * 1.25;
  return 1.0 + ladder + c.latency * (1.0 + c.latency_jitter) + 1.0;
}

}  // namespace

std::string AsyncRadioConfig::validate() const {
  if (!(loss >= 0.0 && loss < 1.0)) return "loss must be in [0, 1)";
  // A negative ACK loss means "same as loss", which is checked above.
  if (!(ack_loss < 1.0))
    return "ack_loss must be < 1 (negative means same as loss)";
  if (!(latency >= 0.0 && std::isfinite(latency)))
    return "latency must be finite and >= 0";
  if (!(latency_jitter >= 0.0 && std::isfinite(latency_jitter)))
    return "latency_jitter must be finite and >= 0";
  if (!(duty_cycle > 0.0 && duty_cycle <= 1.0))
    return "duty_cycle must be in (0, 1]";
  if (!(clock_skew >= 0.0 && clock_skew < 1.0))
    return "clock_skew must be in [0, 1)";
  if (!(backoff_base > 0.0)) return "backoff_base must be > 0";
  if (!(backoff_factor >= 1.0)) return "backoff_factor must be >= 1";
  if (!(backoff_cap >= backoff_base && std::isfinite(backoff_cap)))
    return "backoff_cap must be finite and >= backoff_base";
  if (flap_rate > 0.0 && !(flap_downtime > 0.0))
    return "flap_downtime must be > 0 when flap_rate > 0";
  // Events count their attempt in 16 bits; a larger ladder would wrap the
  // count and retry a blocked link forever.
  if (max_retries > std::numeric_limits<std::uint16_t>::max())
    return "max_retries must be <= 65535";
  // The constructor casts the ceiling of the lifetime to a round count.
  if (!(packet_lifetime(*this) <
        std::ldexp(1.0, std::numeric_limits<std::size_t>::digits)))
    return "latency * (1 + latency_jitter) + max_retries * backoff_cap must "
           "keep a packet's lifetime below 2^64 rounds";
  return {};
}

AsyncRadio::AsyncRadio(const Graph& graph, const AsyncRadioConfig& config,
                       Rng rng, std::span<const std::size_t> death_rounds,
                       std::span<const std::size_t> reboot_rounds)
    : graph_(&graph),
      cfg_(config),
      rng_(rng),
      death_rounds_(death_rounds.begin(), death_rounds.end()),
      reboot_rounds_(reboot_rounds.begin(), reboot_rounds.end()) {
  BNLOC_ASSERT_VALID(cfg_);
  ack_loss_ = cfg_.ack_loss < 0.0 ? cfg_.loss : cfg_.ack_loss;
  const std::size_t n = graph.node_count();
  BNLOC_ASSERT(death_rounds_.empty() || death_rounds_.size() == n,
               "death schedule size mismatch");
  BNLOC_ASSERT(reboot_rounds_.empty() || reboot_rounds_.size() == n,
               "reboot schedule size mismatch");
  BNLOC_ASSERT(reboot_rounds_.empty() || !death_rounds_.empty(),
               "reboot schedule requires a death schedule");

  // Receiver-grouped directed CSR, identical to SyncRadio's layout (and to
  // the engines' kernel_offset indexing): slot offsets_[v] + k carries the
  // link (v's k-th neighbor -> v).
  offsets_.resize(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v)
    offsets_[v + 1] = offsets_[v] + graph.degree(v);
  const std::size_t links = offsets_.back();
  slot_sender_.resize(links);
  slot_receiver_.resize(links);
  for (std::size_t v = 0; v < n; ++v) {
    const auto nbs = graph.neighbors(v);
    for (std::size_t k = 0; k < nbs.size(); ++k) {
      const std::size_t slot = offsets_[v] + k;
      slot_sender_[slot] = static_cast<std::uint32_t>(nbs[k].node);
      slot_receiver_[slot] = static_cast<std::uint32_t>(v);
    }
  }
  reverse_ = reverse_slots(graph);
  // Churn state is per undirected link, numbered in first-seen slot order:
  // the flap processes below are seeded (and hashed) in that order.
  slot_link_ = undirected_links(reverse_);
  const auto top = std::max_element(slot_link_.begin(), slot_link_.end());
  link_up_.assign(top == slot_link_.end() ? 0 : *top + 1u, 1);
  accepted_seq_.assign(links, 0);
  accepted_round_.assign(links, 0);

  // Per-node clock phases: drawn before any event randomness so the stream
  // layout is stable under config toggles that follow.
  phase_.assign(n, 0.0);
  if (cfg_.clock_skew > 0.0)
    for (double& p : phase_) p = rng_.uniform(0.0, cfg_.clock_skew);

  // Partition sides (only drawn when a partition is actually scheduled, so
  // partition-free configs keep their random stream unchanged).
  if (cfg_.partition.at_round > 0 && cfg_.partition.duration_rounds > 0) {
    partition_side_.assign(n, 0);
    for (auto& side : partition_side_)
      side = rng_.bernoulli(cfg_.partition.fraction) ? 1 : 0;
  }

  // Seed the churn process: one pending link_down per undirected link.
  if (cfg_.flap_rate > 0.0) {
    for (std::uint32_t link = 0;
         link < static_cast<std::uint32_t>(link_up_.size()); ++link) {
      Event e;
      e.time = rng_.exponential(cfg_.flap_rate);
      e.kind = EventKind::link_down;
      e.slot = link;
      queue_.push(e);
    }
  }

  // The packet lifetime, rounded up with one more round of slack;
  // validate() keeps the cast in range.
  horizon_rounds_ =
      static_cast<std::size_t>(std::ceil(packet_lifetime(cfg_))) + 1;
}

std::size_t AsyncRadio::round_of(double time) noexcept {
  // Round r owns the half-open window (r-1, r]: an event at an exact round
  // boundary belongs to the round that just ended.
  return static_cast<std::size_t>(std::ceil(time));
}

bool AsyncRadio::crashed_at(std::size_t node,
                            std::size_t round) const noexcept {
  if (death_rounds_.empty()) return false;
  if (round <= death_rounds_[node]) return false;
  return reboot_rounds_.empty() || round < reboot_rounds_[node];
}

bool AsyncRadio::crashed(std::size_t node) const noexcept {
  return crashed_at(node, round_);
}

std::size_t AsyncRadio::crashed_count() const noexcept {
  if (death_rounds_.empty()) return 0;
  std::size_t dead = 0;
  for (std::size_t u = 0; u < death_rounds_.size(); ++u)
    if (crashed_at(u, round_)) ++dead;
  return dead;
}

bool AsyncRadio::partition_blocks(std::size_t slot,
                                  std::size_t round) const noexcept {
  if (partition_side_.empty()) return false;
  const PartitionSpec& p = cfg_.partition;
  if (round < p.at_round || round >= p.at_round + p.duration_rounds)
    return false;
  return partition_side_[slot_sender_[slot]] !=
         partition_side_[slot_receiver_[slot]];
}

double AsyncRadio::next_awake(std::size_t node, double t) const noexcept {
  if (cfg_.duty_cycle >= 1.0) return t;
  // Wake window each round: [phase, phase + duty_cycle) in round-local time.
  const double rel = t - phase_[node];
  const double frac = rel - std::floor(rel);
  if (frac < cfg_.duty_cycle) return t;
  return t + (1.0 - frac);
}

double AsyncRadio::backoff_delay(std::uint16_t attempt) noexcept {
  double delay = cfg_.backoff_base;
  for (std::uint16_t i = 0; i < attempt && delay < cfg_.backoff_cap; ++i)
    delay *= cfg_.backoff_factor;
  delay = std::min(delay, cfg_.backoff_cap);
  // +-25% deterministic jitter: desynchronizes retry bursts after a shared
  // outage (partition heal, link flap) without exceeding the cap bound
  // backoff_cap * 1.25 that max_packet_age_rounds() budgets for.
  return delay * (0.75 + 0.5 * rng_.uniform());
}

void AsyncRadio::begin_round() {
  ++round_;
  now_ = static_cast<double>(round_);
  ++stats_.rounds;
  deliveries_.clear();
  rebooted_.clear();
  obs::count("radio.rounds");

  // Reboots happen at the top of the round: the node's RAM (and with it the
  // receiver-side dedup state of its incoming links) is gone, and anything
  // still in flight toward it this round lands on the fresh state.
  if (!reboot_rounds_.empty()) {
    for (std::size_t u = 0; u < reboot_rounds_.size(); ++u) {
      if (reboot_rounds_[u] != round_) continue;
      rebooted_.push_back(static_cast<std::uint32_t>(u));
      for (std::size_t s = offsets_[u]; s < offsets_[u + 1]; ++s) {
        accepted_seq_[s] = 0;
        accepted_round_[s] = 0;
      }
    }
  }

  // Drain everything due in the window (round-1, round]. Events created
  // during processing (retries, deliveries, churn follow-ups) join the
  // queue and are drained in time order if they land inside the same
  // window. The last, failing pop leaves the queue's base at or before
  // now_, where this round's sends will push.
  Event e;
  while (queue_.pop_due(now_, e)) process(e);
}

void AsyncRadio::process(const Event& e) {
  switch (e.kind) {
    case EventKind::attempt:
      process_attempt(e);
      break;
    case EventKind::deliver:
      process_deliver(e);
      break;
    case EventKind::link_down: {
      link_up_[e.slot] = 0;
      fold(e, 1);
      Event up;
      up.time = e.time + rng_.exponential(1.0 / cfg_.flap_downtime);
      up.kind = EventKind::link_up;
      up.slot = e.slot;
      queue_.push(up);
      obs::count("radio.async.link_flaps");
      break;
    }
    case EventKind::link_up: {
      link_up_[e.slot] = 1;
      fold(e, 1);
      Event down;
      down.time = e.time + rng_.exponential(cfg_.flap_rate);
      down.kind = EventKind::link_down;
      down.slot = e.slot;
      queue_.push(down);
      break;
    }
  }
}

void AsyncRadio::process_attempt(const Event& e) {
  const std::size_t at = round_of(e.time);
  const std::size_t sender = slot_sender_[e.slot];
  const std::size_t receiver = slot_receiver_[e.slot];

  // A sender that died mid-ladder stops retrying; the packet is lost.
  if (crashed_at(sender, at)) {
    ++stats_.messages_dropped;
    fold(e, 0);
    obs::count("radio.async.dropped");
    return;
  }

  const bool blocked = link_up_[slot_link_[e.slot]] == 0 ||
                       partition_blocks(e.slot, at) ||
                       crashed_at(receiver, at);
  // The loss draw happens even on blocked links: the channel's randomness
  // must not depend on churn/partition state, or seeds would stop lining up
  // across configs that only differ in those knobs.
  const bool lost = rng_.bernoulli(cfg_.loss);
  if (blocked || lost) {
    fold(e, 0);
    if (e.attempt < cfg_.max_retries) {
      ++stats_.messages_retried;
      stats_.bytes_sent += e.bytes;
      enqueue_attempt(e.slot, e.seq, e.bytes,
                      e.time + backoff_delay(e.attempt),
                      static_cast<std::uint16_t>(e.attempt + 1));
      obs::count("radio.async.retries");
    } else {
      ++stats_.messages_dropped;
      obs::count("radio.async.dropped");
    }
    return;
  }

  // Transmission made it through: schedule the delivery one latency draw
  // later, deferred to the receiver's next duty-cycle wake window.
  fold(e, 1);
  double arrive =
      e.time + cfg_.latency * (1.0 + cfg_.latency_jitter * rng_.uniform());
  arrive = next_awake(receiver, arrive);
  Event d;
  d.time = arrive;
  d.kind = EventKind::deliver;
  d.slot = e.slot;
  d.seq = e.seq;
  d.bytes = e.bytes;
  d.attempt = e.attempt;
  queue_.push(d);

  // Lost ACK: the sender cannot tell a lost packet from a lost ACK, so it
  // retransmits anyway — the receiver will see (and reject) a duplicate.
  if (e.attempt < cfg_.max_retries && rng_.bernoulli(ack_loss_)) {
    ++stats_.messages_retried;
    stats_.bytes_sent += e.bytes;
    enqueue_attempt(e.slot, e.seq, e.bytes, e.time + backoff_delay(e.attempt),
                    static_cast<std::uint16_t>(e.attempt + 1));
    obs::count("radio.async.retries");
  }
}

void AsyncRadio::process_deliver(const Event& e) {
  const std::size_t receiver = slot_receiver_[e.slot];
  // The receiver may have died between transmission and arrival.
  if (crashed_at(receiver, round_of(e.time))) {
    ++stats_.messages_dropped;
    fold(e, 0);
    obs::count("radio.async.dropped");
    return;
  }
  // Sequence gate: only strictly newer summaries are accepted, which kills
  // both duplicates (same seq) and late out-of-order packets (older seq).
  if (e.seq > accepted_seq_[e.slot]) {
    accepted_seq_[e.slot] = e.seq;
    accepted_round_[e.slot] = round_;
    deliveries_.push_back(
        {e.slot, e.seq});
    ++stats_.messages_received;
    fold(e, 1);
    obs::count("radio.async.delivered");
  } else {
    ++stats_.duplicates_rejected;
    fold(e, 0);
    obs::count("radio.async.duplicates");
  }
}

void AsyncRadio::fold(const Event& e, std::uint8_t outcome) {
  // FNV-1a over the processed-event tuple. Folding at processing time (not
  // creation time) means the digest pins down the *history*: order, timing,
  // and outcome of every event the simulation actually executed.
  const auto mix = [this](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (word >> (8 * b)) & 0xffULL;
      hash_ *= 0x00000100000001b3ULL;  // FNV-1a prime
    }
  };
  mix(static_cast<std::uint64_t>(e.kind));
  mix(e.slot);
  mix(e.seq);
  mix(e.attempt);
  mix(std::bit_cast<std::uint64_t>(e.time));
  mix(outcome);
  if (log_) {
    AsyncEventRecord rec;
    rec.time = e.time;
    rec.kind = static_cast<std::uint8_t>(e.kind);
    rec.slot = e.slot;
    rec.seq = e.seq;
    rec.attempt = e.attempt;
    rec.accepted = outcome;
    log_->push_back(rec);
  }
}

void AsyncRadio::enqueue_attempt(std::size_t slot, std::uint64_t seq,
                                 std::size_t bytes, double time,
                                 std::uint16_t attempt) {
  Event e;
  e.time = time;
  e.kind = EventKind::attempt;
  e.slot = static_cast<std::uint32_t>(slot);
  e.seq = seq;
  e.bytes = static_cast<std::uint32_t>(bytes);
  e.attempt = attempt;
  queue_.push(e);
}

void AsyncRadio::send(std::size_t node, std::uint64_t seq, std::size_t bytes) {
  BNLOC_ASSERT(round_ > 0, "send before the first round");
  BNLOC_ASSERT(seq > 0, "sequence numbers start at 1 (0 means none)");
  if (crashed(node)) return;  // a dead node transmits nothing
  ++stats_.messages_sent;
  stats_.bytes_sent += bytes;
  obs::count("radio.broadcasts");
  obs::count("radio.bytes_sent", bytes);
  // One broadcast, one unicast-with-ACK attempt chain per neighbor (the
  // standard WSN link-layer pattern: broadcast data, per-neighbor ACKs), in
  // neighbor order: the reverse of node's incoming slot k carries
  // node -> its k-th neighbor.
  const double at = now_ + phase_[node];
  for (std::size_t s = offsets_[node]; s < offsets_[node + 1]; ++s)
    enqueue_attempt(reverse_[s], seq, bytes, at, 0);
}

void AsyncRadio::relay(std::size_t from, std::size_t to, std::uint64_t seq,
                       std::size_t bytes) {
  BNLOC_ASSERT(round_ > 0, "relay before the first round");
  if (crashed(from) || crashed(to)) return;
  // The (from -> to) link is to's incoming slot for its entry of `from`.
  const auto nbs = graph_->neighbors(to);
  const auto it =
      std::find_if(nbs.begin(), nbs.end(),
                   [from](const Neighbor& nb) { return nb.node == from; });
  if (it == nbs.end()) return;  // not neighbors: nothing to forward on
  ++stats_.messages_sent;
  stats_.bytes_sent += bytes;
  obs::count("radio.async.relays");
  enqueue_attempt(offsets_[to] + static_cast<std::size_t>(it - nbs.begin()),
                  seq, bytes, now_ + phase_[from], 0);
}

}  // namespace bnloc
