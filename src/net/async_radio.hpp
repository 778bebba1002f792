// Event-driven unreliable radio: the transport a deployed WSN actually has.
//
// Where SyncRadio models lockstep broadcast rounds with i.i.d. loss, this
// radio simulates the link layer underneath them: a single virtual-time
// event queue carrying transmission attempts, latency-delayed deliveries,
// ACK-gated retries with capped exponential backoff, link churn, temporary
// partitions, and node crashes *with reboot*. Engines still advance in
// belief-update rounds (one `begin_round` per round), but everything the
// transport does between two rounds — which packets arrived, how late, in
// what order, after how many retransmissions — comes out of the queue.
//
// Model, per published summary:
//  * `send(u, seq, bytes)` fans one broadcast out into one attempt per
//    directed link (u -> v), stamped with the sender's clock phase inside
//    the current round (per-node clock skew).
//  * An attempt fails when the link is flapped down, a partition separates
//    the endpoints, the receiver is dead, or the Bernoulli loss draw says
//    so. A failed attempt schedules a retry after a capped exponential
//    backoff, up to `max_retries`; exhausting retries drops the packet.
//  * A successful attempt schedules a *delivery* one latency draw later,
//    deferred to the receiver's next duty-cycle wake window — this is where
//    out-of-order arrival comes from (a retried old packet can land after
//    a newer one).
//  * The ACK for a successful attempt can itself be lost, in which case the
//    sender retries anyway and the receiver sees a duplicate. Receiver-side
//    sequence numbers reject duplicates and late out-of-order packets:
//    `accepted_seq` per directed link only ever moves forward.
//
// Determinism contract (the threading model's, DESIGN.md section 7): events
// are processed in (time, creation order) order and every random draw
// happens in event-processing order inside `begin_round`, which is always
// called serially by the engines — so a (graph, config, seed) triple
// replays bit-identically at any engine thread count. The queue is a
// monotone radix heap (net/event_queue.hpp) whose buckets are first in,
// first out, so equal times pop in creation order. Its keys never run
// backwards: the radio schedules every event at or after the one being
// processed (latency >= 0, backoff > 0, flap times only grow), and sends
// after the drain push at or after the round's end, which the drain never
// moves the queue past. `event_hash()` folds every processed event
// into one FNV-1a digest; two runs replayed the same history iff the
// hashes match (the chaos-replay CI job and tests/test_async_radio.cpp
// enforce this).
//
// Crash semantics: `death_rounds`/`reboot_rounds` follow SyncRadio — a node
// transmits through its death round, delivers nothing while dead, and is
// back on the air from its reboot round. Rebooting clears the node's
// *receiver-side* sequence state (its RAM is gone); `rebooted_this_round`
// lets the engine run its own cold-restart + store-and-forward re-entry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/adjacency.hpp"
#include "net/comm_stats.hpp"
#include "net/event_queue.hpp"
#include "support/rng.hpp"

namespace bnloc {

/// One temporary network split: for `duration_rounds` starting at
/// `at_round`, links between the two sides deliver nothing (attempts fail
/// and burn their retries). Membership of the isolated side is drawn
/// per node at construction with probability `fraction`.
struct PartitionSpec {
  std::size_t at_round = 0;  ///< first partitioned round; 0 disables.
  std::size_t duration_rounds = 0;
  double fraction = 0.3;  ///< expected fraction of nodes on the cut side.
};

struct AsyncRadioConfig {
  /// Per-attempt delivery failure probability in [0, 1). Unlike SyncRadio's
  /// per-round loss this is per *transmission*: retries make the effective
  /// per-summary loss roughly loss^(max_retries+1).
  double loss = 0.0;
  /// ACK loss probability; a delivered-but-unACKed attempt is retried and
  /// produces a duplicate at the receiver. Negative (default) means "same
  /// as `loss`" — the standard symmetric-channel assumption.
  double ack_loss = -1.0;
  /// Mean one-way delivery latency in round units. Each delivery draws
  /// latency * (1 + latency_jitter * U[0,1)), so `latency` is also the hard
  /// lower bound the tests check.
  double latency = 0.15;
  double latency_jitter = 1.0;
  /// Retry ladder: capped exponential backoff in round units, with a
  /// deterministic +-25% jitter so synchronized losses do not retry in
  /// lockstep. At most 65,535: attempts are counted in 16 bits.
  std::size_t max_retries = 4;
  double backoff_base = 0.2;
  double backoff_factor = 2.0;
  double backoff_cap = 1.5;
  /// Fraction of each round the receiver radio is awake, in (0, 1].
  /// Deliveries landing in the sleep window are held (store-and-forward at
  /// the MAC) until the receiver's next wake instant.
  double duty_cycle = 1.0;
  /// Per-node clock phase spread as a fraction of a round: node phases are
  /// drawn uniformly from [0, clock_skew). The phase staggers both the
  /// node's transmit slot within a round and its duty-cycle wake window.
  double clock_skew = 0.0;
  /// Link churn: expected link-down events per undirected link per round;
  /// a downed link stays down for an Exp(mean flap_downtime) stretch.
  double flap_rate = 0.0;
  double flap_downtime = 1.0;
  PartitionSpec partition;

  /// Empty when AsyncRadio accepts this config, else the reason.
  [[nodiscard]] std::string validate() const;
};

/// One accepted delivery, as `deliveries()` reports it: the receiver-side
/// directed CSR slot (same indexing as the engines' kernel_offset tables)
/// and the accepted sequence number.
struct AsyncDelivery {
  std::uint32_t slot = 0;
  std::uint64_t seq = 0;
};

/// Processed-event record for tests (`set_event_log`).
struct AsyncEventRecord {
  double time = 0.0;
  std::uint8_t kind = 0;  ///< 0 attempt, 1 deliver, 2 link_down, 3 link_up.
  std::uint32_t slot = 0;
  std::uint64_t seq = 0;
  std::uint16_t attempt = 0;
  std::uint8_t accepted = 0;  ///< deliver events: 1 accepted, 0 rejected.
};

class AsyncRadio {
 public:
  AsyncRadio(const Graph& graph, const AsyncRadioConfig& config, Rng rng,
             std::span<const std::size_t> death_rounds = {},
             std::span<const std::size_t> reboot_rounds = {});

  /// Advance the virtual clock by one round and drain every event due by
  /// its end: attempts transmit (or fail and re-queue), deliveries land,
  /// links flap. Must be called serially — this is where all randomness
  /// happens, which is what makes replay thread-count-independent.
  void begin_round();

  /// Broadcast summary `seq` from `node` to every neighbor. `seq` must be
  /// strictly increasing per sender (it is the receiver-side dedup key). A
  /// crashed node transmits nothing.
  void send(std::size_t node, std::uint64_t seq, std::size_t bytes);

  /// Point-to-point store-and-forward re-send (warm re-entry relays): one
  /// unicast attempt chain on the (from -> to) link. No-op if either end is
  /// crashed or they are not neighbors.
  void relay(std::size_t from, std::size_t to, std::uint64_t seq,
             std::size_t bytes);

  /// Deliveries *accepted* during the round just begun, in processing
  /// order. Duplicates and late out-of-order packets are already rejected.
  [[nodiscard]] std::span<const AsyncDelivery> deliveries() const noexcept {
    return deliveries_;
  }

  /// Nodes whose reboot round is the round just begun (engine hook for
  /// cold-restart bookkeeping and re-entry relays).
  [[nodiscard]] std::span<const std::uint32_t> rebooted_this_round()
      const noexcept {
    return rebooted_;
  }

  [[nodiscard]] bool crashed(std::size_t node) const noexcept;
  [[nodiscard]] std::size_t crashed_count() const noexcept;
  [[nodiscard]] std::size_t round() const noexcept { return round_; }

  /// Receiver-side directed CSR slot of the k-th neighbor of `receiver`
  /// (aligned with Graph neighbor order, same as SyncRadio and the engines'
  /// kernel_offset indexing).
  [[nodiscard]] std::size_t slot(std::size_t receiver,
                                 std::size_t k) const noexcept {
    return offsets_[receiver] + k;
  }
  [[nodiscard]] std::size_t link_count() const noexcept {
    return offsets_.back();
  }
  [[nodiscard]] std::size_t incoming_begin(std::size_t node) const noexcept {
    return offsets_[node];
  }
  [[nodiscard]] std::size_t incoming_end(std::size_t node) const noexcept {
    return offsets_[node + 1];
  }

  /// Newest sequence number accepted on a directed slot (0 = none yet) and
  /// the round it was accepted in.
  [[nodiscard]] std::uint64_t accepted_seq(std::size_t slot) const noexcept {
    return accepted_seq_[slot];
  }
  [[nodiscard]] std::size_t accepted_round(std::size_t slot) const noexcept {
    return accepted_round_[slot];
  }

  [[nodiscard]] const CommStats& stats() const noexcept { return stats_; }

  /// FNV-1a digest over every processed event (kind, slot, seq, attempt,
  /// time bits, outcome). Equal hashes <=> identical replayed histories.
  [[nodiscard]] std::uint64_t event_hash() const noexcept { return hash_; }

  /// Upper bound, in rounds, on how long after its send a packet can still
  /// be in flight (tx phase + worst-case backoff ladder + max latency +
  /// duty-cycle deferral). Payload stores use this as their pruning
  /// horizon: anything older can never be delivered.
  [[nodiscard]] std::size_t max_packet_age_rounds() const noexcept {
    return horizon_rounds_;
  }

  /// Test hook: record every processed event into `log` (nullptr stops).
  void set_event_log(std::vector<AsyncEventRecord>* log) noexcept {
    log_ = log;
  }

 private:
  enum class EventKind : std::uint8_t {
    attempt = 0,
    deliver = 1,
    link_down = 2,
    link_up = 3,
  };

  struct Event {
    double time = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;  ///< directed slot (attempt/deliver), undirected
                             ///< link index (link_down/link_up).
    std::uint32_t bytes = 0;
    std::uint16_t attempt = 0;
    EventKind kind = EventKind::attempt;
  };

  void process(const Event& e);
  void process_attempt(const Event& e);
  void process_deliver(const Event& e);
  void fold(const Event& e, std::uint8_t outcome);
  void enqueue_attempt(std::size_t slot, std::uint64_t seq, std::size_t bytes,
                       double time, std::uint16_t attempt);

  [[nodiscard]] static std::size_t round_of(double time) noexcept;
  [[nodiscard]] bool crashed_at(std::size_t node,
                                std::size_t round) const noexcept;
  [[nodiscard]] bool partition_blocks(std::size_t slot,
                                      std::size_t round) const noexcept;
  [[nodiscard]] double next_awake(std::size_t node, double t) const noexcept;
  [[nodiscard]] double backoff_delay(std::uint16_t attempt) noexcept;

  const Graph* graph_;
  AsyncRadioConfig cfg_;
  double ack_loss_ = 0.0;
  Rng rng_;

  // Receiver-grouped directed CSR (slot k of receiver v = v's k-th
  // neighbor), plus the reverse slots send() fans out through.
  std::vector<std::size_t> offsets_;
  std::vector<std::uint32_t> slot_sender_;
  std::vector<std::uint32_t> slot_receiver_;
  std::vector<std::uint32_t> reverse_;

  // Undirected link index for churn state (both directions share it).
  std::vector<std::uint32_t> slot_link_;
  std::vector<unsigned char> link_up_;

  std::vector<double> phase_;  ///< per-node clock phase in [0, 1).
  std::vector<unsigned char> partition_side_;
  std::vector<std::size_t> death_rounds_;
  std::vector<std::size_t> reboot_rounds_;

  EventQueue<Event> queue_;

  std::vector<std::uint64_t> accepted_seq_;
  std::vector<std::size_t> accepted_round_;
  std::vector<AsyncDelivery> deliveries_;
  std::vector<std::uint32_t> rebooted_;

  CommStats stats_;
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;  ///< FNV-1a offset basis.
  std::size_t horizon_rounds_ = 0;
  std::size_t round_ = 0;
  double now_ = 0.0;
  std::vector<AsyncEventRecord>* log_ = nullptr;
};

}  // namespace bnloc
