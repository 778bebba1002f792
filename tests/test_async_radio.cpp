// Property tests for the event-driven unreliable radio
// (net/async_radio.hpp) and the engines' async degradation ladder. The
// payload side of the async transport is covered in test_transport.cpp.
#include "net/async_radio.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/gaussian_bncl.hpp"
#include "core/grid_bncl.hpp"
#include "core/particle_bncl.hpp"
#include "eval/metrics.hpp"
#include "fault/fault.hpp"  // kNeverCrashes
#include "net/transport.hpp"

namespace bnloc {
namespace {

Graph triangle() {
  const std::vector<Edge> edges = {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}};
  return Graph(3, edges);
}

Graph ring(std::size_t n) {
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < n; ++i)
    edges.push_back({i, (i + 1) % n, 1.0});
  return Graph(n, edges);
}

/// Unit-disk graph over `n` seeded points of a 1000 x 1000 lattice. The
/// coordinates are integers, so the edge set is exact on every platform.
Graph random_graph(std::size_t n, std::int64_t radius, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int64_t> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<std::int64_t>(rng.uniform_index(1000));
    y[i] = static_cast<std::int64_t>(rng.uniform_index(1000));
  }
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::int64_t dx = x[i] - x[j];
      const std::int64_t dy = y[i] - y[j];
      if (dx * dx + dy * dy <= radius * radius) edges.push_back({i, j, 1.0});
    }
  return Graph(n, edges);
}

/// The kitchen-sink hostile link layer the replay tests drive.
AsyncRadioConfig hostile_config() {
  AsyncRadioConfig cfg;
  cfg.loss = 0.25;
  cfg.latency = 0.2;
  cfg.latency_jitter = 1.5;
  cfg.max_retries = 3;
  cfg.duty_cycle = 0.6;
  cfg.clock_skew = 0.4;
  cfg.flap_rate = 0.1;
  cfg.flap_downtime = 0.8;
  cfg.partition = {.at_round = 6, .duration_rounds = 4, .fraction = 0.4};
  return cfg;
}

TEST(AsyncRadio, LosslessBroadcastReachesEveryNeighborNextRound) {
  const Graph g = triangle();
  AsyncRadioConfig cfg;
  cfg.loss = 0.0;
  cfg.latency = 0.15;
  AsyncRadio radio(g, cfg, Rng(1));
  radio.begin_round();
  for (std::size_t u = 0; u < 3; ++u) radio.send(u, 1, 10);
  radio.begin_round();
  // Six directed links, each accepting seq 1.
  EXPECT_EQ(radio.deliveries().size(), 6u);
  for (const AsyncDelivery& d : radio.deliveries()) EXPECT_EQ(d.seq, 1u);
  std::set<std::uint32_t> slots;
  for (const AsyncDelivery& d : radio.deliveries()) slots.insert(d.slot);
  EXPECT_EQ(slots.size(), 6u);
}

TEST(AsyncRadio, ReplayIsBitIdenticalForSameSeed) {
  const Graph g = ring(10);
  AsyncRadio a(g, hostile_config(), Rng(42));
  AsyncRadio b(g, hostile_config(), Rng(42));
  for (std::size_t round = 1; round <= 30; ++round) {
    a.begin_round();
    b.begin_round();
    ASSERT_EQ(a.deliveries().size(), b.deliveries().size());
    for (std::size_t i = 0; i < a.deliveries().size(); ++i) {
      EXPECT_EQ(a.deliveries()[i].slot, b.deliveries()[i].slot);
      EXPECT_EQ(a.deliveries()[i].seq, b.deliveries()[i].seq);
    }
    for (std::size_t u = 0; u < 10; ++u) {
      a.send(u, round, 16);
      b.send(u, round, 16);
    }
    EXPECT_EQ(a.event_hash(), b.event_hash());
  }
  EXPECT_EQ(a.stats().messages_received, b.stats().messages_received);
  EXPECT_EQ(a.stats().messages_retried, b.stats().messages_retried);
  EXPECT_EQ(a.stats().messages_dropped, b.stats().messages_dropped);
}

TEST(AsyncRadio, DifferentSeedsProduceDifferentHistories) {
  const Graph g = ring(10);
  AsyncRadio a(g, hostile_config(), Rng(1));
  AsyncRadio b(g, hostile_config(), Rng(2));
  for (std::size_t round = 1; round <= 10; ++round) {
    a.begin_round();
    b.begin_round();
    for (std::size_t u = 0; u < 10; ++u) {
      a.send(u, round, 16);
      b.send(u, round, 16);
    }
  }
  EXPECT_NE(a.event_hash(), b.event_hash());
}

TEST(AsyncRadio, LatencyIsAHardLowerBound) {
  const Graph g = triangle();
  AsyncRadioConfig cfg;
  cfg.loss = 0.0;
  cfg.latency = 0.4;
  cfg.latency_jitter = 1.0;
  cfg.max_retries = 0;
  cfg.ack_loss = 0.0;
  AsyncRadio radio(g, cfg, Rng(7));
  std::vector<AsyncEventRecord> log;
  radio.set_event_log(&log);
  for (std::size_t round = 1; round <= 20; ++round) {
    radio.begin_round();
    for (std::size_t u = 0; u < 3; ++u) radio.send(u, round, 8);
  }
  radio.begin_round();  // flush the last round's deliveries
  // With retries off, every delivery pairs with exactly one attempt on the
  // same (slot, seq); the gap is the latency draw, whose floor is `latency`.
  std::map<std::pair<std::uint32_t, std::uint64_t>, double> attempt_time;
  std::size_t delivers = 0;
  for (const AsyncEventRecord& e : log) {
    const auto key = std::make_pair(e.slot, e.seq);
    if (e.kind == 0) {
      attempt_time[key] = e.time;
    } else if (e.kind == 1) {
      ASSERT_TRUE(attempt_time.count(key));
      EXPECT_GE(e.time - attempt_time[key], cfg.latency - 1e-12);
      EXPECT_LE(e.time - attempt_time[key],
                cfg.latency * (1.0 + cfg.latency_jitter) + 1e-12);
      ++delivers;
    }
  }
  EXPECT_GT(delivers, 100u);
}

TEST(AsyncRadio, BackoffDelaysAreCappedAndGrow) {
  const Graph g = triangle();
  AsyncRadioConfig cfg;
  cfg.loss = 0.85;  // nearly every attempt retries
  cfg.max_retries = 6;
  cfg.backoff_base = 0.1;
  cfg.backoff_factor = 2.0;
  cfg.backoff_cap = 0.6;
  AsyncRadio radio(g, cfg, Rng(9));
  std::vector<AsyncEventRecord> log;
  radio.set_event_log(&log);
  for (std::size_t round = 1; round <= 40; ++round) {
    radio.begin_round();
    for (std::size_t u = 0; u < 3; ++u) radio.send(u, round, 8);
  }
  for (std::size_t r = 0; r < 10; ++r) radio.begin_round();  // drain
  // Consecutive attempts of one packet are separated by the jittered
  // backoff: at most cap * 1.25, and the first retry at least base * 0.75.
  std::map<std::pair<std::uint32_t, std::uint64_t>, double> last_attempt;
  std::size_t retries_seen = 0;
  for (const AsyncEventRecord& e : log) {
    if (e.kind != 0) continue;
    const auto key = std::make_pair(e.slot, e.seq);
    if (e.attempt > 0) {
      ASSERT_TRUE(last_attempt.count(key));
      const double gap = e.time - last_attempt[key];
      EXPECT_GE(gap, cfg.backoff_base * 0.75 - 1e-12);
      EXPECT_LE(gap, cfg.backoff_cap * 1.25 + 1e-12);
      ++retries_seen;
    }
    last_attempt[key] = e.time;
  }
  EXPECT_GT(retries_seen, 200u);
  EXPECT_GT(radio.stats().messages_dropped, 0u);
}

TEST(AsyncRadio, DuplicatesAreRejectedNeverDoubleApplied) {
  const Graph g = triangle();
  AsyncRadioConfig cfg;
  cfg.loss = 0.0;
  cfg.ack_loss = 0.7;  // deliveries succeed but ACKs vanish: duplicates
  cfg.max_retries = 4;
  AsyncRadio radio(g, cfg, Rng(11));
  std::set<std::pair<std::uint32_t, std::uint64_t>> accepted;
  std::vector<std::uint64_t> last_seq(radio.link_count(), 0);
  for (std::size_t round = 1; round <= 60; ++round) {
    radio.begin_round();
    for (const AsyncDelivery& d : radio.deliveries()) {
      // Each (slot, seq) is applied exactly once, in increasing seq order.
      EXPECT_TRUE(accepted.insert({d.slot, d.seq}).second);
      EXPECT_GT(d.seq, last_seq[d.slot]);
      last_seq[d.slot] = d.seq;
    }
    for (std::size_t u = 0; u < 3; ++u) radio.send(u, round, 8);
  }
  EXPECT_GT(radio.stats().duplicates_rejected, 0u);
}

TEST(AsyncRadio, RetriesRecoverMostLosses) {
  // Per-attempt loss 0.5 with 5 retries leaves ~1.6% of packets truly
  // dropped; a slow retry can additionally be superseded by the next
  // round's newer seq (correct dedup, not a loss). The acceptance rate must
  // therefore sit far above the retry-free 50%, and the retry-free radio
  // far below it.
  const Graph g = triangle();
  const auto run = [&](std::size_t max_retries) {
    AsyncRadioConfig cfg;
    cfg.loss = 0.5;
    cfg.max_retries = max_retries;
    AsyncRadio radio(g, cfg, Rng(13));
    std::size_t accepted = 0;
    const std::size_t rounds = 400;
    for (std::size_t round = 1; round <= rounds; ++round) {
      radio.begin_round();
      accepted += radio.deliveries().size();
      for (std::size_t u = 0; u < 3; ++u) radio.send(u, round, 8);
    }
    for (std::size_t r = 0; r < 10; ++r) {
      radio.begin_round();
      accepted += radio.deliveries().size();
    }
    EXPECT_EQ(radio.stats().messages_retried > 0, max_retries > 0);
    return static_cast<double>(accepted) / static_cast<double>(6 * rounds);
  };
  const double with_retries = run(5);
  const double without = run(0);
  EXPECT_GT(with_retries, 0.85);
  EXPECT_NEAR(without, 0.5, 0.05);
  EXPECT_GT(with_retries, without + 0.25);
}

TEST(AsyncRadio, DutyCycleDefersDeliveriesIntoWakeWindows) {
  const Graph g = ring(8);
  AsyncRadioConfig cfg;
  cfg.loss = 0.0;
  cfg.latency = 0.3;
  cfg.latency_jitter = 2.0;
  cfg.duty_cycle = 0.25;  // wake window [0, 0.25) of each round
  AsyncRadio radio(g, cfg, Rng(17));
  std::vector<AsyncEventRecord> log;
  radio.set_event_log(&log);
  for (std::size_t round = 1; round <= 30; ++round) {
    radio.begin_round();
    for (std::size_t u = 0; u < 8; ++u) radio.send(u, round, 8);
  }
  radio.begin_round();
  std::size_t delivers = 0;
  for (const AsyncEventRecord& e : log) {
    if (e.kind != 1) continue;
    const double frac = e.time - std::floor(e.time);
    EXPECT_LE(frac, cfg.duty_cycle + 1e-9);
    ++delivers;
  }
  EXPECT_GT(delivers, 100u);
}

TEST(AsyncRadio, PartitionBlocksCrossTrafficThenHeals) {
  const Graph g = ring(12);
  AsyncRadioConfig cfg;
  cfg.loss = 0.0;
  cfg.latency = 0.1;
  cfg.max_retries = 1;
  cfg.partition = {.at_round = 5, .duration_rounds = 5, .fraction = 0.5};
  AsyncRadio radio(g, cfg, Rng(23));
  std::vector<std::size_t> per_round;
  for (std::size_t round = 1; round <= 20; ++round) {
    radio.begin_round();
    per_round.push_back(radio.deliveries().size());
    for (std::size_t u = 0; u < 12; ++u) radio.send(u, round, 8);
  }
  // Steady state before the cut: all 24 directed links deliver each round.
  EXPECT_EQ(per_round[3], 24u);
  // During the partition some cross-cut links must be blocked (with
  // fraction 0.5 on a 12-ring, both sides are non-empty w.h.p. for this
  // seed; drops burn their single retry and die).
  std::size_t during = 0, healed = 0;
  for (std::size_t r = 6; r <= 9; ++r) during += per_round[r - 1];
  EXPECT_LT(during, 4 * 24u);
  EXPECT_GT(radio.stats().messages_dropped, 0u);
  // After the heal (+ in-flight horizon) every link carries traffic again.
  for (std::size_t r = 14; r <= 20; ++r) healed += per_round[r - 1];
  EXPECT_EQ(healed, 7 * 24u);
}

TEST(AsyncRadio, RebootClearsReceiverStateAndReportsTheNode) {
  const Graph g = triangle();
  AsyncRadioConfig cfg;
  cfg.loss = 0.0;
  cfg.latency = 0.1;
  const std::vector<std::size_t> deaths = {2, kNeverCrashes, kNeverCrashes};
  const std::vector<std::size_t> reboots = {5, kNeverCrashes, kNeverCrashes};
  AsyncRadio radio(g, cfg, Rng(3), deaths, reboots);
  for (std::size_t round = 1; round <= 8; ++round) {
    radio.begin_round();
    if (round == 3 || round == 4) {
      EXPECT_TRUE(radio.crashed(0));
      EXPECT_EQ(radio.crashed_count(), 1u);
    } else {
      EXPECT_FALSE(radio.crashed(0));
    }
    if (round == 5) {
      ASSERT_EQ(radio.rebooted_this_round().size(), 1u);
      EXPECT_EQ(radio.rebooted_this_round()[0], 0u);
      // RAM is gone: pre-crash sequence state (seqs 1-2, accepted in rounds
      // <= 2) was wiped before the round's events drained. Anything present
      // now is a fresh post-reboot acceptance of an in-flight packet.
      for (std::size_t s = radio.incoming_begin(0);
           s < radio.incoming_end(0); ++s) {
        EXPECT_TRUE(radio.accepted_seq(s) == 0 || radio.accepted_seq(s) >= 4);
        EXPECT_TRUE(radio.accepted_round(s) == 0 ||
                    radio.accepted_round(s) == 5);
      }
    } else {
      EXPECT_TRUE(radio.rebooted_this_round().empty());
    }
    for (std::size_t u = 0; u < 3; ++u) radio.send(u, round, 8);
  }
  // Back on the air: node 0 heard its neighbors again after the reboot.
  for (std::size_t s = radio.incoming_begin(0); s < radio.incoming_end(0);
       ++s)
    EXPECT_GT(radio.accepted_seq(s), 5u);
}

TEST(AsyncRadio, HostileReplayMatchesTheRecordedEventHash) {
  // Every hostile feature at once: per-attempt and ACK loss, link flaps, a
  // partition, duty cycling, clock skew, crash with and without reboot, and
  // store-and-forward relays toward rebooted nodes. The digest and counters
  // are fixed values: any change to the event order, a random draw, or a
  // slot or link numbering changes them.
  const Graph g = random_graph(36, 300, 2024);
  AsyncRadioConfig cfg;
  cfg.loss = 0.2;
  cfg.ack_loss = 0.3;
  cfg.latency = 0.2;
  cfg.latency_jitter = 1.5;
  cfg.max_retries = 3;
  cfg.duty_cycle = 0.6;
  cfg.clock_skew = 0.4;
  cfg.flap_rate = 0.05;
  cfg.flap_downtime = 0.8;
  cfg.partition = {.at_round = 8, .duration_rounds = 5, .fraction = 0.35};
  std::vector<std::size_t> deaths(36, kNeverCrashes);
  std::vector<std::size_t> reboots(36, kNeverCrashes);
  for (std::size_t u = 0; u < 36; u += 5) {
    deaths[u] = 4 + u % 7;
    if (u % 10 == 0) reboots[u] = deaths[u] + 3 + u % 4;
  }
  AsyncRadio radio(g, cfg, Rng(77), deaths, reboots);
  std::vector<AsyncEventRecord> log;
  radio.set_event_log(&log);
  std::size_t relays = 0;
  for (std::size_t round = 1; round <= 52; ++round) {
    radio.begin_round();
    if (round > 40) continue;  // drain the tail
    for (const std::uint32_t r : radio.rebooted_this_round())
      for (const Neighbor& nb : g.neighbors(r)) {
        radio.relay(nb.node, r, round - 1, 24);
        ++relays;
      }
    for (std::size_t u = 0; u < 36; ++u) radio.send(u, round, 24);
  }
  ASSERT_GT(relays, 0u);
  ASSERT_TRUE(std::any_of(log.begin(), log.end(), [](const auto& e) {
    return e.kind == 2;  // a link went down
  }));
  EXPECT_EQ(log.size(), 32785u);
  EXPECT_EQ(radio.event_hash(), 0x3a4188713eb10087ULL);
  EXPECT_EQ(radio.stats().messages_sent, 1322u);
  EXPECT_EQ(radio.stats().messages_received, 8276u);
  EXPECT_EQ(radio.stats().messages_retried, 10666u);
  EXPECT_EQ(radio.stats().messages_dropped, 1570u);
  EXPECT_EQ(radio.stats().duplicates_rejected, 3287u);
}

TEST(AsyncRadio, MaxRetriesIsBoundedByTheSixteenBitAttemptCount) {
  // Attempts are counted in 16 bits: a longer ladder would wrap the count
  // to 0 and retry a blocked link forever.
  AsyncRadioConfig cfg;
  cfg.max_retries = 65535;
  EXPECT_EQ(cfg.validate(), "");
  cfg.max_retries = 65536;
  EXPECT_NE(cfg.validate().find("max_retries"), std::string::npos)
      << cfg.validate();
  TransportConfig transport;
  transport.async = true;
  transport.radio = cfg;
  EXPECT_NE(transport.validate().find("radio.max_retries"), std::string::npos);
}

TEST(AsyncRadio, ReverseSlotsMatchTheDirectedPairMaps) {
  // reverse_slots and undirected_links replace two hash maps: directed pair
  // (from, to) -> first slot carrying it, and unordered pair -> link index
  // in first-seen slot order. Rebuild those maps here and compare, on
  // random graphs with shuffled edge order and orientation, and with some
  // parallel edges.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const std::size_t n = 5 + rng.uniform_index(60);
    std::vector<Edge> edges;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        if (rng.bernoulli(0.2)) edges.push_back({i, j, 1.0});
    const std::size_t parallel = seed % 3 == 0 ? edges.size() / 10 : 0;
    for (std::size_t p = 0; p < parallel; ++p)
      edges.push_back(edges[rng.uniform_index(edges.size())]);
    for (std::size_t i = edges.size(); i > 1; --i)
      std::swap(edges[i - 1], edges[rng.uniform_index(i)]);
    for (Edge& e : edges)
      if (rng.bernoulli(0.5)) std::swap(e.u, e.v);
    const Graph g(n, edges);

    std::map<std::pair<std::size_t, std::size_t>, std::size_t> slot_of;
    std::map<std::pair<std::size_t, std::size_t>, std::uint32_t> undirected;
    std::vector<std::uint32_t> want_link;
    std::size_t slot = 0;
    for (std::size_t v = 0; v < n; ++v)
      for (const Neighbor& nb : g.neighbors(v)) {
        slot_of.emplace(std::make_pair(nb.node, v), slot++);
        const auto key =
            std::make_pair(std::min(nb.node, v), std::max(nb.node, v));
        const auto id = static_cast<std::uint32_t>(undirected.size());
        want_link.push_back(undirected.emplace(key, id).first->second);
      }

    const std::vector<std::uint32_t> reverse = reverse_slots(g);
    ASSERT_EQ(reverse.size(), slot);
    slot = 0;
    for (std::size_t v = 0; v < n; ++v)
      for (const Neighbor& nb : g.neighbors(v))
        EXPECT_EQ(reverse[slot++], slot_of.at({v, nb.node}));
    EXPECT_EQ(undirected_links(reverse), want_link);
  }
}

// ---------------------------------------------------------------------------
// Engine-level properties of the async degradation ladder.

ScenarioConfig engine_scenario(std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.node_count = 120;
  cfg.anchor_fraction = 0.12;
  cfg.deployment.kind = DeploymentKind::grid_jitter;
  cfg.prior_quality = PriorQuality::exact;
  cfg.seed = seed;
  return cfg;
}

/// Hostility mix from the acceptance criteria: 10% per-attempt loss,
/// nonzero latency, a partition that heals, and crash-with-reboot.
GridBnclConfig hostile_grid_config() {
  GridBnclConfig cfg;
  cfg.transport.async = true;
  cfg.transport.radio.loss = 0.1;
  cfg.transport.radio.latency = 0.25;
  cfg.transport.radio.partition = {
      .at_round = 8, .duration_rounds = 4, .fraction = 0.3};
  cfg.iteration.max_iterations = 40;
  cfg.robustness.stale_ttl = 6;
  cfg.robustness.update_quorum = 0.4;
  return cfg;
}

ScenarioConfig crash_reboot_scenario(std::uint64_t seed) {
  ScenarioConfig cfg = engine_scenario(seed);
  cfg.faults.crash_fraction = 0.1;
  cfg.faults.crash_round_min = 4;
  cfg.faults.crash_round_max = 10;
  cfg.faults.reboot_fraction = 1.0;
  cfg.faults.reboot_delay_min = 3;
  cfg.faults.reboot_delay_max = 8;
  return cfg;
}

TEST(AsyncEngines, GridLocalizesOnCleanAsyncTransport) {
  const Scenario s = build_scenario(engine_scenario(41));
  GridBnclConfig cfg;
  cfg.transport.async = true;
  GridBncl engine(cfg);
  EXPECT_EQ(engine.name(), "bncl-grid-async");
  Rng rng(1);
  const auto r = engine.localize(s, rng);
  const ErrorReport report = evaluate(s, r);
  EXPECT_DOUBLE_EQ(report.coverage, 1.0);
  EXPECT_LT(report.summary.mean, 0.5);
  EXPECT_NE(r.transport_hash, 0u);
  EXPECT_GT(r.comm.messages_received, 0u);
}

TEST(AsyncEngines, GaussianAndParticleRideTheAsyncTransport) {
  const Scenario s = build_scenario(engine_scenario(43));
  {
    GaussianBnclConfig cfg;
    cfg.transport.async = true;
    cfg.transport.radio.loss = 0.1;
    GaussianBncl engine(cfg);
    EXPECT_EQ(engine.name(), "bncl-gauss-async");
    Rng rng(2);
    const auto r = engine.localize(s, rng);
    const ErrorReport report = evaluate(s, r);
    EXPECT_DOUBLE_EQ(report.coverage, 1.0);
    EXPECT_LT(report.summary.mean, 0.5);
    EXPECT_NE(r.transport_hash, 0u);
  }
  {
    ParticleBnclConfig cfg;
    cfg.transport.async = true;
    cfg.transport.radio.loss = 0.1;
    ParticleBncl engine(cfg);
    EXPECT_EQ(engine.name(), "bncl-particle-async");
    Rng rng(3);
    const auto r = engine.localize(s, rng);
    const ErrorReport report = evaluate(s, r);
    EXPECT_DOUBLE_EQ(report.coverage, 1.0);
    EXPECT_LT(report.summary.mean, 0.8);
    EXPECT_NE(r.transport_hash, 0u);
  }
}

// Regression: the quorum gate must measure reachability against neighbors
// *ever heard from*, never the full adjacency list. With no pre-knowledge
// nobody passes the informative-coverage publish gate in round one, so a
// whole-neighborhood quorum would hold every node, which keeps every node
// uninformative — a deadlock that parked the mean error at the prior
// (~2 R on this scenario) until the denominator was fixed.
TEST(AsyncEngines, QuorumGateNeverStallsDiffusePriorBootstrap) {
  ScenarioConfig sc = engine_scenario(47);
  sc.prior_quality = PriorQuality::none;
  const Scenario s = build_scenario(sc);

  const auto grid_mean = [&](bool async, double quorum) {
    GridBnclConfig cfg;
    cfg.transport.async = async;
    if (async) cfg.transport.radio.loss = 0.1;
    cfg.iteration.max_iterations = 40;
    cfg.robustness.stale_ttl = 6;
    cfg.robustness.update_quorum = quorum;
    Rng rng(5);
    return evaluate(s, GridBncl(cfg).localize(s, rng)).summary.mean;
  };
  // The gate may cost a little accuracy on a healthy network, but it must
  // never keep the bootstrap from happening at all.
  EXPECT_LT(grid_mean(true, 0.4), 1.25 * grid_mean(true, 0.0));
  EXPECT_LT(grid_mean(false, 0.4), 1.25 * grid_mean(false, 0.0));

  {
    GaussianBnclConfig cfg;
    cfg.transport.async = true;
    cfg.iteration.max_iterations = 40;
    cfg.robustness.stale_ttl = 6;
    cfg.robustness.update_quorum = 0.4;
    Rng rng(6);
    const auto rq = GaussianBncl(cfg).localize(s, rng);
    GaussianBnclConfig base = cfg;
    base.robustness.update_quorum = 0.0;
    Rng rng2(6);
    const auto r0 = GaussianBncl(base).localize(s, rng2);
    EXPECT_LT(evaluate(s, rq).summary.mean,
              1.25 * evaluate(s, r0).summary.mean);
  }
  {
    ParticleBnclConfig cfg;
    cfg.transport.async = true;
    cfg.robustness.stale_ttl = 6;
    cfg.robustness.update_quorum = 0.4;
    Rng rng(7);
    const auto rq = ParticleBncl(cfg).localize(s, rng);
    ParticleBnclConfig base = cfg;
    base.robustness.update_quorum = 0.0;
    Rng rng2(7);
    const auto r0 = ParticleBncl(base).localize(s, rng2);
    EXPECT_LT(evaluate(s, rq).summary.mean,
              1.25 * evaluate(s, r0).summary.mean);
  }
}

TEST(AsyncEngines, ThreadCountNeverChangesTheReplay) {
  // The chaos-replay property: all transport randomness is drawn serially
  // in begin_round, so 1 worker thread and 4 must produce bit-identical
  // estimates AND an identical transport event history.
  const Scenario s = build_scenario(crash_reboot_scenario(44));
  GridBnclConfig serial_cfg = hostile_grid_config();
  GridBnclConfig par_cfg = hostile_grid_config();
  serial_cfg.threads = 1;
  par_cfg.threads = 4;
  Rng r1(6), r2(6);
  const auto a = GridBncl(serial_cfg).localize(s, r1);
  const auto b = GridBncl(par_cfg).localize(s, r2);
  ASSERT_NE(a.transport_hash, 0u);
  EXPECT_EQ(a.transport_hash, b.transport_hash);
  EXPECT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.estimates.size(), b.estimates.size());
  for (std::size_t i = 0; i < a.estimates.size(); ++i) {
    ASSERT_EQ(a.estimates[i].has_value(), b.estimates[i].has_value());
    if (a.estimates[i]) {
      EXPECT_DOUBLE_EQ(a.estimates[i]->x, b.estimates[i]->x);
      EXPECT_DOUBLE_EQ(a.estimates[i]->y, b.estimates[i]->y);
    }
  }
  EXPECT_EQ(a.comm.messages_received, b.comm.messages_received);
  EXPECT_EQ(a.comm.messages_retried, b.comm.messages_retried);
  EXPECT_EQ(a.comm.duplicates_rejected, b.comm.duplicates_rejected);
}

TEST(AsyncEngines, RebootedNodesRelocalize) {
  // Crash-with-reboot under the full degradation ladder: every crashed node
  // comes back, cold-restarts from its prior, is re-seeded by relays, and
  // must end the run localized about as well as the never-crashed nodes.
  const Scenario s = build_scenario(crash_reboot_scenario(45));
  std::size_t rebooted = 0;
  for (std::size_t i = 0; i < s.node_count(); ++i)
    if (s.faults.reboot_round[i] != kNeverCrashes) ++rebooted;
  ASSERT_GT(rebooted, 0u);
  GridBncl engine(hostile_grid_config());
  Rng rng(7);
  const auto r = engine.localize(s, rng);
  const ErrorReport report = evaluate(s, r);
  EXPECT_DOUBLE_EQ(report.coverage, 1.0);
  double reboot_err = 0.0;
  std::size_t reboot_unknowns = 0;
  for (std::size_t i = 0; i < s.node_count(); ++i) {
    if (s.is_anchor[i] || s.faults.reboot_round[i] == kNeverCrashes) continue;
    reboot_err += distance(*r.estimates[i], s.true_positions[i]) /
                  s.radio.range;
    ++reboot_unknowns;
  }
  if (reboot_unknowns > 0) {
    reboot_err /= static_cast<double>(reboot_unknowns);
    EXPECT_LT(reboot_err, 0.8) << "rebooted nodes failed to re-localize";
  }
  EXPECT_LT(report.summary.mean, 0.5);
}

TEST(AsyncEngines, HostileAsyncStaysWithinTenPercentOfCleanSync) {
  // The PR's acceptance gate, as a test: 10% loss + latency + a healing
  // partition + crash-and-reboot must cost at most 10% mean error against
  // the clean synchronous run (mean over seeds).
  double clean_sum = 0.0, hostile_sum = 0.0;
  for (std::uint64_t seed : {51, 52, 53}) {
    const Scenario clean = build_scenario(engine_scenario(seed));
    const Scenario hostile = build_scenario(crash_reboot_scenario(seed));
    GridBnclConfig sync_cfg;
    sync_cfg.iteration.max_iterations = 40;
    Rng r1(seed), r2(seed);
    clean_sum +=
        evaluate(clean, GridBncl(sync_cfg).localize(clean, r1)).summary.mean;
    hostile_sum +=
        evaluate(hostile,
                 GridBncl(hostile_grid_config()).localize(hostile, r2))
            .summary.mean;
  }
  EXPECT_LE(hostile_sum, 1.10 * clean_sum)
      << "async degradation ladder exceeded the 10% error budget: clean="
      << clean_sum / 3.0 << " hostile=" << hostile_sum / 3.0;
}

}  // namespace
}  // namespace bnloc
