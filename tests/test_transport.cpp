// Contract tests for Transport<Payload> (net/transport.hpp), the one link
// layer behind all three BNCL engines: what each receiver-side slot serves
// under the sync and async branches, the stale-TTL rule, reboot handling,
// and the trace's stale_links column on clean engine runs.
#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/gaussian_bncl.hpp"
#include "core/grid_bncl.hpp"
#include "core/particle_bncl.hpp"
#include "fault/fault.hpp"  // kNeverCrashes

namespace bnloc {
namespace {

/// A triangle world carrying only what the transport reads: the graph and
/// the crash/reboot schedules.
Scenario triangle_world(std::vector<std::size_t> deaths = {},
                        std::vector<std::size_t> reboots = {}) {
  const std::vector<Edge> edges = {{0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}};
  Scenario s;
  s.graph = Graph(3, edges);
  s.faults.death_round = std::move(deaths);
  s.faults.reboot_round = std::move(reboots);
  return s;
}

/// Receiver-side slot on which `receiver` hears `sender`.
std::size_t slot_of(const Scenario& s, const Transport<int>& t,
                    std::size_t sender, std::size_t receiver) {
  const auto nbs = s.graph.neighbors(receiver);
  for (std::size_t k = 0; k < nbs.size(); ++k)
    if (nbs[k].node == sender) return t.slot(receiver, k);
  ADD_FAILURE() << sender << " is not a neighbor of " << receiver;
  return 0;
}

/// Every alive node publishes `100 * round + node` under version `round`.
void publish_all(Transport<int>& t, std::uint64_t round) {
  for (std::size_t u = 0; u < 3; ++u)
    if (!t.crashed(u))
      t.publish(u, round, static_cast<int>(100 * round + u), 4);
}

constexpr std::uint64_t kStale = Transport<int>::kStale;

TEST(Transport, DroppedSyncDeliveryServesThePreviousSummary) {
  const Scenario s = triangle_world();
  TransportConfig lossy;
  lossy.radio.loss = 0.5;
  Transport<int> t(s, lossy, 0, Rng(7));
  // Same graph, loss and seed: replays the transport's delivery draws.
  SyncRadio mirror(s.graph, 0.5, Rng(7));
  std::size_t fresh = 0, fallback = 0;
  for (std::uint64_t round = 1; round <= 20; ++round) {
    t.begin_round();
    mirror.begin_round();
    // A node's first summary is also its fallback (the grid engine's
    // first-publish rule), so a dropped round-1 delivery serves it too.
    if (round == 1)
      for (std::size_t u = 0; u < 3; ++u)
        t.reset(u, 1, static_cast<int>(100 + u));
    publish_all(t, round);
    for (std::size_t v = 0; v < 3; ++v)
      for (const Neighbor& nb : s.graph.neighbors(v)) {
        const auto in = t.input(slot_of(s, t, nb.node, v));
        ASSERT_NE(in.payload, nullptr);
        const std::uint64_t want =
            mirror.delivered(nb.node, v) || round == 1 ? round : round - 1;
        (mirror.delivered(nb.node, v) ? fresh : fallback) += 1;
        EXPECT_EQ(in.ver, want);
        EXPECT_EQ(*in.payload, static_cast<int>(100 * want + nb.node));
      }
  }
  EXPECT_GT(fresh, 0u);
  EXPECT_GT(fallback, 0u);
}

TEST(Transport, TtlRetiresASlotAfterTtlUndeliveredRounds) {
  // Node 1 transmits through round 2, then is dead for good.
  const Scenario s = triangle_world({kNeverCrashes, 2, kNeverCrashes});
  Transport<int> t(s, {}, 3, Rng(1));
  const std::size_t slot = slot_of(s, t, 1, 0);
  for (std::uint64_t round = 1; round <= 7; ++round) {
    t.begin_round();
    publish_all(t, round);
    const auto in = t.input(slot);
    if (round <= 2) {
      EXPECT_EQ(in.ver, round);
    } else if (round <= 5) {
      // Undelivered but within the TTL: the sync fallback summary.
      EXPECT_EQ(in.ver, 1u);
      EXPECT_EQ(t.stale_links(), 0u);
    } else {
      EXPECT_EQ(in.ver, kStale);
      EXPECT_EQ(in.payload, nullptr);
      // 0 <- 1 and 2 <- 1 lost their sender; 1 <- 0 and 1 <- 2 their
      // receiver.
      EXPECT_EQ(t.stale_links(), 4u);
    }
  }
  Transport<int> off(s, {}, 0, Rng(1));
  for (std::uint64_t round = 1; round <= 7; ++round) off.begin_round();
  EXPECT_EQ(off.stale_links(), 0u);  // TTL off: nothing retires
}

TEST(Transport, RebootGivesATtlGrace) {
  // Nodes 0 and 1 die after round 2; node 0 reboots in round 8, node 1
  // stays dead, so 0 <- 1 is never delivered again.
  const Scenario s = triangle_world({2, 2, kNeverCrashes},
                                    {8, kNeverCrashes, kNeverCrashes});
  Transport<int> t(s, {}, 3, Rng(1));
  const std::size_t slot = slot_of(s, t, 1, 0);
  for (std::uint64_t round = 1; round <= 12; ++round) {
    t.begin_round();
    publish_all(t, round);
    if (round == 8) {
      ASSERT_EQ(t.rebooted().size(), 1u);
      EXPECT_EQ(t.rebooted()[0], 0u);
    } else {
      EXPECT_TRUE(t.rebooted().empty());
    }
    // Last delivered in round 2, yet the reboot restarts the clock: the
    // slot serves through round 11 and retires in round 12.
    if (round >= 8 && round <= 11) {
      EXPECT_NE(t.input(slot).ver, kStale);
    }
  }
  EXPECT_EQ(t.input(slot).ver, kStale);
}

TEST(Transport, CrashedReceiverHearsNothing) {
  // Node 0 transmits and listens through round 1 only.
  const Scenario s = triangle_world({1, kNeverCrashes, kNeverCrashes});
  {
    SCOPED_TRACE("sync");
    Transport<int> t(s, {}, 2, Rng(1));
    for (std::uint64_t round = 1; round <= 4; ++round) {
      t.begin_round();
      publish_all(t, round);
    }
    EXPECT_EQ(t.input(slot_of(s, t, 1, 0)).ver, kStale);
    EXPECT_EQ(t.input(slot_of(s, t, 1, 2)).ver, 4u);
  }
  {
    SCOPED_TRACE("async");
    TransportConfig cfg;
    cfg.async = true;
    cfg.radio.latency = 0.1;
    Transport<int> t(s, cfg, 0, Rng(1));
    for (std::uint64_t round = 1; round <= 6; ++round) {
      t.begin_round();
      publish_all(t, round);
    }
    // Node 1's round-5 summary landed at node 2 but not at dead node 0.
    EXPECT_EQ(t.input(slot_of(s, t, 1, 2)).ver, 5u);
    EXPECT_LE(t.input(slot_of(s, t, 1, 0)).ver, 1u);
  }
}

TEST(Transport, AsyncInboxRelayAndTransform) {
  const Scenario s = triangle_world({2, kNeverCrashes, kNeverCrashes},
                                    {5, kNeverCrashes, kNeverCrashes});
  TransportConfig cfg;
  cfg.async = true;
  cfg.radio.latency = 0.1;
  Transport<int> t(s, cfg, 0, Rng(3));
  const std::size_t slot = slot_of(s, t, 1, 0);
  t.begin_round();  // round 1
  t.publish(1, 1, 111, 4);
  t.begin_round();  // round 2: node 0 hears neighbor 1's payload
  ASSERT_NE(t.input(slot).payload, nullptr);
  EXPECT_EQ(*t.input(slot).payload, 111);
  EXPECT_EQ(t.input(slot).ver, 1u);
  t.begin_round();  // 3 (node 0 dead)
  t.begin_round();  // 4
  t.begin_round();  // 5: reboot wipes node 0's inbox
  ASSERT_EQ(t.rebooted().size(), 1u);
  EXPECT_EQ(t.input(slot).payload, nullptr);
  EXPECT_EQ(t.input(slot).ver, 0u);
  // Warm re-entry: neighbor 1 relays its newest summary to the rebooted
  // node, which accepts it next round despite 1 having published nothing
  // new since round 1.
  t.relay(1, 0, 4);
  t.begin_round();  // 6
  ASSERT_NE(t.input(slot).payload, nullptr);
  EXPECT_EQ(*t.input(slot).payload, 111);
  EXPECT_EQ(t.history_misses(), 0u);
  // transform re-expresses every stored copy: inbox and sender summary.
  t.transform([](int& x) { x += 1000; });
  EXPECT_EQ(*t.input(slot).payload, 1111);
  EXPECT_EQ(*t.newest(1).payload, 1111);
  EXPECT_EQ(t.newest(1).ver, 1u);
  EXPECT_EQ(t.newest(2).payload, nullptr);  // never published
  // Relays are async-only store-and-forward.
  Transport<int> sync(s, {}, 0, Rng(3));
  sync.begin_round();
  sync.publish(1, 1, 111, 4);
  sync.relay(1, 0, 4);
  EXPECT_EQ(sync.stats().messages_sent, 1u);
}

// A clean sync run hears every alive slot every round — anchors included —
// so the trace's stale_links column stays 0 for every engine, exactly as
// under the async transport.
TEST(TransportEngines, CleanSyncRunsReportNoStaleLinks) {
  ScenarioConfig cfg;
  cfg.node_count = 100;
  cfg.seed = 5;
  const Scenario s = build_scenario(cfg);
  const IterationConfig six_rounds{.max_iterations = 6,
                                   .convergence_tol = 0.0};
  GridBnclConfig grid;
  grid.iteration = six_rounds;
  grid.robustness.stale_ttl = 3;
  GaussianBnclConfig gauss;
  gauss.iteration = six_rounds;
  gauss.robustness.stale_ttl = 3;
  ParticleBnclConfig particle;
  particle.iteration = six_rounds;
  particle.particle_count = 32;
  particle.robustness.stale_ttl = 3;
  std::vector<std::unique_ptr<Localizer>> engines;
  engines.push_back(std::make_unique<GridBncl>(grid));
  engines.push_back(std::make_unique<GaussianBncl>(gauss));
  engines.push_back(std::make_unique<ParticleBncl>(particle));
  for (const auto& engine : engines) {
    SCOPED_TRACE(engine->name());
    obs::Telemetry sink;
    Rng rng(1);
    {
      const obs::TelemetryScope scope(&sink);
      (void)engine->localize(s, rng);
    }
    const auto rows = sink.trace.rows();
    ASSERT_EQ(rows.size(), 6u);
    for (const auto& row : rows)
      EXPECT_EQ(row.robust.stale_links, 0u) << "round " << row.round;
  }
}

}  // namespace
}  // namespace bnloc
