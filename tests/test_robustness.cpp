// The quorum gate shared by the three BNCL engines (core/robustness.hpp),
// driven directly: its state machine is otherwise only reachable through
// whole-engine runs under partitions and churn.
#include "core/robustness.hpp"

#include <gtest/gtest.h>

#include <cstddef>

namespace bnloc {
namespace {

RobustnessConfig gated(double quorum, std::size_t patience) {
  RobustnessConfig rc;
  rc.update_quorum = quorum;
  rc.quorum_patience = patience;
  return rc;
}

constexpr auto kNoneUsable = [] { return std::size_t{0}; };
constexpr auto kHalfOfFourUsable = [] { return std::size_t{2}; };

TEST(QuorumGate, HoldsForAtMostPatienceRoundsThenDisarms) {
  QuorumGate gate(gated(0.5, 3), 2);
  for (int round = 0; round < 3; ++round)
    EXPECT_TRUE(gate.hold(0, 4, kNoneUsable)) << "round " << round;
  // Patience exhausted: the node free-runs while the quorum stays short.
  for (int round = 0; round < 5; ++round)
    EXPECT_FALSE(gate.hold(0, 4, kNoneUsable)) << "round " << round;
  // Each node's state machine is its own.
  EXPECT_TRUE(gate.hold(1, 4, kNoneUsable));
}

TEST(QuorumGate, FullQuorumRearmsIt) {
  QuorumGate gate(gated(0.5, 2), 1);
  EXPECT_TRUE(gate.hold(0, 4, kNoneUsable));
  EXPECT_TRUE(gate.hold(0, 4, kNoneUsable));
  EXPECT_FALSE(gate.hold(0, 4, kNoneUsable));  // disarmed
  // 2 of 4 usable meets a 0.5 quorum: no hold, and the gate re-arms with a
  // fresh streak.
  EXPECT_FALSE(gate.hold(0, 4, kHalfOfFourUsable));
  EXPECT_TRUE(gate.hold(0, 4, kNoneUsable));
  EXPECT_TRUE(gate.hold(0, 4, kNoneUsable));
  EXPECT_FALSE(gate.hold(0, 4, kNoneUsable));
}

TEST(QuorumGate, RebootRearmsIt) {
  QuorumGate gate(gated(0.5, 1), 1);
  EXPECT_TRUE(gate.hold(0, 4, kNoneUsable));
  EXPECT_FALSE(gate.hold(0, 4, kNoneUsable));  // disarmed
  gate.rearm(0);
  EXPECT_TRUE(gate.hold(0, 4, kNoneUsable));
  // A reboot mid-streak restarts the streak too.
  gate.rearm(0);
  EXPECT_TRUE(gate.hold(0, 4, kNoneUsable));
  EXPECT_FALSE(gate.hold(0, 4, kNoneUsable));
}

TEST(QuorumGate, NeverHoldsWithQuorumZeroOrWithoutNeighbors) {
  std::size_t counted = 0;
  const auto counting = [&] {
    ++counted;
    return std::size_t{0};
  };
  QuorumGate off(gated(0.0, 4), 1);
  for (int round = 0; round < 3; ++round)
    EXPECT_FALSE(off.hold(0, 4, counting));
  off.rearm(0);  // a no-op with the gate off
  EXPECT_FALSE(off.hold(0, 4, counting));

  QuorumGate on(gated(1.0, 4), 1);
  EXPECT_FALSE(on.hold(0, 0, counting));  // an isolated node
  // Usable neighbors are only counted when the gate could hold.
  EXPECT_EQ(counted, 0u);
  EXPECT_TRUE(on.hold(0, 4, counting));
  EXPECT_EQ(counted, 1u);
}

}  // namespace
}  // namespace bnloc
