// Property tests for the async radio's monotone event queue
// (net/event_queue.hpp): it must pop exactly the (time, push order)
// sequence of a binary heap tie-broken on a creation counter, under the
// radio's usage pattern — pushes never earlier than the last pop, pops
// bounded by the round's end, and sends at exactly that end after a drain
// that found nothing due.
#include "net/event_queue.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <queue>
#include <vector>

#include "support/rng.hpp"

namespace bnloc {
namespace {

struct Ev {
  double time = 0.0;
  std::uint64_t id = 0;
};

/// The reference order: earliest time first, then creation order.
struct Later {
  bool operator()(const Ev& a, const Ev& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.id > b.id;
  }
};

/// Both queues side by side; every pop is checked against the reference.
class Pair {
 public:
  void push(double time) {
    const Ev e{time, next_id_++};
    queue_.push(e);
    ref_.push(e);
  }

  /// Pops the earliest event due by `bound` from both, checking they agree;
  /// false (checked against the reference too) when nothing is due.
  bool pop(double bound, Ev& got) {
    if (!queue_.pop_due(bound, got)) {
      EXPECT_TRUE(ref_.empty() || ref_.top().time > bound);
      return false;
    }
    EXPECT_FALSE(ref_.empty());
    if (ref_.empty()) return false;
    const Ev want = ref_.top();
    ref_.pop();
    EXPECT_LE(want.time, bound);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.time),
              std::bit_cast<std::uint64_t>(want.time));
    EXPECT_EQ(got.id, want.id);
    return true;
  }

  /// Pops everything due by `bound`.
  std::vector<Ev> drain(double bound) {
    std::vector<Ev> popped;
    Ev got;
    while (pop(bound, got)) popped.push_back(got);
    return popped;
  }

  [[nodiscard]] std::size_t pending() const { return ref_.size(); }

 private:
  EventQueue<Ev> queue_;
  std::priority_queue<Ev, std::vector<Ev>, Later> ref_;
  std::uint64_t next_id_ = 0;
};

TEST(AsyncRadioEventQueue, PopsTheBinaryHeapSequenceOnRandomRounds) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Pair q;
    // Seeded churn, as the radio's flap processes start.
    for (int i = 0; i < 50; ++i) q.push(rng.exponential(0.3));
    std::size_t popped = 0;
    for (std::size_t round = 1; round <= 60; ++round) {
      const double now = static_cast<double>(round);
      // Each pop may push a follow-up at or after its time, as processing
      // an event does: at the same time (latency 0), after a quantized
      // delay that collides with others, or after a delay past the round.
      std::size_t follow_ups = 4000;
      Ev e;
      while (q.pop(now, e)) {
        ++popped;
        if (follow_ups == 0) continue;
        --follow_ups;
        switch (rng.uniform_index(4)) {
          case 0:
            q.push(e.time);
            break;
          case 1:
            q.push(e.time +
                   0.125 * static_cast<double>(1 + rng.uniform_index(8)));
            break;
          case 2:
            q.push(e.time + rng.uniform(0.0, 1.5));
            break;
          default:
            break;
        }
      }
      // The drain found nothing due; sends now push at exactly `now` and
      // at skewed phases after it.
      const std::size_t sends = 1 + rng.uniform_index(40);
      for (std::size_t i = 0; i < sends; ++i)
        q.push(i % 3 == 0 ? now : now + rng.uniform(0.0, 0.4));
    }
    for (double t = 61.0; q.pending() > 0; t += 1.0)
      popped += q.drain(t).size();
    EXPECT_GT(popped, 1000u);
  }
}

TEST(AsyncRadioEventQueue, SendsAtTheBoundAfterAnEmptyDrainPopFirst) {
  // The trap: the queue holds only events past `now`, so the drain's "is
  // anything due?" check fails. Sends then push at exactly `now`, earlier
  // than everything pending; they must still pop first, in push order.
  Pair q;
  q.push(0.5);
  q.push(3.25);
  q.push(2.5);
  q.push(std::nextafter(2.0, 3.0));
  EXPECT_EQ(q.drain(1.0).size(), 1u);
  EXPECT_TRUE(q.drain(2.0).empty());
  q.push(2.0);
  q.push(2.0);
  q.push(2.25);
  const std::vector<Ev> popped = q.drain(2.5);
  ASSERT_EQ(popped.size(), 5u);
  EXPECT_EQ(popped[0].id, 4u);
  EXPECT_EQ(popped[1].id, 5u);
  EXPECT_EQ(popped[2].id, 3u);
  q.drain(10.0);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(AsyncRadioEventQueue, NegativeZeroTiesWithZeroInPushOrder) {
  // An exponential draw of 0 is -0.0 (-log(1) / rate); as a time it equals
  // +0.0, so the two keep their push order.
  Pair q;
  q.push(0.0);
  q.push(-0.0);
  q.push(0.0);
  q.push(0.25);
  const std::vector<Ev> popped = q.drain(1.0);
  ASSERT_EQ(popped.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(popped[i].id, i);
}

}  // namespace
}  // namespace bnloc
