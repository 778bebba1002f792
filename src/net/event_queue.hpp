// Monotone event queue: the async radio's priority queue.
//
// A radix heap (Ahuja, Mehlhorn, Orlin and Tarjan) keyed on the IEEE bits of
// each event's virtual time. For non-negative doubles those bits order like
// the times themselves, so an event is popped in (time, push order) order —
// exactly the order of a binary heap tie-broken on a creation counter.
//
// It relies on one invariant of its user: keys are monotone. No event is
// pushed earlier than the last event popped (the queue's *base*). The async
// radio keeps it because it schedules every event at or after the event or
// round that creates it: latency >= 0, backoff > 0, flap times only grow,
// and sends and relays push at `now + phase` after the drain that stopped
// at `now`. `push` asserts the invariant.
//
// Layout: bucket 0 holds the events whose key equals the base; bucket b > 0
// holds those whose key differs from the base first at bit b-1 from the top
// (bit_width(key ^ base) == b). A pop takes bucket 0's front. When bucket 0
// is empty, the lowest non-empty bucket is redistributed around its smallest
// key, which becomes the new base; every event moves to a strictly lower
// bucket, so one event moves at most 63 times and a push is O(1).
//
// Buckets are first-in first-out: a bucket only receives redistributed
// events while it is empty, and pushes append the newest event, so events
// with equal keys stay in push order.
//
// Storage: each bucket is a list of fixed-size chunks drawn from one free
// list, so the queue holds at most its events in flight plus one partly
// filled chunk per bucket. (Per-bucket vectors would each keep the capacity
// of their fullest moment; as event times cross powers of two, the busy
// buckets shift, and that capacity piled up to 20x the events in flight.)
//
// `pop_due(bound)` never moves the base past `bound`. The drain asks "is
// anything due by now?" once the round's events are done; answering it by
// redistributing would set the base to the next event's time, past now, and
// the sends that follow at `now` would break the invariant.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "support/assert.hpp"

namespace bnloc {

/// Priority queue of `Event`s on their `double time` member, earliest
/// first, equal times in push order. Times must be non-negative, and no
/// push may be earlier than the last event popped.
template <typename Event>
class EventQueue {
 public:
  void push(const Event& e) {
    const std::uint64_t k = key(e.time);
    BNLOC_ASSERT(k >= base_ && k >> 63 == 0,
                 "event queue push before the last popped event");
    place(k, e);
  }

  /// Pop the earliest event into `out` if its time is <= `bound`. Returns
  /// false, leaving the queue as it was, when nothing is due by `bound`.
  [[nodiscard]] bool pop_due(double bound, Event& out) {
    Bucket& front = buckets_[0];
    if (front.head == nullptr) {
      if (occupied_ == 0) return false;
      const int b = std::countr_zero(occupied_);
      if (min_[b] > key(bound)) return false;
      redistribute(b);
    } else if (base_ > key(bound)) {
      return false;
    }
    Chunk* c = front.head;
    out = c->events[front.first++];
    if (c == front.tail && front.first == front.last) {
      front = Bucket{};
      release(c);
    } else if (front.first == kChunkEvents) {
      front.head = c->next;
      front.first = 0;
      release(c);
    }
    return true;
  }

 private:
  static constexpr int kBuckets = 64;
  static constexpr std::uint32_t kChunkEvents = 128;

  struct Chunk {
    std::array<Event, kChunkEvents> events;
    Chunk* next = nullptr;
  };
  /// A FIFO of events in [first, last): `first` indexes the head chunk and
  /// `last` the tail chunk; chunks in between are full.
  struct Bucket {
    Chunk* head = nullptr;
    Chunk* tail = nullptr;
    std::uint32_t first = 0;
    std::uint32_t last = 0;
  };

  /// Order-preserving key: the time's bits, with -0.0 folded into +0.0
  /// (they compare equal as times).
  [[nodiscard]] static std::uint64_t key(double time) noexcept {
    return std::bit_cast<std::uint64_t>(time + 0.0);
  }

  void place(std::uint64_t k, const Event& e) {
    const int b = static_cast<int>(std::bit_width(k ^ base_));
    if (b > 0) {
      const std::uint64_t bit = std::uint64_t{1} << b;
      if ((occupied_ & bit) == 0 || k < min_[b]) min_[b] = k;
      occupied_ |= bit;
    }
    Bucket& to = buckets_[b];
    if (to.tail == nullptr || to.last == kChunkEvents) {
      Chunk* c = acquire();
      (to.tail ? to.tail->next : to.head) = c;
      to.tail = c;
      to.last = 0;
    }
    to.tail->events[to.last++] = e;
  }

  void redistribute(int b) {
    const Bucket from = buckets_[b];
    buckets_[b] = Bucket{};
    base_ = min_[b];
    occupied_ &= ~(std::uint64_t{1} << b);
    for (Chunk* c = from.head; c != nullptr;) {
      const std::uint32_t end = c == from.tail ? from.last : kChunkEvents;
      for (std::uint32_t i = c == from.head ? from.first : 0; i < end; ++i)
        place(key(c->events[i].time), c->events[i]);
      Chunk* next = c->next;
      release(c);
      c = next;
    }
  }

  Chunk* acquire() {
    Chunk* c = free_;
    if (c != nullptr) {
      free_ = c->next;
      c->next = nullptr;
      return c;
    }
    chunks_.push_back(std::make_unique<Chunk>());
    return chunks_.back().get();
  }

  void release(Chunk* c) noexcept {
    c->next = free_;
    free_ = c;
  }

  std::array<Bucket, kBuckets> buckets_{};
  std::array<std::uint64_t, kBuckets> min_{};  ///< smallest key per bucket.
  std::uint64_t occupied_ = 0;  ///< bit b: bucket b > 0 is non-empty.
  std::uint64_t base_ = 0;      ///< key of the last popped event.
  std::vector<std::unique_ptr<Chunk>> chunks_;  ///< every chunk, owned.
  Chunk* free_ = nullptr;                       ///< unused chunks.
};

}  // namespace bnloc
