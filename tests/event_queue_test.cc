#include "sim/event_queue.h"

#include <algorithm>
#include <set>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "gtest/gtest.h"

namespace ziziphus::sim {
namespace {

SimEvent Ev(SimTime t, std::uint64_t seq) {
  return SimEvent{t, seq, 0, nullptr, 0, 0, 0};
}

/// Pops everything, asserting the exact (time, seq) order the queue must
/// produce; returns the popped (time, seq) pairs.
std::vector<std::pair<SimTime, std::uint64_t>> Drain(EventQueue& q) {
  std::vector<std::pair<SimTime, std::uint64_t>> out;
  while (!q.Empty()) {
    EXPECT_EQ(q.MinTime(), q.MinTime());  // peek is idempotent
    SimTime min = q.MinTime();
    SimEvent e = q.Pop();
    EXPECT_EQ(e.time, min);
    out.emplace_back(e.time, e.seq);
  }
  EXPECT_EQ(q.MinTime(), kSimTimeMax);
  return out;
}

TEST(EventQueueTest, EmptyQueueBasics) {
  EventQueue q;
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Size(), 0u);
  EXPECT_EQ(q.MinTime(), kSimTimeMax);
}

TEST(EventQueueTest, PopsInTimeThenSeqOrder) {
  EventQueue q;
  q.Push(Ev(50, 3));
  q.Push(Ev(10, 7));
  q.Push(Ev(50, 1));
  q.Push(Ev(10, 2));
  q.Push(Ev(30, 5));
  auto order = Drain(q);
  std::vector<std::pair<SimTime, std::uint64_t>> want = {
      {10, 2}, {10, 7}, {30, 5}, {50, 1}, {50, 3}};
  EXPECT_EQ(order, want);
}

TEST(EventQueueTest, SeqBreaksLargeTieGroups) {
  EventQueue q;
  Rng rng(99);
  std::vector<std::uint64_t> seqs(500);
  for (std::uint64_t i = 0; i < seqs.size(); ++i) seqs[i] = i;
  // Push one big same-time group in shuffled seq order.
  for (std::uint64_t i = seqs.size(); i > 1; --i) {
    std::swap(seqs[i - 1], seqs[rng.NextBounded(i)]);
  }
  for (std::uint64_t s : seqs) q.Push(Ev(777, s));
  auto order = Drain(q);
  ASSERT_EQ(order.size(), 500u);
  for (std::uint64_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], (std::pair<SimTime, std::uint64_t>{777, i}));
  }
}

TEST(EventQueueTest, FarFutureTimersCoexistWithNearEvents) {
  // The bimodal schedule the simulator actually produces: microsecond-scale
  // message hops plus timers parked seconds (or an epoch) in the future.
  EventQueue q;
  std::uint64_t seq = 0;
  q.Push(Ev(Seconds(120), seq++));
  q.Push(Ev(kSimTimeMax - 1, seq++));
  for (SimTime t = 10; t <= 100; t += 10) q.Push(Ev(t, seq++));
  EXPECT_EQ(q.MinTime(), 10u);
  // Drain the near events; the parked timers must not surface early.
  for (int i = 0; i < 10; ++i) {
    EXPECT_LE(q.Pop().time, 100u);
  }
  EXPECT_EQ(q.MinTime(), Seconds(120));
  // Push below the current minimum again (the simulator does this whenever
  // a handler schedules new immediate work after a long idle skip).
  q.Push(Ev(Seconds(119), seq++));
  EXPECT_EQ(q.Pop().time, Seconds(119));
  EXPECT_EQ(q.Pop().time, Seconds(120));
  EXPECT_EQ(q.Pop().time, kSimTimeMax - 1);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, RandomDifferentialAgainstSortedReference) {
  EventQueue q;
  Rng rng(4242);
  // Sorted reference of the live events: every pop must return its first.
  std::set<std::pair<SimTime, std::uint64_t>> ref;
  std::uint64_t seq = 0;
  // Interleaved pushes and pops with duplicate times and occasional huge
  // jumps, mimicking timers.
  for (int round = 0; round < 5000; ++round) {
    if (rng.NextBounded(10) < 6 || q.Empty()) {
      SimTime t = rng.NextBounded(4) == 0 ? Seconds(rng.NextBounded(600))
                                          : rng.NextBounded(5000);
      q.Push(Ev(t, seq));
      ref.emplace(t, seq);
      ++seq;
    } else {
      EXPECT_EQ(q.MinTime(), ref.begin()->first);
      SimEvent e = q.Pop();
      EXPECT_EQ((std::pair<SimTime, std::uint64_t>{e.time, e.seq}),
                *ref.begin());
      ref.erase(ref.begin());
    }
    EXPECT_EQ(q.Size(), ref.size());
  }
  std::vector<std::pair<SimTime, std::uint64_t>> want(ref.begin(), ref.end());
  EXPECT_EQ(Drain(q), want);
}

TEST(EventQueueTest, RemoveIfKeepsTheOrderOfTheSurvivors) {
  // The simulator compacts cancelled timers out of the heap in bulk; the
  // events that stay must still pop in exact (time, seq) order.
  EventQueue q;
  Rng rng(77);
  std::set<std::pair<SimTime, std::uint64_t>> ref;
  std::uint64_t seq = 0;
  for (int round = 0; round < 5000; ++round) {
    std::uint64_t r = rng.NextBounded(100);
    if (r < 55 || q.Empty()) {
      SimTime t = rng.NextBounded(4) == 0 ? Seconds(rng.NextBounded(8))
                                          : rng.NextBounded(500);
      q.Push(Ev(t, seq));
      ref.emplace(t, seq);
      ++seq;
    } else if (r < 58) {
      // Drop one residue class of seqs: an arbitrary subset of the heap.
      std::uint64_t mod = 2 + rng.NextBounded(3);
      std::uint64_t rem = rng.NextBounded(mod);
      std::size_t want = 0;
      for (auto it = ref.begin(); it != ref.end();) {
        if (it->second % mod == rem) {
          it = ref.erase(it);
          ++want;
        } else {
          ++it;
        }
      }
      EXPECT_EQ(q.RemoveIf([&](const SimEvent& e) {
                  return e.seq % mod == rem;
                }),
                want);
    } else {
      EXPECT_EQ(q.Top().seq, ref.begin()->second);
      SimEvent e = q.Pop();
      EXPECT_EQ((std::pair<SimTime, std::uint64_t>{e.time, e.seq}),
                *ref.begin());
      ref.erase(ref.begin());
    }
    ASSERT_EQ(q.Size(), ref.size());
  }
  std::vector<std::pair<SimTime, std::uint64_t>> want(ref.begin(), ref.end());
  EXPECT_EQ(Drain(q), want);
}

}  // namespace
}  // namespace ziziphus::sim
