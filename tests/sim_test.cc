#include <map>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "sim/latency_model.h"
#include "sim/message.h"
#include "sim/simulation.h"

namespace ziziphus::sim {
namespace {

struct PingMsg : Message {
  PingMsg() : Message(1) {}
  std::uint64_t payload = 0;
  crypto::Digest ComputeDigest() const override { return payload; }
};

/// Records arrivals; optionally replies or charges CPU.
class Recorder : public Process {
 public:
  std::vector<std::pair<SimTime, std::uint64_t>> received;
  std::vector<std::pair<SimTime, std::uint64_t>> timers;
  Duration charge_per_message = 0;
  NodeId reply_to = kInvalidNode;

  void OnMessage(const MessagePtr& msg) override {
    ChargeCpu(charge_per_message);
    auto ping = As<PingMsg>(msg);
    received.emplace_back(Now(), ping != nullptr ? ping->payload : 0);
    if (reply_to != kInvalidNode) {
      auto m = std::make_shared<PingMsg>();
      m->payload = 1000 + received.size();
      Send(reply_to, m);
    }
  }
  void OnTimer(const TimerTag& tag) override {
    timers.emplace_back(Now(), tag.key);
  }

  using Process::CancelTimer;
  using Process::Send;
  using Process::SetTimer;
};

TEST(LatencyModelTest, PaperMatrixSymmetricAndPlausible) {
  LatencyModel m = LatencyModel::PaperGeoMatrix();
  ASSERT_EQ(m.num_regions(), 7u);
  for (RegionId a = 0; a < 7; ++a) {
    for (RegionId b = 0; b < 7; ++b) {
      EXPECT_EQ(m.BaseLatency(a, b), m.BaseLatency(b, a));
    }
  }
  // Sanity: CA-OH much closer than SYD-PAR.
  EXPECT_LT(m.BaseLatency(kCalifornia, kOhio),
            m.BaseLatency(kSydney, kParis));
}

TEST(LatencyModelTest, SampleIncludesBandwidthAndJitter) {
  LatencyModel m = LatencyModel::Uniform(2, 10000);
  Rng rng(1);
  Duration small = m.Sample(0, 1, 100, rng);
  EXPECT_GE(small, 10000u);
  // A 1 MB message must take noticeably longer on a 1 Gb/s link.
  Duration big = m.Sample(0, 1, 1000000, rng);
  EXPECT_GT(big, small + 5000);
}

TEST(LatencyModelTest, IntraZoneLatencyUsed) {
  LatencyModel m = LatencyModel::Uniform(2, 10000);
  m.set_jitter_fraction(0.0);
  Rng rng(1);
  EXPECT_LT(m.Sample(0, 0, 10, rng), 1000u);
}

TEST(SimulationTest, DeliversWithLatency) {
  Simulation sim(1, LatencyModel::Uniform(2, 5000));
  Recorder a, b;
  NodeId ida = sim.Register(&a, 0);
  sim.Register(&b, 1);
  auto msg = std::make_shared<PingMsg>();
  msg->payload = 7;
  sim.SendMessage(ida, 0, 1, msg);
  sim.RunUntilIdle();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_GE(b.received[0].first, 5000u);
  EXPECT_EQ(b.received[0].second, 7u);
}

TEST(SimulationTest, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    Simulation sim(seed, LatencyModel::Uniform(2, 2000));
    Recorder a, b;
    NodeId ida = sim.Register(&a, 0);
    NodeId idb = sim.Register(&b, 1);
    a.reply_to = idb;
    b.reply_to = kInvalidNode;
    for (int i = 0; i < 20; ++i) {
      auto msg = std::make_shared<PingMsg>();
      msg->payload = i;
      sim.SendMessage(idb, i * 10, ida, msg);
    }
    sim.RunUntilIdle();
    return std::make_pair(a.received, b.received);
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));
}

TEST(SimulationTest, CpuModelSerializesWork) {
  Simulation sim(1, LatencyModel::Uniform(1, 1000));
  Recorder a, b;
  NodeId ida = sim.Register(&a, 0);
  sim.Register(&b, 0);
  b.charge_per_message = 500;
  // Two messages arrive nearly together; the second must start after the
  // first one's CPU time.
  auto m1 = std::make_shared<PingMsg>();
  auto m2 = std::make_shared<PingMsg>();
  sim.SendMessage(ida, 0, 1, m1);
  sim.SendMessage(ida, 0, 1, m2);
  sim.RunUntilIdle();
  ASSERT_EQ(b.received.size(), 2u);
  // Now() inside the handler includes the charge of that handler.
  EXPECT_GE(b.received[1].first, b.received[0].first + 500);
}

TEST(SimulationTest, TimersFireAndCancel) {
  Simulation sim(1, LatencyModel::Uniform(1, 1000));
  Recorder a;
  sim.Register(&a, 0);
  a.SetTimer(1000, {.key = 1});
  std::uint64_t t2 = a.SetTimer(2000, {.key = 2});
  a.SetTimer(3000, {.key = 3});
  a.CancelTimer(t2);
  sim.RunUntilIdle();
  ASSERT_EQ(a.timers.size(), 2u);
  EXPECT_EQ(a.timers[0].second, 1u);
  EXPECT_EQ(a.timers[1].second, 3u);
}

/// Logs every firing's whole tag.
class TagLog : public Process {
 public:
  std::vector<TimerTag> fired;
  void OnMessage(const MessagePtr&) override {}
  void OnTimer(const TimerTag& tag) override { fired.push_back(tag); }
};

TEST(SimulationTest, TimerKeyCarriesAllSixtyFourBits) {
  Simulation sim(1, LatencyModel::Uniform(1, 1000));
  TagLog a;
  sim.Register(&a, 0);
  // Engines key timers by request or op id, which are 64-bit hashes (a
  // data-sync source leg's id, for one); a 48-bit slot truncated them.
  const std::uint64_t wide = 0xfedcba9876543210ULL;
  const std::uint64_t edge = 1ULL << 48;
  a.SetTimer(100, {TimerEngine::kDataSync, 4, wide});
  // Two live timers with one key and different kinds both fire.
  a.SetTimer(200, {TimerEngine::kMigration, 1, edge});
  a.SetTimer(300, {TimerEngine::kMigration, 2, edge});
  // A cancelled timer never fires.
  a.CancelTimer(a.SetTimer(250, {TimerEngine::kPbft, 5, wide}));
  sim.RunUntilIdle();
  ASSERT_EQ(a.fired.size(), 3u);
  EXPECT_EQ(a.fired[0].engine, TimerEngine::kDataSync);
  EXPECT_EQ(a.fired[0].kind, 4u);
  EXPECT_EQ(a.fired[0].key, wide);
  EXPECT_EQ(a.fired[1].engine, TimerEngine::kMigration);
  EXPECT_EQ(a.fired[1].kind, 1u);
  EXPECT_EQ(a.fired[1].key, edge);
  EXPECT_EQ(a.fired[2].engine, TimerEngine::kMigration);
  EXPECT_EQ(a.fired[2].kind, 2u);
  EXPECT_EQ(a.fired[2].key, edge);
  EXPECT_EQ(sim.events_dispatched(), 3u);
}

TEST(SimulationTest, CrashDropsTraffic) {
  Simulation sim(1, LatencyModel::Uniform(1, 1000));
  Recorder a, b;
  NodeId ida = sim.Register(&a, 0);
  NodeId idb = sim.Register(&b, 0);
  sim.faults().Crash(idb);
  sim.SendMessage(ida, 0, idb, std::make_shared<PingMsg>());
  sim.RunUntilIdle();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(sim.counters().Get(obs::CounterId::kNetMsgsDropped), 1u);
  sim.faults().Recover(idb);
  sim.SendMessage(ida, sim.Now(), idb, std::make_shared<PingMsg>());
  sim.RunUntilIdle();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(SimulationTest, PartitionCutsBothDirections) {
  Simulation sim(1, LatencyModel::Uniform(1, 1000));
  Recorder a, b;
  NodeId ida = sim.Register(&a, 0);
  NodeId idb = sim.Register(&b, 0);
  sim.faults().Partition(ida, idb);
  sim.SendMessage(ida, 0, idb, std::make_shared<PingMsg>());
  sim.SendMessage(idb, 0, ida, std::make_shared<PingMsg>());
  sim.RunUntilIdle();
  EXPECT_TRUE(a.received.empty());
  EXPECT_TRUE(b.received.empty());
  sim.faults().Heal(ida, idb);
  sim.SendMessage(ida, sim.Now(), idb, std::make_shared<PingMsg>());
  sim.RunUntilIdle();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(SimulationTest, MessageLossProbability) {
  Simulation sim(1, LatencyModel::Uniform(1, 1000));
  Recorder a, b;
  NodeId ida = sim.Register(&a, 0);
  NodeId idb = sim.Register(&b, 0);
  sim.faults().set_loss_probability(0.5);
  for (int i = 0; i < 1000; ++i) {
    sim.SendMessage(ida, 0, idb, std::make_shared<PingMsg>());
  }
  sim.RunUntilIdle();
  EXPECT_GT(b.received.size(), 350u);
  EXPECT_LT(b.received.size(), 650u);
}

TEST(SimulationTest, TraceRecordsFlow) {
  Simulation sim(1, LatencyModel::Uniform(1, 1000));
  Recorder a, b;
  NodeId ida = sim.Register(&a, 0);
  NodeId idb = sim.Register(&b, 0);
  sim.EnableTrace(true);
  sim.SendMessage(ida, 0, idb, std::make_shared<PingMsg>());
  sim.RunUntilIdle();
  ASSERT_EQ(sim.trace().size(), 1u);
  EXPECT_EQ(sim.trace()[0].from, ida);
  EXPECT_EQ(sim.trace()[0].to, idb);
  EXPECT_EQ(sim.trace()[0].type, 1);
}

TEST(SimulationTest, RunUntilAdvancesClock) {
  Simulation sim(1, LatencyModel::Uniform(1, 1000));
  sim.RunUntil(12345);
  EXPECT_EQ(sim.Now(), 12345u);
}

TEST(SimulationTest, TieBreakByInsertionOrder) {
  Simulation sim(1, LatencyModel::Uniform(1, 1000));
  Recorder a;
  sim.Register(&a, 0);
  // Two timers at the same instant fire in creation order.
  a.SetTimer(100, {.key = 10});
  a.SetTimer(100, {.key = 20});
  sim.RunUntilIdle();
  ASSERT_EQ(a.timers.size(), 2u);
  EXPECT_EQ(a.timers[0].second, 10u);
  EXPECT_EQ(a.timers[1].second, 20u);
}

TEST(SimulationTest, TimerExpiringAtACrashedNodeIsNotLeaked) {
  Simulation sim(1, LatencyModel::Uniform(1, 1000));
  Recorder a;
  NodeId ida = sim.Register(&a, 0);
  std::uint64_t lost = a.SetTimer(1000, {.key = 1});
  a.SetTimer(5000, {.key = 2});
  sim.faults().Crash(ida);
  sim.RunUntil(2000);  // `lost` expires unhandled while the node is down
  sim.faults().Recover(ida);
  EXPECT_TRUE(a.timers.empty());
  // No longer pending, so cancelling it must not count a queued timer.
  a.CancelTimer(lost);
  EXPECT_EQ(sim.queued_events(), 1u);
  EXPECT_EQ(sim.live_events(), 1u);
  sim.RunUntilIdle();
  ASSERT_EQ(a.timers.size(), 1u);
  EXPECT_EQ(a.timers[0].second, 2u);
  EXPECT_EQ(sim.events_dispatched(), 2u);
}

/// Appends every firing, from any node, to one shared log.
class TimerLog : public Process {
 public:
  explicit TimerLog(std::vector<std::pair<SimTime, std::uint64_t>>* log)
      : log_(log) {}
  void OnMessage(const MessagePtr&) override {}
  void OnTimer(const TimerTag& tag) override {
    log_->emplace_back(Now(), tag.key);
  }

  using Process::CancelTimer;
  using Process::SetTimer;

 private:
  std::vector<std::pair<SimTime, std::uint64_t>>* log_;
};

TEST(SimulationTest, CancelledTimersAreNeverDispatchedAndQueueStaysBounded) {
  Simulation sim(1, LatencyModel::Uniform(1, 1000));
  std::vector<std::pair<SimTime, std::uint64_t>> fired;
  std::vector<std::unique_ptr<TimerLog>> nodes;
  for (int i = 0; i < 3; ++i) {
    nodes.push_back(std::make_unique<TimerLog>(&fired));
    sim.Register(nodes.back().get(), 0);
  }
  struct Set {
    std::size_t node;
    std::uint64_t id;
  };
  std::vector<Set> history;  // every timer ever set, fired or cancelled
  // Sorted reference of the uncancelled timers: (time, set order) -> id.
  // Each timer's tag is its set order, so a firing logs its own key.
  std::map<std::pair<SimTime, std::uint64_t>, std::uint64_t> live;
  std::map<std::uint64_t, std::pair<SimTime, std::uint64_t>> key_of;
  auto drop = [&](std::uint64_t id) {
    auto it = key_of.find(id);
    if (it == key_of.end()) return;
    live.erase(it->second);
    key_of.erase(it);
  };
  Rng rng(2024);
  std::uint64_t order = 0;
  // Cancels that compacted the queue, and steps that dropped cancelled
  // timers besides their one dispatch: the run must exercise both.
  int cancel_drops = 0, step_drops = 0;
  for (int round = 0; round < 20000; ++round) {
    const std::size_t queued = sim.queued_events();
    std::uint64_t r = rng.NextBounded(100);
    if (r < 40) {  // set: small delays tie often, a few are parked far out
      std::size_t n = rng.NextBounded(nodes.size());
      Duration delay = rng.NextBounded(8) == 0 ? Seconds(8)
                                               : rng.NextBounded(40) * 10;
      std::uint64_t id = nodes[n]->SetTimer(delay, {.key = order});
      history.push_back({n, id});
      auto key = std::make_pair(sim.Now() + delay, order++);
      live.emplace(key, id);
      key_of.emplace(id, key);
    } else if (r < 70 && !history.empty()) {
      // Cancel any timer ever set: pending, cancelled already, or fired.
      const Set& s = history[rng.NextBounded(history.size())];
      nodes[s.node]->CancelTimer(s.id);
      if (rng.NextBool(0.2)) nodes[s.node]->CancelTimer(s.id);
      drop(s.id);
      if (sim.queued_events() < queued) cancel_drops++;
    } else if (r < 72) {  // amnesia flush of one node's pending timers
      std::size_t n = rng.NextBounded(nodes.size());
      sim.CrashAmnesia(static_cast<NodeId>(n));
      sim.RecoverAmnesia(static_cast<NodeId>(n));
      for (const Set& s : history) {
        if (s.node == n) drop(s.id);
      }
    } else {
      const std::size_t before = fired.size();
      const bool stepped = sim.Step();
      ASSERT_EQ(stepped, !live.empty());
      if (sim.queued_events() + 1 < queued) step_drops++;
      if (stepped) {
        ASSERT_EQ(fired.size(), before + 1);
        auto head = live.begin();
        ASSERT_EQ(fired.back(), head->first);
        key_of.erase(head->second);
        live.erase(head);
      }
    }
    ASSERT_EQ(sim.live_events(), live.size());
    ASSERT_LE(sim.queued_events(), 2 * sim.live_events() + 1);
    ASSERT_EQ(sim.events_dispatched(), fired.size());
  }
  EXPECT_GT(cancel_drops, 0);
  EXPECT_GT(step_drops, 0);
}

}  // namespace
}  // namespace ziziphus::sim
