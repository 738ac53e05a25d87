// Amnesia crash-recovery tests: the durable-state model, the rejoin
// protocol (WAL replay, checkpoint install, state-transfer catch-up), the
// recovery-aware invariants, and a seeded chaos sweep that amnesia-crashes
// nodes mid-protocol and demands byte-identical observability exports on
// both event-queue implementations.

#include <memory>
#include <string>
#include <vector>

#include "app/bank.h"
#include "app/chaos.h"
#include "core/system.h"
#include "gtest/gtest.h"
#include "sim/invariants.h"
#include "tests/test_util.h"

namespace ziziphus {
namespace {

using app::BankStateMachine;
using app::ChaosOptions;
using app::ChaosReport;
using core::NodeConfig;
using core::ZiziphusSystem;

// ------------------------------------------------------------ timer flush

class TimerProbe : public sim::Process {
 public:
  std::vector<std::uint64_t> fired;
  void OnMessage(const sim::MessagePtr&) override {}
  void OnTimer(std::uint64_t tag) override { fired.push_back(tag); }
  using sim::Process::SetTimer;
};

TEST(AmnesiaCrashTest, PendingTimersAreFlushed) {
  sim::Simulation s(1, sim::LatencyModel::Uniform(1, 1000));
  TimerProbe p;
  NodeId id = s.Register(&p, 0);
  p.SetTimer(Millis(5), 1);
  p.SetTimer(Millis(50), 2);
  s.RunFor(Millis(10));
  ASSERT_EQ(p.fired, (std::vector<std::uint64_t>{1}));
  // The crash wipes RAM — including the armed timer. After recovery the
  // stale queued event must be discarded, not delivered to the fresh node.
  s.CrashAmnesia(id);
  s.RecoverAmnesia(id);
  p.SetTimer(Millis(5), 3);
  s.RunFor(Seconds(1));
  EXPECT_EQ(p.fired, (std::vector<std::uint64_t>{1, 3}));
}

TEST(AmnesiaCrashTest, PlainCrashNeverDowngradesAmnesia) {
  sim::Simulation s(1, sim::LatencyModel::Uniform(1, 1000));
  TimerProbe p;
  NodeId id = s.Register(&p, 0);
  s.CrashAmnesia(id);
  // A base-timeline crash landing on an already-amnesiac node must not
  // erase the amnesia flag: the volatile state is gone either way, so the
  // recovery path has to run the rejoin protocol.
  s.faults().Crash(id);
  EXPECT_TRUE(s.faults().IsAmnesiac(id));
  s.RecoverAmnesia(id);
  EXPECT_FALSE(s.faults().IsCrashed(id));
}

// ------------------------------------------------------- role-directed

struct RecoveryFixture {
  explicit RecoveryFixture(std::size_t zones = 3, std::uint64_t seed = 1)
      : sys(seed, sim::LatencyModel::PaperGeoMatrix()) {
    for (std::size_t z = 0; z < zones; ++z) {
      sys.AddZone(0, static_cast<RegionId>(z % 7), 1, 4);
    }
    NodeConfig cfg;
    cfg.pbft.request_timeout_us = Millis(400);
    cfg.sync.retry_timeout_us = Millis(1500);
    cfg.sync.response_query_timeout_us = Millis(800);
    cfg.sync.relay_watch_timeout_us = Millis(1200);
    sys.Finalize(cfg,
                 [](ZoneId) { return std::make_unique<BankStateMachine>(); });
    client = std::make_unique<testutil::TestClient>(&sys.keys(), 1);
    sys.sim().Register(client.get(), 0);
  }

  void Bootstrap(ClientId c, ZoneId home) {
    sys.BootstrapClient(c, home, [](ClientId id) {
      return storage::KvStore::Map{
          {BankStateMachine::AccountKey(id), "1000"}};
    });
  }

  std::vector<sim::InvariantViolation> CheckInvariants() {
    sim::InvariantChecker::Options opt;
    opt.balance_of = [](const core::ZoneStateMachine& app, ClientId c) {
      return static_cast<const BankStateMachine&>(app).BalanceOf(c);
    };
    opt.total_balance = [](const core::ZoneStateMachine& app) {
      return static_cast<const BankStateMachine&>(app).TotalBalance();
    };
    return sim::InvariantChecker(std::move(opt)).Check(sys);
  }

  static std::string Describe(const std::vector<sim::InvariantViolation>& v) {
    std::string out;
    for (const auto& x : v) out += x.invariant + ": " + x.detail + "\n";
    return out;
  }

  ZiziphusSystem sys;
  std::unique_ptr<testutil::TestClient> client;
};

TEST(RecoveryTest, AmnesiacPbftPrimaryRejoinsWithConsistentPrefix) {
  RecoveryFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 0);
  NodeId primary = fx.sys.PrimaryOf(0)->id();
  fx.client->EnableRetry(fx.sys.topology().zone(0).members, Millis(900));
  auto t1 = fx.client->SubmitLocal(primary, "DEP 1");
  fx.sys.sim().RunFor(Seconds(1));
  ASSERT_TRUE(fx.client->IsComplete(t1));

  // The primary forgets everything volatile mid-run; the zone view-changes
  // around it while it is down.
  fx.sys.sim().CrashAmnesia(primary);
  auto t2 = fx.client->SubmitLocal(fx.sys.topology().zone(0).members[1],
                                   "DEP 2");
  fx.sys.sim().RunFor(Seconds(4));
  ASSERT_TRUE(fx.client->IsComplete(t2));

  fx.sys.sim().RecoverAmnesia(primary);
  auto t3 = fx.client->SubmitLocal(fx.sys.topology().zone(0).members[1],
                                   "DEP 4");
  fx.sys.sim().RunFor(Seconds(8));
  EXPECT_TRUE(fx.client->IsComplete(t3));

  core::ZiziphusNode* node = fx.sys.node(primary);
  EXPECT_EQ(node->recoveries(), 1u);
  // WAL replay restored the pre-crash execution; state transfer caught up
  // with what committed during the outage.
  EXPECT_GE(node->pbft().last_executed(), 2u);
  EXPECT_GE(fx.sys.sim().counters().Get(obs::CounterId::kRecoveryRejoins),
            1u);
  // The node executed again after rejoin, so time-to-rejoin was sampled.
  EXPECT_GE(fx.sys.sim()
                .recorder()
                .histogram(obs::HistogramId::kRecoveryTimeToRejoinUs)
                .count(),
            1u);
  auto v = fx.CheckInvariants();
  EXPECT_TRUE(v.empty()) << RecoveryFixture::Describe(v);
}

TEST(RecoveryTest, AmnesiacBackupCatchesUpAndHoldsInvariants) {
  RecoveryFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 0);
  NodeId primary = fx.sys.PrimaryOf(0)->id();
  NodeId backup = fx.sys.topology().zone(0).members[2];
  auto t1 = fx.client->SubmitLocal(primary, "DEP 1");
  fx.sys.sim().RunFor(Millis(600));
  ASSERT_TRUE(fx.client->IsComplete(t1));

  fx.sys.sim().CrashAmnesia(backup);
  auto t2 = fx.client->SubmitLocal(primary, "DEP 2");
  fx.sys.sim().RunFor(Seconds(2));
  ASSERT_TRUE(fx.client->IsComplete(t2));
  fx.sys.sim().RecoverAmnesia(backup);
  auto t3 = fx.client->SubmitLocal(primary, "DEP 4");
  fx.sys.sim().RunFor(Seconds(6));
  EXPECT_TRUE(fx.client->IsComplete(t3));

  core::ZiziphusNode* node = fx.sys.node(backup);
  EXPECT_EQ(node->recoveries(), 1u);
  EXPECT_GE(node->pbft().last_executed(), 2u);
  auto v = fx.CheckInvariants();
  EXPECT_TRUE(v.empty()) << RecoveryFixture::Describe(v);
}

TEST(RecoveryTest, AmnesiacSyncReplicaKeepsBallotPromises) {
  RecoveryFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 1);
  // A leader-zone replica loses RAM mid-migration. Its PROMISE for the
  // global ballot was persisted before it was sent, so after rejoin it can
  // never vote for a conflicting proposal (the promised-then-forgotten
  // invariant sweeps exactly this).
  auto mig = fx.client->SubmitGlobal(fx.sys.PrimaryOf(0)->id(), 1, 2);
  fx.sys.sim().RunFor(Millis(300));
  NodeId victim = fx.sys.topology().zone(0).members[2];
  fx.sys.sim().CrashAmnesia(victim);
  fx.sys.sim().RunFor(Seconds(1));
  fx.sys.sim().RecoverAmnesia(victim);
  fx.sys.sim().RunFor(Seconds(10));
  EXPECT_TRUE(fx.client->MigrationDone(mig));
  EXPECT_EQ(fx.sys.node(victim)->recoveries(), 1u);
  for (const auto& node : fx.sys.nodes()) {
    if (node->self() == victim) continue;
    EXPECT_EQ(node->metadata().HomeOf(c), 2u) << "node " << node->self();
  }
  auto v = fx.CheckInvariants();
  EXPECT_TRUE(v.empty()) << RecoveryFixture::Describe(v);
}

TEST(RecoveryTest, AmnesiacDestinationReplicaRecoversMigratedRecords) {
  RecoveryFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 1);
  auto mig = fx.client->SubmitGlobal(fx.sys.PrimaryOf(0)->id(), 1, 2);
  fx.sys.sim().RunFor(Millis(300));
  // A destination-zone backup forgets mid-transfer; the durable migration
  // marker re-installs the records (or the state-wait probe re-fetches
  // them) during rejoin.
  NodeId victim = fx.sys.topology().zone(2).members[3];
  fx.sys.sim().CrashAmnesia(victim);
  fx.sys.sim().RunFor(Seconds(1));
  fx.sys.sim().RecoverAmnesia(victim);
  fx.sys.sim().RunFor(Seconds(10));
  EXPECT_TRUE(fx.client->MigrationDone(mig));
  EXPECT_EQ(fx.sys.node(victim)->recoveries(), 1u);
  auto& bank =
      static_cast<BankStateMachine&>(fx.sys.node(victim)->app());
  EXPECT_EQ(bank.BalanceOf(c), 1000);
  auto v = fx.CheckInvariants();
  EXPECT_TRUE(v.empty()) << RecoveryFixture::Describe(v);
}

// ----------------------------------------------------------- chaos sweep

class RecoverySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecoverySweep, AmnesiaChaosConvergesIdenticallyOnBothQueues) {
  ChaosOptions opt;
  opt.seed = GetParam();
  opt.amnesia_crashes = 2;
  ChaosReport r = app::RunZiziphusChaos(opt);
  EXPECT_TRUE(r.violations.empty()) << r.Summary();
  EXPECT_TRUE(r.all_done) << r.Summary();
  ASSERT_TRUE(r.counters.count("recovery.rejoins"));
  EXPECT_GE(r.counters.at("recovery.rejoins"), 1u);
  // (No per-seed assertion on the time-to-rejoin histogram: a victim whose
  // recovery lands after the workload drained never executes again, which
  // is a legitimate empty histogram. The role-directed tests cover it.)
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoverySweep,
                         ::testing::Range<std::uint64_t>(1, 21));

// Regression: with this seed the global commit broadcast for a migration
// lands while the source zone's primary is amnesia-crashed. After rejoin
// the primary has no trace of the migration, so the source zone can never
// form the STATE certificate on its own; the destination's probes must
// re-ship the stored commit to bootstrap it. Without ReshipCommit this
// run wedges at 3/4 global completions until the deadline.
TEST(RecoveryChaosTest, CommitReshipUnwedgesAmnesiacSourcePrimary) {
  ChaosOptions opt;
  opt.seed = 4;
  opt.byzantine_per_zone = 1;
  opt.amnesia_crashes = 3;
  ChaosReport r = app::RunZiziphusChaos(opt);
  EXPECT_TRUE(r.violations.empty()) << r.Summary();
  EXPECT_TRUE(r.all_done) << r.Summary();
  ASSERT_TRUE(r.counters.count("sync.commits_reshipped"));
  EXPECT_GE(r.counters.at("sync.commits_reshipped"), 1u);
}

TEST(RecoveryChaosTest, RunsAreDeterministicPerSeed) {
  ChaosOptions opt;
  opt.seed = 7;
  opt.amnesia_crashes = 3;
  ChaosReport a = app::RunZiziphusChaos(opt);
  ChaosReport b = app::RunZiziphusChaos(opt);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.obs_json, b.obs_json);

  opt.seed = 8;
  ChaosReport c = app::RunZiziphusChaos(opt);
  EXPECT_NE(a.fingerprint, c.fingerprint);
}

}  // namespace
}  // namespace ziziphus
