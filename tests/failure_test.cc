#include <memory>

#include "app/bank.h"
#include "app/client.h"
#include "app/experiment.h"
#include "app/harness.h"
#include "core/system.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace ziziphus {
namespace {

using app::BankStateMachine;
using core::NodeConfig;
using core::ZiziphusSystem;

struct FailFixture {
  explicit FailFixture(std::size_t zones = 3,
                       NodeConfig cfg = app::harness::FaultHarnessNodeConfig(),
                       std::uint64_t seed = 1)
      : sys(seed, sim::LatencyModel::PaperGeoMatrix()) {
    for (std::size_t z = 0; z < zones; ++z) {
      sys.AddZone(0, static_cast<RegionId>(z % 7), 1, 4);
    }
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
  BankStateMachine& bank(ZoneId z, std::size_t member) {
    return static_cast<BankStateMachine&>(sys.Member(z, member)->app());
  }

  ZiziphusSystem sys;
  std::unique_ptr<testutil::TestClient> client;
};

TEST(FailureTest, BackupCrashPerZoneDoesNotBlockAnything) {
  FailFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 0);
  // One crashed backup in each zone (Figure 6 setup).
  for (ZoneId z = 0; z < 3; ++z) {
    fx.sys.sim().faults().Crash(fx.sys.topology().zone(z).members[3]);
  }
  auto local = fx.client->SubmitLocal(fx.sys.PrimaryOf(0)->id(), "DEP 1");
  fx.sys.sim().RunFor(Seconds(1));
  EXPECT_TRUE(fx.client->IsComplete(local));

  auto mig = fx.client->SubmitGlobal(fx.sys.PrimaryOf(0)->id(), 0, 1);
  fx.sys.sim().RunFor(Seconds(3));
  EXPECT_TRUE(fx.client->MigrationDone(mig));
}

TEST(FailureTest, LocalPrimaryCrashRecoversViaViewChange) {
  FailFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 0);
  // Crash zone 0's primary; client retries reach the backups, PBFT view
  // change elects member 1.
  fx.sys.sim().faults().Crash(fx.sys.topology().zone(0).members[0]);
  fx.client->EnableRetry(fx.sys.topology().zone(0).members, Millis(900));
  auto ts = fx.client->SubmitLocal(fx.sys.topology().zone(0).members[1],
                                   "DEP 7");
  fx.sys.sim().RunFor(Seconds(6));
  EXPECT_TRUE(fx.client->IsComplete(ts));
  EXPECT_EQ(fx.bank(0, 1).BalanceOf(c), 1007);
  EXPECT_GE(fx.sys.sim().counters().Get(obs::CounterId::kPbftNewViewsEntered), 1u);
}

TEST(FailureTest, GlobalPrimaryCrashMigrationStillCompletes) {
  FailFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 1);
  // The stable leader zone (zone 0) loses its primary before the request
  // arrives. Backups relay, suspect it (relay watch), a view change elects
  // a new primary which re-leads the migration (Section V-A).
  NodeId old_primary = fx.sys.PrimaryOf(0)->id();
  fx.sys.sim().faults().Crash(old_primary);
  // Client multicasts on timeout (Section V-A), reaching the live backups.
  fx.client->EnableRetry(fx.sys.topology().zone(0).members, Millis(1200));
  auto ts = fx.client->SubmitGlobal(fx.sys.topology().zone(0).members[1],
                                    /*source=*/1, /*dest=*/2);
  fx.sys.sim().RunFor(Seconds(10));
  EXPECT_TRUE(fx.client->MigrationDone(ts));
  for (const auto& node : fx.sys.nodes()) {
    if (node->id() == old_primary) continue;
    EXPECT_EQ(node->metadata().HomeOf(c), 2u) << "node " << node->id();
  }
}

TEST(FailureTest, WholeZoneFailureGlobalTransactionsSurvive) {
  FailFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 0);
  // Zone 2 dies entirely (natural disaster). Majority = 2 of 3 zones, so
  // global transactions between zones 0 and 1 still commit (Prop. 5.1).
  for (NodeId n : fx.sys.topology().zone(2).members) {
    fx.sys.sim().faults().Crash(n);
  }
  auto ts = fx.client->SubmitGlobal(fx.sys.PrimaryOf(0)->id(), 0, 1);
  fx.sys.sim().RunFor(Seconds(5));
  EXPECT_TRUE(fx.client->MigrationDone(ts));
  for (const auto& node : fx.sys.nodes()) {
    if (node->zone() == 2) continue;
    EXPECT_EQ(node->metadata().HomeOf(c), 1u);
  }
}

TEST(FailureTest, WholeZoneFailureLocalDataUnavailable) {
  FailFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 2);
  for (NodeId n : fx.sys.topology().zone(2).members) {
    fx.sys.sim().faults().Crash(n);
  }
  // The dead zone's client cannot be served anywhere (Prop. 5.4).
  auto ts = fx.client->SubmitLocal(fx.sys.topology().zone(2).members[0],
                                   "DEP 1");
  fx.sys.sim().RunFor(Seconds(2));
  EXPECT_FALSE(fx.client->IsComplete(ts));
  // Other zones reject it too: they do not hold the data (no lock).
  auto ts2 = fx.client->SubmitLocal(fx.sys.PrimaryOf(0)->id(), "DEP 1");
  fx.sys.sim().RunFor(Seconds(2));
  EXPECT_FALSE(fx.client->IsComplete(ts2));
}

TEST(FailureTest, LazySyncReplicatesZoneStateElsewhere) {
  NodeConfig cfg = app::harness::FaultHarnessNodeConfig();
  cfg.pbft.checkpoint_interval = 4;
  cfg.pbft.batch_max = 1;
  cfg.pbft.batch_timeout_us = 100;
  FailFixture fx(3, cfg);
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 0);
  // Enough local traffic in zone 0 to cross a checkpoint boundary.
  fx.client->SubmitLocalSequence(fx.sys.PrimaryOf(0)->id(), 8, "DEP 1 #");
  fx.sys.sim().RunFor(Seconds(4));
  EXPECT_GE(fx.sys.sim().counters().Get(obs::CounterId::kLazyCheckpointsShared), 1u);
  EXPECT_GE(fx.sys.sim().counters().Get(obs::CounterId::kLazyCheckpointsInstalled), 1u);
  // Nodes of zone 1 hold zone 0's stable snapshot.
  const storage::Checkpoint* cp =
      fx.sys.Member(1, 0)->lazy_sync().remote_checkpoints().Latest(0);
  ASSERT_NE(cp, nullptr);
  EXPECT_GE(cp->seq, 4u);
  EXPECT_FALSE(cp->snapshot.empty());
}

TEST(FailureTest, ResponseQueryRecoversLostCommit) {
  FailFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 0);
  // Cut the links from the leader zone's nodes to one follower-zone node
  // *after* accept: simulate by dropping all messages into zone 1's primary
  // briefly. Simpler deterministic variant: raise loss and verify the
  // protocol still completes thanks to retransmissions + response queries.
  fx.sys.sim().faults().set_loss_probability(0.05);
  fx.client->EnableRetry(fx.sys.topology().zone(0).members, Millis(1500));
  auto ts = fx.client->SubmitGlobal(fx.sys.PrimaryOf(0)->id(), 0, 1);
  fx.sys.sim().RunFor(Seconds(12));
  EXPECT_TRUE(fx.client->MigrationDone(ts));
}

TEST(FailureTest, ByzantineSourcePrimaryCannotForgeMigratedState) {
  FailFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 0);

  // Corrupt the "primary's" view of the client state on one node only: the
  // other source-zone nodes refuse to endorse mismatched records, so the
  // forged state never reaches the destination with a valid certificate.
  core::ZiziphusNode* src_primary = fx.sys.PrimaryOf(0);
  static_cast<BankStateMachine&>(src_primary->app())
      .OpenAccount(c, 999999);  // tampered balance

  fx.client->SubmitGlobal(fx.sys.PrimaryOf(0)->id(), 0, 1);
  fx.sys.sim().RunFor(Seconds(5));

  EXPECT_GE(fx.sys.sim().counters().Get(obs::CounterId::kMigStateMismatchRejected), 1u);
  // The forged balance must not appear at the destination.
  for (std::size_t m = 0; m < 4; ++m) {
    EXPECT_NE(fx.bank(1, m).BalanceOf(c), 999999);
  }
}

TEST(FailureTest, ChainSkipGuardPreventsWedge) {
  // A commit whose predecessor never commits (leader crashed mid-pipeline)
  // eventually executes via the chain-skip guard rather than wedging.
  FailFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 0);
  auto ts = fx.client->SubmitGlobal(fx.sys.PrimaryOf(0)->id(), 0, 1);
  fx.sys.sim().RunFor(Seconds(3));
  ASSERT_TRUE(fx.client->MigrationDone(ts));
  // (The guard itself is exercised indirectly; this asserts no regression
  // in the normal path and that the counter stays clean.)
  EXPECT_EQ(fx.sys.sim().counters().Get(obs::CounterId::kSyncChainSkip), 0u);
}

TEST(FailureTest, ResponseQueriesSuspectUnresponsiveGlobalPrimary) {
  // Section V-A response-query path with the initiator zone's primary
  // effectively partitioned: the leader-zone primary can send (Accepts go
  // out, the global transaction reaches the accepted phase everywhere) but
  // never hears back, so it cannot assemble the commit. Follower-zone
  // nodes' commit-wait timers fire and they multicast RESPONSE-QUERY to the
  // initiator zone; once 2f+1 distinct queriers accumulate, the leader
  // zone's backups suspect their own primary, a view change elects a new
  // one, and the retried global transaction commits in the new view.
  FailFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 1);
  NodeId gp = fx.sys.PrimaryOf(0)->id();
  for (ZoneId z = 1; z <= 2; ++z) {
    for (NodeId n : fx.sys.topology().zone(z).members) {
      fx.sys.sim().faults().CutOneWay(n, gp);
    }
  }
  fx.client->EnableRetry(fx.sys.topology().zone(0).members, Millis(1500));
  auto ts = fx.client->SubmitGlobal(gp, 1, 2);
  fx.sys.sim().RunFor(Seconds(20));

  EXPECT_TRUE(fx.client->MigrationDone(ts));
  EXPECT_GE(fx.sys.sim().counters().Get(obs::CounterId::kSyncResponseQueriesSent), 1u);
  EXPECT_GE(fx.sys.sim().counters().Get(obs::CounterId::kSyncPrimarySuspected), 1u);
  EXPECT_GE(fx.sys.sim().counters().Get(obs::CounterId::kPbftNewViewsEntered), 1u);
}

// The perfbench primary-crash shape at test scale: the paper placement with
// 3 zones, 10% global (zone 0 leads every migration) and the experiments'
// 8 s client retry. Zone 0's primary crashes mid-run. The zone must fail
// over in exactly one view change, to a live primary, and clients must
// find it: completions regain half the pre-crash rate within 3 s of the
// crash, not at the 8 s retry.
TEST(FailoverTest, ZonePrimaryCrashCostsOneViewChange) {
  constexpr std::size_t kClientsPerZone = 20;
  constexpr Duration kBucket = Millis(250);
  constexpr SimTime kCrashAt = Millis(1500);
  const app::DeploymentSpec dep = app::PaperDeployment(3);
  ZiziphusSystem sys(7, sim::LatencyModel::PaperGeoMatrix());
  for (const auto& z : dep.zones) {
    sys.AddZone(z.cluster, z.region, dep.f, dep.nodes_per_zone());
  }
  sys.Finalize(app::DefaultNodeConfig(),
               [](ZoneId) { return std::make_unique<BankStateMachine>(); });
  std::vector<std::unique_ptr<app::MobileClient>> clients;
  for (ZoneId z = 0; z < 3; ++z) {
    for (std::size_t i = 0; i < kClientsPerZone; ++i) {
      app::MobileClient::Config cc;
      cc.topology = &sys.topology();
      cc.keys = &sys.keys();
      cc.home = z;
      cc.mix.global_fraction = 0.1;
      cc.retry_timeout = Seconds(8);
      clients.push_back(std::make_unique<app::MobileClient>(std::move(cc)));
      NodeId id = sys.sim().Register(clients.back().get(), dep.zones[z].region);
      sys.BootstrapClient(id, z, [](ClientId c) {
        return storage::KvStore::Map{{BankStateMachine::AccountKey(c), "1000"}};
      });
    }
  }
  for (auto& c : clients) c->Start(0);
  const std::vector<NodeId>& zone0 = sys.topology().zone(0).members;
  sys.sim().schedule().CrashAt(kCrashAt, zone0[0]);

  auto completed = [&clients] {
    std::uint64_t n = 0;
    for (const auto& c : clients) {
      n += c->stats().local_completed + c->stats().global_completed;
    }
    return n;
  };
  // Pre-crash rate over [0.5 s, crash), after the clients' first ops.
  sys.sim().RunUntil(Millis(500));
  const std::uint64_t at_half_second = completed();
  sys.sim().RunUntil(kCrashAt);
  const double half_rate =
      static_cast<double>(completed() - at_half_second) /
      static_cast<double>((kCrashAt - Millis(500)) / kBucket) / 2;

  SimTime resumed_at = 0;
  bool dipped = false;
  for (SimTime t = kCrashAt; t < kCrashAt + Seconds(4); t += kBucket) {
    const std::uint64_t before = completed();
    sys.sim().RunUntil(t + kBucket);
    const double n = static_cast<double>(completed() - before);
    if (!dipped) {
      dipped = n < half_rate;
    } else if (resumed_at == 0 && n >= half_rate) {
      resumed_at = t + kBucket;
    }
  }
  ASSERT_TRUE(dipped) << "the crash never stalled the leader zone";
  ASSERT_NE(resumed_at, 0u) << "completions never recovered";
  EXPECT_LE(resumed_at - kCrashAt, Seconds(3));

  // Exactly one new view, led by a live replica, at every live member.
  for (std::size_t i = 1; i < zone0.size(); ++i) {
    const pbft::PbftEngine& pbft = sys.node(zone0[i])->pbft();
    EXPECT_EQ(pbft.view(), 1u) << "member " << i;
    EXPECT_TRUE(pbft.view_active()) << "member " << i;
    EXPECT_EQ(pbft.primary(), zone0[1]) << "member " << i;
    EXPECT_EQ(sys.sim().recorder().node_counters(zone0[i]).Get(
                  obs::CounterId::kPbftNewViewsEntered),
              1u)
        << "member " << i;
  }
}

}  // namespace
}  // namespace ziziphus
