#include <memory>

#include "app/bank.h"
#include "core/system.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace ziziphus {
namespace {

using app::BankStateMachine;
using core::NodeConfig;
using core::ZiziphusSystem;

struct Fixture {
  explicit Fixture(std::size_t zones, NodeConfig cfg = {},
                   std::uint64_t seed = 1, std::size_t f = 1)
      : sys(seed, sim::LatencyModel::PaperGeoMatrix()) {
    for (std::size_t z = 0; z < zones; ++z) {
      sys.AddZone(/*cluster=*/0, static_cast<RegionId>(z % 7), f, 3 * f + 1);
    }
    cfg.pbft.request_timeout_us = Seconds(2);
    sys.Finalize(cfg,
                 [](ZoneId) { return std::make_unique<BankStateMachine>(); });
    client = std::make_unique<testutil::TestClient>(&sys.keys(), f);
    sys.sim().Register(client.get(), 0);
  }

  BankStateMachine& bank(ZoneId z, std::size_t member) {
    return static_cast<BankStateMachine&>(sys.Member(z, member)->app());
  }
  core::ZiziphusNode* primary(ZoneId z) { return sys.PrimaryOf(z); }

  void Bootstrap(ClientId c, ZoneId home, std::int64_t balance = 1000) {
    sys.BootstrapClient(c, home, [balance](ClientId id) {
      return storage::KvStore::Map{
          {BankStateMachine::AccountKey(id), std::to_string(balance)}};
    });
  }

  ZiziphusSystem sys;
  std::unique_ptr<testutil::TestClient> client;
};

TEST(DataSyncTest, MigrationCommitsOnAllZones) {
  Fixture fx(3);
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 0);

  auto ts = fx.client->SubmitGlobal(fx.primary(0)->id(), /*source=*/0,
                                    /*dest=*/1);
  fx.sys.sim().RunFor(Seconds(3));

  EXPECT_TRUE(fx.client->Synced(ts));
  EXPECT_TRUE(fx.client->MigrationDone(ts));
  // Every node of every zone executed the meta-data update.
  for (const auto& node : fx.sys.nodes()) {
    EXPECT_EQ(node->metadata().HomeOf(c), 1u)
        << "node " << node->id() << " zone " << node->zone();
    EXPECT_EQ(node->metadata().MigrationsOf(c), 1u);
  }
}

TEST(DataSyncTest, MetadataCountsUpdated) {
  Fixture fx(3);
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 0);
  ASSERT_EQ(fx.sys.Member(0, 0)->metadata().ClientsInZone(0), 1u);

  fx.client->SubmitGlobal(fx.primary(0)->id(), 0, 2);
  fx.sys.sim().RunFor(Seconds(3));

  for (const auto& node : fx.sys.nodes()) {
    EXPECT_EQ(node->metadata().ClientsInZone(0), 0u);
    EXPECT_EQ(node->metadata().ClientsInZone(2), 1u);
  }
}

TEST(DataSyncTest, RecordsMoveToDestination) {
  Fixture fx(3);
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 0, 1234);
  ASSERT_EQ(fx.bank(0, 0).BalanceOf(c), 1234);
  ASSERT_EQ(fx.bank(1, 0).BalanceOf(c), -1);

  auto ts = fx.client->SubmitGlobal(fx.primary(0)->id(), 0, 1);
  fx.sys.sim().RunFor(Seconds(3));
  ASSERT_TRUE(fx.client->MigrationDone(ts));

  // Destination zone has the account with the exact balance on all nodes.
  for (std::size_t m = 0; m < 4; ++m) {
    EXPECT_EQ(fx.bank(1, m).BalanceOf(c), 1234) << "member " << m;
  }
}

TEST(DataSyncTest, LockBitsFollowMigration) {
  Fixture fx(3);
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 0);
  ASSERT_TRUE(fx.sys.Member(0, 0)->locks().IsLocked(c));

  auto ts = fx.client->SubmitGlobal(fx.primary(0)->id(), 0, 1);
  fx.sys.sim().RunFor(Seconds(3));
  ASSERT_TRUE(fx.client->MigrationDone(ts));

  // Source zone: unlocked (stale data must not be served; Alg. 1 line 18).
  for (std::size_t m = 0; m < 4; ++m) {
    EXPECT_FALSE(fx.sys.Member(0, m)->locks().IsLocked(c));
    EXPECT_TRUE(fx.sys.Member(1, m)->locks().IsLocked(c));
  }
}

TEST(DataSyncTest, SourceZoneRejectsLocalRequestsAfterMigration) {
  Fixture fx(3);
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 0);
  auto mts = fx.client->SubmitGlobal(fx.primary(0)->id(), 0, 1);
  fx.sys.sim().RunFor(Seconds(3));
  ASSERT_TRUE(fx.client->MigrationDone(mts));

  // Local request to the *old* zone is dropped; the new zone serves it.
  auto stale = fx.client->SubmitLocal(fx.primary(0)->id(), "DEP 5");
  fx.sys.sim().RunFor(Seconds(1));
  EXPECT_FALSE(fx.client->IsComplete(stale));
  EXPECT_GE(fx.sys.sim().counters().Get(obs::CounterId::kNodeUnlockedClientRejected), 1u);

  auto fresh = fx.client->SubmitLocal(fx.primary(1)->id(), "DEP 5");
  fx.sys.sim().RunFor(Seconds(1));
  EXPECT_TRUE(fx.client->IsComplete(fresh));
  EXPECT_EQ(fx.bank(1, 0).BalanceOf(c), 1005);
}

TEST(DataSyncTest, SequentialMigrationsChainCorrectly) {
  Fixture fx(3);
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 0, 500);

  auto t1 = fx.client->SubmitGlobal(fx.primary(0)->id(), 0, 1);
  fx.sys.sim().RunFor(Seconds(3));
  ASSERT_TRUE(fx.client->MigrationDone(t1));
  auto t2 = fx.client->SubmitGlobal(fx.primary(0)->id(), 1, 2);
  fx.sys.sim().RunFor(Seconds(3));
  ASSERT_TRUE(fx.client->MigrationDone(t2));

  for (const auto& node : fx.sys.nodes()) {
    EXPECT_EQ(node->metadata().HomeOf(c), 2u);
    EXPECT_EQ(node->metadata().MigrationsOf(c), 2u);
  }
  EXPECT_EQ(fx.bank(2, 0).BalanceOf(c), 500);
}

TEST(DataSyncTest, MetadataDigestsConvergeAcrossAllNodes) {
  Fixture fx(3);
  // Several clients migrating concurrently.
  std::vector<std::unique_ptr<testutil::TestClient>> clients;
  for (int i = 0; i < 6; ++i) {
    clients.push_back(
        std::make_unique<testutil::TestClient>(&fx.sys.keys(), 1));
    fx.sys.sim().Register(clients.back().get(), 0);
    fx.Bootstrap(clients.back()->id(), static_cast<ZoneId>(i % 3));
  }
  for (int i = 0; i < 6; ++i) {
    ZoneId src = static_cast<ZoneId>(i % 3);
    ZoneId dst = static_cast<ZoneId>((i + 1) % 3);
    clients[i]->SubmitGlobal(fx.primary(0)->id(), src, dst);
  }
  fx.sys.sim().RunFor(Seconds(5));

  std::uint64_t digest = fx.sys.nodes()[0]->metadata().StateDigest();
  for (const auto& node : fx.sys.nodes()) {
    EXPECT_EQ(node->metadata().StateDigest(), digest)
        << "node " << node->id();
    EXPECT_EQ(node->metadata().executed_count(), 6u);
  }
}

TEST(DataSyncTest, NonStableLeaderElectsPerRequest) {
  NodeConfig cfg;
  cfg.sync.stable_leader = false;
  Fixture fx(3, cfg);
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 0);

  // Without a stable leader the destination zone's primary initiates.
  auto ts = fx.client->SubmitGlobal(fx.primary(1)->id(), 0, 1);
  fx.sys.sim().RunFor(Seconds(4));
  EXPECT_TRUE(fx.client->Synced(ts));
  EXPECT_TRUE(fx.client->MigrationDone(ts));
  for (const auto& node : fx.sys.nodes()) {
    EXPECT_EQ(node->metadata().HomeOf(c), 1u);
  }
}

TEST(DataSyncTest, PolicyRejectionIsDeterministic) {
  NodeConfig cfg;
  cfg.policy.max_migrations_per_client = 1;
  Fixture fx(3, cfg);
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 0);

  auto t1 = fx.client->SubmitGlobal(fx.primary(0)->id(), 0, 1);
  fx.sys.sim().RunFor(Seconds(3));
  ASSERT_TRUE(fx.client->MigrationDone(t1));

  // Second migration violates the quota: committed but rejected at
  // execution, identically on every node.
  auto t2 = fx.client->SubmitGlobal(fx.primary(0)->id(), 1, 2);
  fx.sys.sim().RunFor(Seconds(3));
  EXPECT_TRUE(fx.client->Synced(t2));
  EXPECT_FALSE(fx.client->MigrationDone(t2));
  EXPECT_EQ(fx.client->ResultOf(t2).rfind("rejected", 0), 0u)
      << fx.client->ResultOf(t2);
  for (const auto& node : fx.sys.nodes()) {
    EXPECT_EQ(node->metadata().HomeOf(c), 1u);  // unchanged
    EXPECT_EQ(node->metadata().MigrationsOf(c), 1u);
  }
}

TEST(DataSyncTest, MaxClientsPerZonePolicyEnforced) {
  NodeConfig cfg;
  cfg.policy.max_clients_per_zone = 1;
  Fixture fx(3, cfg);
  // Two clients; zone 1 already hosts one of them.
  auto other = std::make_unique<testutil::TestClient>(&fx.sys.keys(), 1);
  fx.sys.sim().Register(other.get(), 0);
  fx.Bootstrap(fx.client->id(), 0);
  fx.Bootstrap(other->id(), 1);

  auto ts = fx.client->SubmitGlobal(fx.primary(0)->id(), 0, 1);
  fx.sys.sim().RunFor(Seconds(3));
  EXPECT_TRUE(fx.client->Synced(ts));
  EXPECT_EQ(fx.client->ResultOf(ts).rfind("rejected", 0), 0u);
  for (const auto& node : fx.sys.nodes()) {
    EXPECT_EQ(node->metadata().HomeOf(fx.client->id()), 0u);
  }
}

TEST(DataSyncTest, StewardStyleCommandExecutesEverywhere) {
  Fixture fx(3);
  ClientId c = fx.client->id();
  // Steward: fully replicated account.
  fx.sys.BootstrapClient(
      c, 0,
      [](ClientId id) {
        return storage::KvStore::Map{
            {BankStateMachine::AccountKey(id), "100"}};
      },
      /*replicate_everywhere=*/true);

  auto ts = fx.client->SubmitGlobal(fx.primary(0)->id(), 0, 0, "DEP 11");
  fx.sys.sim().RunFor(Seconds(3));
  EXPECT_TRUE(fx.client->Synced(ts));
  EXPECT_EQ(fx.client->ResultOf(ts), "ok");
  // The command applied on every node of every zone.
  for (ZoneId z = 0; z < 3; ++z) {
    for (std::size_t m = 0; m < 4; ++m) {
      EXPECT_EQ(fx.bank(z, m).BalanceOf(c), 111) << "zone " << z;
    }
  }
}

TEST(DataSyncTest, ConcurrentMigrationsAllComplete) {
  Fixture fx(3);
  std::vector<std::unique_ptr<testutil::TestClient>> clients;
  std::vector<RequestTimestamp> tss;
  for (int i = 0; i < 10; ++i) {
    clients.push_back(
        std::make_unique<testutil::TestClient>(&fx.sys.keys(), 1));
    fx.sys.sim().Register(clients.back().get(), i % 7);
    fx.Bootstrap(clients.back()->id(), static_cast<ZoneId>(i % 3));
  }
  for (int i = 0; i < 10; ++i) {
    ZoneId src = static_cast<ZoneId>(i % 3);
    ZoneId dst = static_cast<ZoneId>((i + 1) % 3);
    tss.push_back(clients[i]->SubmitGlobal(fx.primary(0)->id(), src, dst));
  }
  fx.sys.sim().RunFor(Seconds(5));
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(clients[i]->MigrationDone(tss[i])) << "client " << i;
  }
}

TEST(DataSyncTest, ZoneCountMatters) {
  // 5 and 7 zone deployments also work end to end.
  for (std::size_t zones : {5u, 7u}) {
    Fixture fx(zones);
    ClientId c = fx.client->id();
    fx.Bootstrap(c, 0);
    auto ts = fx.client->SubmitGlobal(fx.primary(0)->id(), 0, 1);
    fx.sys.sim().RunFor(Seconds(4));
    EXPECT_TRUE(fx.client->MigrationDone(ts)) << zones << " zones";
    for (const auto& node : fx.sys.nodes()) {
      EXPECT_EQ(node->metadata().HomeOf(c), 1u);
    }
  }
}

TEST(DataSyncTest, LargerZonesWork) {
  // f = 2 (7 nodes per zone).
  Fixture fx(3, NodeConfig{}, /*seed=*/1, /*f=*/2);
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 0);
  auto ts = fx.client->SubmitGlobal(fx.primary(0)->id(), 0, 1);
  fx.sys.sim().RunFor(Seconds(4));
  EXPECT_TRUE(fx.client->MigrationDone(ts));
}

}  // namespace
}  // namespace ziziphus
