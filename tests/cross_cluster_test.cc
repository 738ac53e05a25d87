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

/// Two clusters of three zones each (Section VI / Figure 3 topology).
struct ClusterFixture {
  explicit ClusterFixture(std::uint64_t seed = 1,
                          std::size_t clusters = 2,
                          std::size_t zones_per_cluster = 3)
      : sys(seed, sim::LatencyModel::PaperGeoMatrix()) {
    static const RegionId regions[] = {sim::kCalifornia, sim::kSydney,
                                       sim::kParis, sim::kLondon,
                                       sim::kTokyo};
    for (std::size_t c = 0; c < clusters; ++c) {
      for (std::size_t z = 0; z < zones_per_cluster; ++z) {
        sys.AddZone(static_cast<ClusterId>(c), regions[c % 5], 1, 4);
      }
    }
    NodeConfig cfg;
    cfg.pbft.request_timeout_us = Seconds(2);
    sys.Finalize(cfg,
                 [](ZoneId) { return std::make_unique<BankStateMachine>(); });
    client = std::make_unique<testutil::TestClient>(&sys.keys(), 1);
    sys.sim().Register(client.get(), 0);
  }

  BankStateMachine& bank(ZoneId z, std::size_t member) {
    return static_cast<BankStateMachine&>(sys.Member(z, member)->app());
  }
  void Bootstrap(ClientId c, ZoneId home, std::int64_t balance = 1000) {
    sys.BootstrapClient(c, home, [balance](ClientId id) {
      return storage::KvStore::Map{
          {BankStateMachine::AccountKey(id), std::to_string(balance)}};
    });
  }

  ZiziphusSystem sys;
  std::unique_ptr<testutil::TestClient> client;
};

TEST(CrossClusterTest, IntraClusterMigrationStaysLocal) {
  ClusterFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 0);

  // Zone 0 -> zone 1 (both in cluster 0): the other cluster must see no
  // meta-data change (regional meta-data, Section VI).
  auto ts = fx.client->SubmitGlobal(fx.sys.PrimaryOf(0)->id(), 0, 1);
  fx.sys.sim().RunFor(Seconds(3));
  ASSERT_TRUE(fx.client->MigrationDone(ts));

  for (const auto& node : fx.sys.nodes()) {
    if (node->zone() < 3) {
      EXPECT_EQ(node->metadata().HomeOf(c), 1u);
    } else {
      // Other cluster never learned about this client's move.
      EXPECT_EQ(node->metadata().MigrationsOf(c), 0u);
    }
  }
  EXPECT_EQ(fx.sys.sim().counters().Get(obs::CounterId::kSyncCrossProposesSent), 0u);
}

TEST(CrossClusterTest, CrossClusterMigrationCommitsOnBothClusters) {
  ClusterFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 0);  // home in cluster 0 (zone 0)

  // Migrate to zone 4 (cluster 1): destination zone initiates; the source
  // zone leads the source cluster's leg.
  auto ts = fx.client->SubmitGlobal(fx.sys.PrimaryOf(4)->id(), 0, 4);
  fx.sys.sim().RunFor(Seconds(5));

  EXPECT_TRUE(fx.client->Synced(ts));
  EXPECT_TRUE(fx.client->MigrationDone(ts));
  EXPECT_GE(fx.sys.sim().counters().Get(obs::CounterId::kSyncCrossProposesSent), 1u);
  EXPECT_GE(fx.sys.sim().counters().Get(obs::CounterId::kSyncPreparedSent), 1u);

  // Both clusters executed the transaction on their regional meta-data.
  for (const auto& node : fx.sys.nodes()) {
    EXPECT_EQ(node->metadata().HomeOf(c), 4u) << "node " << node->id();
  }
  // Records landed in the destination zone.
  for (std::size_t m = 0; m < 4; ++m) {
    EXPECT_EQ(fx.bank(4, m).BalanceOf(c), 1000);
    EXPECT_TRUE(fx.sys.Member(4, m)->locks().IsLocked(c));
  }
  // Source zone is unlocked.
  for (std::size_t m = 0; m < 4; ++m) {
    EXPECT_FALSE(fx.sys.Member(0, m)->locks().IsLocked(c));
  }
}

TEST(CrossClusterTest, LocalServiceResumesInNewCluster) {
  ClusterFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 1);
  auto ts = fx.client->SubmitGlobal(fx.sys.PrimaryOf(5)->id(), 1, 5);
  fx.sys.sim().RunFor(Seconds(5));
  ASSERT_TRUE(fx.client->MigrationDone(ts));

  auto dep = fx.client->SubmitLocal(fx.sys.PrimaryOf(5)->id(), "DEP 50");
  fx.sys.sim().RunFor(Seconds(2));
  EXPECT_TRUE(fx.client->IsComplete(dep));
  EXPECT_EQ(fx.bank(5, 0).BalanceOf(c), 1050);
}

TEST(CrossClusterTest, ManyClustersIndependentTraffic) {
  ClusterFixture fx(/*seed=*/3, /*clusters=*/4);
  // One intra-cluster migration per cluster, concurrently; plus one
  // cross-cluster migration.
  std::vector<std::unique_ptr<testutil::TestClient>> clients;
  std::vector<RequestTimestamp> tss;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(
        std::make_unique<testutil::TestClient>(&fx.sys.keys(), 1));
    fx.sys.sim().Register(clients.back().get(), 0);
    ZoneId home = static_cast<ZoneId>(3 * i);
    fx.Bootstrap(clients.back()->id(), home);
    ZoneId dest = static_cast<ZoneId>(3 * i + 1);
    tss.push_back(clients[i]->SubmitGlobal(
        fx.sys.PrimaryOf(home)->id(), home, dest));
  }
  fx.Bootstrap(fx.client->id(), 0);
  auto cross_ts = fx.client->SubmitGlobal(fx.sys.PrimaryOf(9)->id(), 0, 9);
  fx.sys.sim().RunFor(Seconds(6));

  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(clients[i]->MigrationDone(tss[i])) << "cluster " << i;
  }
  EXPECT_TRUE(fx.client->MigrationDone(cross_ts));
  // Clusters 1 and 2 never saw the cross-cluster client (it moved between
  // clusters 0 and 3).
  for (const auto& node : fx.sys.nodes()) {
    ClusterId cl = fx.sys.topology().zone(node->zone()).cluster;
    if (cl == 0 || cl == 3) {
      EXPECT_EQ(node->metadata().HomeOf(fx.client->id()), 9u);
    }
  }
}

TEST(CrossClusterTest, SequentialCrossClusterRoundTrip) {
  ClusterFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 0);
  auto t1 = fx.client->SubmitGlobal(fx.sys.PrimaryOf(3)->id(), 0, 3);
  fx.sys.sim().RunFor(Seconds(5));
  ASSERT_TRUE(fx.client->MigrationDone(t1));
  auto t2 = fx.client->SubmitGlobal(fx.sys.PrimaryOf(1)->id(), 3, 1);
  fx.sys.sim().RunFor(Seconds(5));
  ASSERT_TRUE(fx.client->MigrationDone(t2));
  for (std::size_t m = 0; m < 4; ++m) {
    EXPECT_EQ(fx.bank(1, m).BalanceOf(c), 1000);
  }
}

}  // namespace
}  // namespace ziziphus
