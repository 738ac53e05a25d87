#include <memory>

#include "app/bank.h"
#include "app/experiment.h"
#include "baselines/pbft_process.h"
#include "baselines/two_level.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace ziziphus {
namespace {

using app::BankStateMachine;

struct TwoLevelFixture {
  explicit TwoLevelFixture(std::size_t zones = 3, std::uint64_t seed = 1)
      : sys(seed, sim::LatencyModel::PaperGeoMatrix()) {
    for (std::size_t z = 0; z < zones; ++z) {
      sys.AddZone(0, static_cast<RegionId>(z % 7), 1, 4);
    }
    // Finalize adds the witness zones (three zones get one).
    baselines::TwoLevelNode::Config cfg;
    cfg.pbft.request_timeout_us = Seconds(2);
    sys.Finalize(cfg, [](ZoneId) {
      return std::make_unique<BankStateMachine>();
    });
    client = std::make_unique<testutil::TestClient>(&sys.keys(), 1);
    sys.sim().Register(client.get(), 0);
  }

  void Bootstrap(ClientId c, ZoneId home) {
    sys.BootstrapClient(c, home, [](ClientId id) {
      return storage::KvStore::Map{
          {BankStateMachine::AccountKey(id), "1000"}};
    });
  }
  BankStateMachine& bank(ZoneId z, std::size_t m) {
    return static_cast<BankStateMachine&>(sys.node(
        sys.topology().zone(z).members[m])->app());
  }

  baselines::TwoLevelSystem sys;
  std::unique_ptr<testutil::TestClient> client;
};

TEST(TwoLevelTest, LocalTransactionsUseZonePbft) {
  TwoLevelFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 1);
  auto ts = fx.client->SubmitLocal(fx.sys.PrimaryOf(1)->id(), "DEP 9");
  fx.sys.sim().RunFor(Seconds(1));
  EXPECT_TRUE(fx.client->IsComplete(ts));
  EXPECT_EQ(fx.bank(1, 0).BalanceOf(c), 1009);
}

TEST(TwoLevelTest, GlobalMigrationThroughTopLevelPbft) {
  TwoLevelFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 1);
  // Global requests go to the leader zone (zone 0).
  auto ts = fx.client->SubmitGlobal(fx.sys.PrimaryOf(0)->id(), 1, 2);
  fx.sys.sim().RunFor(Seconds(4));
  EXPECT_TRUE(fx.client->Synced(ts));
  EXPECT_TRUE(fx.client->MigrationDone(ts));
  // Every real zone and the witness executed the meta-data update.
  for (ZoneId z = 0; z < 4; ++z) {
    EXPECT_EQ(fx.sys.node(fx.sys.topology().zone(z).members[0])
                  ->metadata()
                  .HomeOf(c),
              2u)
        << "zone " << z;
  }
  // Records and lock bit moved.
  EXPECT_EQ(fx.bank(2, 0).BalanceOf(c), 1000);
  EXPECT_TRUE(fx.sys.node(fx.sys.topology().zone(2).members[0])
                  ->locks()
                  .IsLocked(c));
  EXPECT_FALSE(fx.sys.node(fx.sys.topology().zone(1).members[0])
                   ->locks()
                   .IsLocked(c));
}

TEST(TwoLevelTest, GlobalOrderIsTotal) {
  TwoLevelFixture fx;
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
    clients[i]->SubmitGlobal(fx.sys.PrimaryOf(0)->id(), src, dst);
  }
  fx.sys.sim().RunFor(Seconds(5));
  std::uint64_t digest = fx.sys.node(0)->metadata().StateDigest();
  for (ZoneId z = 0; z < 3; ++z) {
    for (std::size_t m = 0; m < 4; ++m) {
      EXPECT_EQ(fx.sys.node(fx.sys.topology().zone(z).members[m])
                    ->metadata()
                    .StateDigest(),
                digest);
    }
  }
}

TEST(TwoLevelTest, WitnessZoneHasNoLocalClients) {
  TwoLevelFixture fx;
  // The witness participates in global consensus but never serves local
  // transactions (paper: "they do not process any local transactions").
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 0);
  auto ts = fx.client->SubmitGlobal(fx.sys.PrimaryOf(0)->id(), 0, 1);
  fx.sys.sim().RunFor(Seconds(3));
  ASSERT_TRUE(fx.client->MigrationDone(ts));
  const core::ZoneInfo& witness = fx.sys.topology().zone(3);
  EXPECT_EQ(witness.members.size(), 1u);
  auto& app = static_cast<BankStateMachine&>(
      fx.sys.node(witness.members[0])->app());
  EXPECT_EQ(app.TotalBalance(), 0);  // no client data ever lands there
}

TEST(StewardTest, DefaultConfigIsFullyGlobal) {
  core::NodeConfig cfg = app::StewardNodeConfig();
  EXPECT_TRUE(cfg.sync.stable_leader);
  EXPECT_FALSE(cfg.lazy_sync);
}

TEST(FlatPbftTest, GeoSpanningGroupCommits) {
  crypto::KeyRegistry keys(9 ^ 0x5eedc0deULL);
  sim::Simulation sim(9, sim::LatencyModel::PaperGeoMatrix());
  // 4 nodes in CA, 3 in OH, 3 in QC: one group tolerating 3 faults.
  std::vector<std::unique_ptr<baselines::PbftReplicaProcess>> reps;
  std::vector<NodeId> group;
  RegionId regions[] = {sim::kCalifornia, sim::kOhio, sim::kQuebec};
  for (int z = 0; z < 3; ++z) {
    int count = z == 0 ? 4 : 3;
    for (int i = 0; i < count; ++i) {
      auto rep = std::make_unique<baselines::PbftReplicaProcess>();
      group.push_back(sim.Register(rep.get(), regions[z]));
      reps.push_back(std::move(rep));
    }
  }
  pbft::PbftConfig cfg;
  cfg.members = group;
  cfg.f = 3;
  cfg.request_timeout_us = Seconds(5);
  for (auto& rep : reps) {
    rep->Init(&keys, cfg, std::make_unique<pbft::EchoStateMachine>());
  }
  testutil::TestClient client(&keys, 3);
  sim.Register(&client, sim::kOhio);
  client.SubmitLocal(group[0], "geo-op");
  sim.RunFor(Seconds(2));
  EXPECT_EQ(client.completed(), 1u);
  // Quorum 7 of 10 spans at least two regions; latency is WAN-scale.
  for (auto& rep : reps) {
    auto& app = static_cast<pbft::EchoStateMachine&>(rep->app());
    EXPECT_LE(app.applied(), 1u);
  }
}

}  // namespace
}  // namespace ziziphus
