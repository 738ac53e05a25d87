// Focused data-synchronization behaviours not covered by the end-to-end
// suites: batching, duplicate suppression, lazy/checkpoint interplay and
// non-stable-mode concurrency.

#include <memory>

#include "app/bank.h"
#include "core/system.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace ziziphus {
namespace {

using app::BankStateMachine;
using core::NodeConfig;

struct SyncFixture {
  explicit SyncFixture(NodeConfig cfg = {}, std::uint64_t seed = 1)
      : sys(seed, sim::LatencyModel::PaperGeoMatrix()) {
    for (int z = 0; z < 3; ++z) sys.AddZone(0, z, 1, 4);
    cfg.pbft.request_timeout_us = Seconds(3);
    sys.Finalize(cfg,
                 [](ZoneId) { return std::make_unique<BankStateMachine>(); });
  }

  std::unique_ptr<testutil::TestClient> NewClient(ZoneId home) {
    auto c = std::make_unique<testutil::TestClient>(&sys.keys(), 1);
    sys.sim().Register(c.get(), 0);
    sys.BootstrapClient(c->id(), home, [](ClientId id) {
      return storage::KvStore::Map{
          {BankStateMachine::AccountKey(id), "1000"}};
    });
    return c;
  }

  core::ZiziphusSystem sys;
};

TEST(DataSyncUnitTest, ConcurrentMigrationsShareBatches) {
  NodeConfig cfg;
  cfg.sync.batch_max = 16;
  cfg.sync.batch_timeout_us = Millis(5);
  SyncFixture fx(cfg);
  std::vector<std::unique_ptr<testutil::TestClient>> clients;
  for (int i = 0; i < 12; ++i) clients.push_back(fx.NewClient(0));
  for (auto& c : clients) {
    c->SubmitGlobal(fx.sys.PrimaryOf(0)->id(), 0, 1);
  }
  fx.sys.sim().RunFor(Seconds(4));
  for (auto& c : clients) {
    EXPECT_EQ(c->MigrationDone(1), true) << c->id();
  }
  // 12 concurrent requests rode far fewer data-sync instances.
  std::uint64_t batches = fx.sys.sim().counters().Get(obs::CounterId::kSyncBatchesFormed);
  EXPECT_GE(batches, 1u);
  EXPECT_LE(batches, 4u);
}

TEST(DataSyncUnitTest, BatchSizeOneDisablesBatching) {
  NodeConfig cfg;
  cfg.sync.batch_max = 1;
  SyncFixture fx(cfg);
  std::vector<std::unique_ptr<testutil::TestClient>> clients;
  for (int i = 0; i < 5; ++i) clients.push_back(fx.NewClient(0));
  for (auto& c : clients) c->SubmitGlobal(fx.sys.PrimaryOf(0)->id(), 0, 1);
  fx.sys.sim().RunFor(Seconds(4));
  EXPECT_GE(fx.sys.sim().counters().Get(obs::CounterId::kSyncBatchesFormed), 5u);
  for (auto& c : clients) EXPECT_TRUE(c->MigrationDone(1));
}

TEST(DataSyncUnitTest, DuplicateRequestLedOnce) {
  SyncFixture fx;
  auto c = fx.NewClient(0);
  core::MigrationOp op;
  op.client = c->id();
  op.timestamp = 1;
  op.source = 0;
  op.destination = 1;
  auto req = std::make_shared<core::MigrationRequestMsg>();
  req->op = op;
  req->client_sig = fx.sys.keys().Sign(c->id(), req->digest());
  NodeId primary = fx.sys.PrimaryOf(0)->id();
  c->Send(primary, req);
  c->Send(primary, req);  // duplicate in the same batch window
  fx.sys.sim().RunFor(Millis(200));
  c->Send(primary, req);  // duplicate after the batch formed
  fx.sys.sim().RunFor(Seconds(3));
  // Executed once on every node.
  for (const auto& node : fx.sys.nodes()) {
    EXPECT_EQ(node->metadata().MigrationsOf(c->id()), 1u);
  }
}

// A client retry reaches every backup, and each relays it to the primary.
// A duplicate that lands while the primary still leads the op's batch must
// not re-ballot that batch: its first ballot is already the chain
// predecessor of the next batch, which would wait for a ballot that never
// commits until the chain skip fires.
TEST(DataSyncUnitTest, DuplicateOfAnInFlightBatchKeepsItsBallot) {
  SyncFixture fx;
  auto a = fx.NewClient(0);
  auto b = fx.NewClient(0);
  NodeId primary = fx.sys.PrimaryOf(0)->id();
  auto request = [&](testutil::TestClient& c) {
    auto req = std::make_shared<core::MigrationRequestMsg>();
    req->op.client = c.id();
    req->op.timestamp = 1;
    req->op.source = 0;
    req->op.destination = 1;
    req->client_sig = fx.sys.keys().Sign(c.id(), req->digest());
    return req;
  };
  auto first = request(*a);
  a->Send(primary, first);
  fx.sys.sim().RunFor(Millis(10));  // batch {a} led
  b->Send(primary, request(*b));
  fx.sys.sim().RunFor(Millis(10));  // batch {b} led, chained after {a}
  a->Send(primary, first);          // the duplicate, before {a} commits
  fx.sys.sim().RunFor(Seconds(1));
  EXPECT_TRUE(a->MigrationDone(1));
  EXPECT_TRUE(b->MigrationDone(1));
  const CounterSet& counters = fx.sys.sim().counters();
  EXPECT_EQ(counters.Get(obs::CounterId::kSyncRequestsLed), 2u);
  EXPECT_EQ(counters.Get(obs::CounterId::kSyncChainSkip), 0u);
}

TEST(DataSyncUnitTest, NonStableConcurrentLeadersAllCommit) {
  NodeConfig cfg;
  cfg.sync.stable_leader = false;
  SyncFixture fx(cfg);
  // Different destination zones => different per-request leaders running
  // elections concurrently; per-instance promise bounds avoid collisions.
  auto c01 = fx.NewClient(0);
  auto c12 = fx.NewClient(1);
  auto c20 = fx.NewClient(2);
  auto t1 = c01->SubmitGlobal(fx.sys.PrimaryOf(1)->id(), 0, 1);
  auto t2 = c12->SubmitGlobal(fx.sys.PrimaryOf(2)->id(), 1, 2);
  auto t3 = c20->SubmitGlobal(fx.sys.PrimaryOf(0)->id(), 2, 0);
  fx.sys.sim().RunFor(Seconds(5));
  EXPECT_TRUE(c01->MigrationDone(t1));
  EXPECT_TRUE(c12->MigrationDone(t2));
  EXPECT_TRUE(c20->MigrationDone(t3));
  std::uint64_t digest = fx.sys.nodes()[0]->metadata().StateDigest();
  for (const auto& node : fx.sys.nodes()) {
    EXPECT_EQ(node->metadata().StateDigest(), digest);
  }
}

TEST(DataSyncUnitTest, MixedLocalAndGlobalTrafficInterleaves) {
  SyncFixture fx;
  auto mover = fx.NewClient(0);
  auto stayer = fx.NewClient(0);
  auto mig = mover->SubmitGlobal(fx.sys.PrimaryOf(0)->id(), 0, 2);
  // The stayer's local traffic proceeds while the migration is in flight.
  stayer->SubmitLocalSequence(fx.sys.PrimaryOf(0)->id(), 10, "DEP ");
  fx.sys.sim().RunFor(Seconds(4));
  EXPECT_TRUE(mover->MigrationDone(mig));
  EXPECT_EQ(stayer->completed(), 10u);
  auto& bank0 =
      static_cast<BankStateMachine&>(fx.sys.Member(0, 0)->app());
  // "DEP 0" .. "DEP 9" deposit 45 in total.
  EXPECT_EQ(bank0.BalanceOf(stayer->id()), 1045);
}

TEST(DataSyncUnitTest, CommitCountersConsistent) {
  SyncFixture fx;
  auto c = fx.NewClient(0);
  auto ts = c->SubmitGlobal(fx.sys.PrimaryOf(0)->id(), 0, 1);
  fx.sys.sim().RunFor(Seconds(3));
  ASSERT_TRUE(c->MigrationDone(ts));
  // Every node committed and executed exactly one instance.
  for (const auto& node : fx.sys.nodes()) {
    EXPECT_EQ(node->sync().committed_count(), 1u);
    EXPECT_EQ(node->sync().executed_count(), 1u);
    EXPECT_NE(node->sync().last_executed_ballot(0), kNullBallot);
  }
}

TEST(DataSyncUnitTest, ForgedClientSignatureNeverAdmitted) {
  SyncFixture fx;
  auto c = fx.NewClient(0);
  core::MigrationOp op;
  op.client = c->id();
  op.timestamp = 1;
  op.source = 0;
  op.destination = 1;
  auto req = std::make_shared<core::MigrationRequestMsg>();
  req->op = op;
  req->client_sig = crypto::Signature{c->id(), 0xdead};
  c->Send(fx.sys.PrimaryOf(0)->id(), req);
  fx.sys.sim().RunFor(Seconds(2));
  EXPECT_GE(fx.sys.sim().counters().Get(obs::CounterId::kSyncBadClientSig), 1u);
  for (const auto& node : fx.sys.nodes()) {
    EXPECT_EQ(node->metadata().MigrationsOf(c->id()), 0u);
  }
}

TEST(DataSyncUnitTest, MalformedMigrationDropped) {
  SyncFixture fx;
  auto c = fx.NewClient(0);
  // source == destination is malformed.
  auto ts = c->SubmitGlobal(fx.sys.PrimaryOf(0)->id(), 1, 1);
  fx.sys.sim().RunFor(Seconds(2));
  EXPECT_FALSE(c->Synced(ts));
  EXPECT_EQ(fx.sys.sim().counters().Get(obs::CounterId::kSyncRequestsLed), 0u);
}

}  // namespace
}  // namespace ziziphus
