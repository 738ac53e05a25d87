#include <memory>
#include <vector>

#include "app/bank.h"
#include "core/ledger.h"
#include "core/lock_table.h"
#include "core/metadata.h"
#include "core/system.h"
#include "core/topology.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace ziziphus::core {
namespace {

MigrationOp Op(ClientId c, ZoneId src, ZoneId dst, RequestTimestamp ts) {
  MigrationOp op;
  op.client = c;
  op.source = src;
  op.destination = dst;
  op.timestamp = ts;
  return op;
}

TEST(GlobalMetadataTest, RegisterAndCounts) {
  GlobalMetadata md;
  md.RegisterClient(1, 0);
  md.RegisterClient(2, 0);
  md.RegisterClient(3, 1);
  EXPECT_EQ(md.ClientsInZone(0), 2u);
  EXPECT_EQ(md.ClientsInZone(1), 1u);
  EXPECT_EQ(md.HomeOf(1), 0u);
  EXPECT_EQ(md.HomeOf(99), kInvalidZone);
}

TEST(GlobalMetadataTest, ExecuteMovesClient) {
  GlobalMetadata md;
  md.RegisterClient(1, 0);
  EXPECT_EQ(md.Execute(Op(1, 0, 1, 5)), "ok");
  EXPECT_EQ(md.HomeOf(1), 1u);
  EXPECT_EQ(md.ClientsInZone(0), 0u);
  EXPECT_EQ(md.ClientsInZone(1), 1u);
  EXPECT_EQ(md.MigrationsOf(1), 1u);
}

// GlobalMetadata applies every op it is given; exactly-once for a migration
// is decided once, by the client watermarks in the data-sync engine's
// durable slice. A committed migration redelivered to a node that has
// compacted its request (keep window 1, then a second migration) reaches
// that decision again, which refuses it: the client moves once.
TEST(GlobalMetadataTest, ExactlyOncePerTimestamp) {
  struct Decision {
    NodeId node;
    ClientId client;
    RequestTimestamp ts;
    bool ran;
  };
  std::vector<Decision> decisions;
  NodeConfig cfg;
  cfg.sync.decided_keep_window = 1;
  cfg.sync.exec_observer = [&decisions](NodeId node, const MigrationOp& op,
                                        bool ran) {
    decisions.push_back({node, op.client, op.timestamp, ran});
  };
  ZiziphusSystem sys(1, sim::LatencyModel::PaperGeoMatrix());
  for (ZoneId z = 0; z < 3; ++z) sys.AddZone(0, z, 1, 4);
  sys.Finalize(cfg, [](ZoneId) {
    return std::make_unique<app::BankStateMachine>();
  });
  testutil::TestClient mover(&sys.keys(), 1), other(&sys.keys(), 1);
  for (testutil::TestClient* c : {&mover, &other}) {
    sys.sim().Register(c, 0);
    sys.BootstrapClient(c->id(), 0, [](ClientId id) {
      return storage::KvStore::Map{
          {app::BankStateMachine::AccountKey(id), "1000"}};
    });
  }
  NodeId leader = sys.PrimaryOf(0)->id();
  testutil::SentRecorder commits(kGlobalCommit);
  sys.sim().SetInterceptor(leader, &commits);

  RequestTimestamp ts = mover.SubmitGlobal(leader, 0, 1);
  sys.sim().RunFor(Seconds(3));
  ASSERT_TRUE(mover.MigrationDone(ts));
  ASSERT_FALSE(commits.sent.empty());
  const sim::MessagePtr first_commit = commits.sent.front();
  // A later execution slides the keep window past the first request.
  RequestTimestamp other_ts = other.SubmitGlobal(leader, 0, 2);
  sys.sim().RunFor(Seconds(3));
  ASSERT_TRUE(other.MigrationDone(other_ts));

  core::ZiziphusNode* node = sys.Member(2, 1);
  const std::uint64_t migrations_before = node->metadata().executed_count();
  const std::uint64_t synced_before = node->sync().executed_count();
  mover.Send(node->id(), first_commit);  // redelivery
  sys.sim().RunFor(Seconds(1));

  std::vector<bool> ran;
  for (const Decision& d : decisions) {
    if (d.node == node->id() && d.client == mover.id() && d.ts == ts) {
      ran.push_back(d.ran);
    }
  }
  EXPECT_EQ(ran, (std::vector<bool>{true, false}));
  EXPECT_EQ(node->metadata().HomeOf(mover.id()), 1u);
  EXPECT_EQ(node->metadata().MigrationsOf(mover.id()), 1u);
  EXPECT_EQ(node->metadata().ClientsInZone(1), 1u);
  EXPECT_EQ(node->metadata().executed_count(), migrations_before);
  EXPECT_EQ(node->sync().executed_count(), synced_before);
}

TEST(ExecutedOpsTest, LateOpInsideTheWindowStillRuns) {
  ExecutedOps ops;
  EXPECT_TRUE(ops.Insert(1, 10));
  EXPECT_TRUE(ops.Contains(1, 10));
  EXPECT_FALSE(ops.Contains(1, 9));
  // ts 9 was issued first but reaches this node second (a chain skip or a
  // second initiator chain): it must still run, exactly once.
  EXPECT_TRUE(ops.Insert(1, 9));
  EXPECT_FALSE(ops.Insert(1, 9));
  EXPECT_FALSE(ops.Insert(1, 10));
  EXPECT_FALSE(ops.Contains(2, 9));  // per client
  EXPECT_EQ(ops.clients(), 1u);
}

TEST(ExecutedOpsTest, OnlyTheLowestFallsIntoTheFloor) {
  ExecutedOps ops;
  // ts 1 never reaches this node; kWindow later ops do. It still runs
  // when it comes: the window holds all of them above a floor of 0.
  for (RequestTimestamp ts = 2; ts < 2 + ExecutedOps::kWindow; ++ts) {
    EXPECT_TRUE(ops.Insert(7, ts));
  }
  EXPECT_FALSE(ops.Contains(7, 1));
  // One more displaces the lowest held (2) into the floor. Everything at
  // or below it now counts as executed: a memory of kWindow ops per
  // client, not of every op.
  EXPECT_TRUE(ops.Insert(7, 2 + ExecutedOps::kWindow));
  EXPECT_TRUE(ops.Contains(7, 2));
  EXPECT_TRUE(ops.Contains(7, 1));
  EXPECT_FALSE(ops.Insert(7, 1));
  for (RequestTimestamp ts = 3; ts <= 2 + ExecutedOps::kWindow; ++ts) {
    EXPECT_TRUE(ops.Contains(7, ts));
  }
  EXPECT_FALSE(ops.Contains(7, 3 + ExecutedOps::kWindow));
}

TEST(ExecutionLedgerTest, KeepsEveryExecutorOfADisputedBallot) {
  ExecutionLedger ledger;
  const Ballot b{4, 0}, other{5, 0};
  ledger.Record(b, 11, 3);
  ledger.Record(b, 11, 0);
  ledger.Record(b, 11, 70);  // ids past 64 are listed, not bitmapped
  ledger.Record(other, 9, 1);
  EXPECT_TRUE(ledger.Disputed().empty());
  ledger.Record(b, 12, 5);
  auto disputed = ledger.Disputed();
  ASSERT_EQ(disputed.size(), 1u);
  const auto& runs = disputed.at(b);
  ASSERT_EQ(runs.size(), 4u);
  EXPECT_EQ(runs[0].node, 0u);
  EXPECT_EQ(runs[1].node, 3u);
  EXPECT_EQ(runs[2].node, 5u);
  EXPECT_EQ(runs[2].digest, 12u);
  EXPECT_EQ(runs[3].node, 70u);
  EXPECT_EQ(runs[3].digest, 11u);
  EXPECT_EQ(ledger.ballots(), 2u);
}

TEST(GlobalMetadataTest, MigrationQuotaEnforced) {
  PolicyConfig policy;
  policy.max_migrations_per_client = 2;
  GlobalMetadata md(policy);
  md.RegisterClient(1, 0);
  EXPECT_EQ(md.Execute(Op(1, 0, 1, 1)), "ok");
  EXPECT_EQ(md.Execute(Op(1, 1, 2, 2)), "ok");
  std::string third = md.Execute(Op(1, 2, 0, 3));
  EXPECT_EQ(third.rfind("rejected", 0), 0u) << third;
  EXPECT_EQ(md.HomeOf(1), 2u);
}

TEST(GlobalMetadataTest, ZoneCapacityEnforced) {
  PolicyConfig policy;
  policy.max_clients_per_zone = 1;
  GlobalMetadata md(policy);
  md.RegisterClient(1, 0);
  md.RegisterClient(2, 1);
  std::string res = md.Execute(Op(1, 0, 1, 1));
  EXPECT_EQ(res.rfind("rejected", 0), 0u) << res;
  EXPECT_EQ(md.HomeOf(1), 0u);
  // Zone 2 has room.
  EXPECT_EQ(md.Execute(Op(1, 0, 2, 2)), "ok");
}

TEST(GlobalMetadataTest, ValidateRejectsMalformed) {
  GlobalMetadata md;
  EXPECT_FALSE(md.ValidateMigration(Op(kInvalidClient, 0, 1, 1)).ok());
  EXPECT_FALSE(md.ValidateMigration(Op(1, 0, 0, 1)).ok());
  EXPECT_FALSE(md.ValidateMigration(Op(1, kInvalidZone, 1, 1)).ok());
}

TEST(GlobalMetadataTest, DigestTracksState) {
  GlobalMetadata a, b;
  a.RegisterClient(1, 0);
  b.RegisterClient(1, 0);
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
  a.Execute(Op(1, 0, 1, 1));
  EXPECT_NE(a.StateDigest(), b.StateDigest());
  b.Execute(Op(1, 0, 1, 1));
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
}

TEST(MigrationOpTest, RequestIdStableAndDistinct) {
  MigrationOp a = Op(1, 0, 1, 5);
  MigrationOp b = Op(1, 2, 0, 5);  // same client+ts: same request
  MigrationOp c = Op(1, 0, 1, 6);
  EXPECT_EQ(a.RequestId(), b.RequestId());
  EXPECT_NE(a.RequestId(), c.RequestId());
  EXPECT_TRUE(a.IsMigration());
  a.command = "DEP 1";
  EXPECT_FALSE(a.IsMigration());
}

TEST(LockTableTest, Lifecycle) {
  LockTable locks;
  EXPECT_FALSE(locks.IsLocked(7));
  EXPECT_FALSE(locks.Knows(7));
  locks.SetLocked(7, true);
  EXPECT_TRUE(locks.IsLocked(7));
  locks.SetLocked(7, false);
  EXPECT_FALSE(locks.IsLocked(7));
  EXPECT_TRUE(locks.Knows(7));  // still tracked, just frozen
}

TEST(TopologyTest, ZonesClustersAndLookups) {
  Topology topo;
  topo.AddZone(/*cluster=*/0, /*region=*/0, /*f=*/1, {0, 1, 2, 3});
  topo.AddZone(0, 1, 1, {4, 5, 6, 7});
  topo.AddZone(1, 2, 1, {8, 9, 10, 11});
  EXPECT_EQ(topo.num_zones(), 3u);
  EXPECT_EQ(topo.num_clusters(), 2u);
  EXPECT_EQ(topo.ZoneOf(5), 1u);
  EXPECT_TRUE(topo.IsReplica(5));
  EXPECT_FALSE(topo.IsReplica(99));
  EXPECT_EQ(topo.ZonesInCluster(0).size(), 2u);
  EXPECT_EQ(topo.ZoneMajority(0), 2u);
  EXPECT_EQ(topo.ZoneMajority(1), 1u);
  EXPECT_EQ(topo.AllNodesInCluster(0).size(), 8u);
  EXPECT_EQ(topo.AllNodes().size(), 12u);
  EXPECT_EQ(topo.zone(2).quorum(), 3u);
}

TEST(TopologyTest, WitnessZoneAllowed) {
  Topology topo;
  topo.AddZone(0, 0, /*f=*/0, {0});  // single-node f=0 witness
  EXPECT_EQ(topo.zone(0).quorum(), 1u);
}

}  // namespace
}  // namespace ziziphus::core
