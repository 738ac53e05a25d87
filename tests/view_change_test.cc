// Deeper PBFT view-change scenarios: cascading primary failures, larger f,
// safety of committed prefixes across views, checkpoints during churn, and
// suspicion (direct or by RESPONSE-QUERY) that must cost one view change.

#include <memory>

#include "app/bank.h"
#include "app/harness.h"
#include "core/system.h"
#include "gtest/gtest.h"
#include "pbft/engine.h"
#include "tests/test_util.h"

namespace ziziphus {
namespace {

using testutil::PbftCluster;

TEST(ViewChangeTest, CascadingPrimaryFailures) {
  // f = 2: the group survives two successive primary crashes.
  pbft::PbftConfig base;
  base.request_timeout_us = Millis(250);
  PbftCluster c(7, 2, /*seed=*/3, /*one_way_us=*/1000, base);
  c.client->EnableRetry(c.members, Millis(500));

  c.sim.faults().Crash(c.members[0]);  // primary of view 0
  c.client->SubmitLocal(c.members[1], "first");
  c.sim.RunFor(Seconds(4));
  ASSERT_EQ(c.client->completed(), 1u);

  // Now crash the new primary too.
  NodeId new_primary = c.members[c.engine(1).view() % 7];
  c.sim.faults().Crash(new_primary);
  c.client->SubmitLocal(c.members[2], "second");
  c.sim.RunFor(Seconds(6));
  EXPECT_EQ(c.client->completed(), 2u);
  // Live replicas agree.
  std::set<std::uint64_t> digests;
  for (std::size_t i = 0; i < 7; ++i) {
    if (c.sim.faults().IsCrashed(c.members[i])) continue;
    if (c.app(i).applied() == 2) digests.insert(c.app(i).StateDigest());
  }
  EXPECT_EQ(digests.size(), 1u);
}

TEST(ViewChangeTest, CommittedPrefixSurvivesViewChange) {
  pbft::PbftConfig base;
  base.request_timeout_us = Millis(250);
  base.batch_max = 1;
  base.batch_timeout_us = 100;
  PbftCluster c(4, 1, /*seed=*/5, 1000, base);
  c.client->EnableRetry(c.members, Millis(500));

  // Commit a prefix in view 0.
  c.client->SubmitLocalSequence(c.members[0], 5, "pre");
  c.sim.RunFor(Seconds(2));
  ASSERT_EQ(c.client->completed(), 5u);
  std::uint64_t prefix_digest = c.app(1).StateDigest();

  // Crash the primary; commit more in the new view.
  c.sim.faults().Crash(c.members[0]);
  c.client->SubmitLocalSequence(c.members[1], 3, "post");
  c.sim.RunFor(Seconds(5));
  EXPECT_EQ(c.client->completed(), 8u);

  // The new-view log extends (never rewrites) the committed prefix: all
  // live replicas applied exactly 8 ops and agree.
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(c.app(i).applied(), 8u) << i;
    EXPECT_EQ(c.app(i).StateDigest(), c.app(1).StateDigest());
  }
  EXPECT_NE(c.app(1).StateDigest(), prefix_digest);  // it did extend
}

TEST(ViewChangeTest, CheckpointsContinueAfterViewChange) {
  pbft::PbftConfig base;
  base.request_timeout_us = Millis(250);
  base.batch_max = 1;
  base.batch_timeout_us = 100;
  base.checkpoint_interval = 4;
  PbftCluster c(4, 1, /*seed=*/9, 1000, base);
  c.client->EnableRetry(c.members, Millis(500));

  c.sim.faults().Crash(c.members[0]);
  c.client->SubmitLocalSequence(c.members[1], 12, "op");
  c.sim.RunFor(Seconds(8));
  ASSERT_EQ(c.client->completed(), 12u);
  // Stable checkpoints advanced in the new view despite the dead member
  // (2f+1 = 3 live checkpoint votes available).
  EXPECT_GE(c.engine(1).stable_seq(), 4u);
}

TEST(ViewChangeTest, NoViewChangeWithoutTimeouts) {
  PbftCluster c(4, 1, /*seed=*/11);
  c.client->SubmitLocalSequence(c.members[0], 20, "op");
  c.sim.RunFor(Seconds(4));
  EXPECT_EQ(c.client->completed(), 20u);
  EXPECT_EQ(c.sim.counters().Get(obs::CounterId::kPbftViewChangesStarted), 0u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(c.engine(i).view(), 0u);
}

TEST(ViewChangeTest, ViewChangeDisabledForBenchmarks) {
  pbft::PbftConfig base;
  base.request_timeout_us = Millis(100);
  PbftCluster c(4, 1, /*seed=*/13, 1000, base);
  for (int i = 0; i < 4; ++i) c.engine(i).set_view_changes_enabled(false);
  c.sim.faults().Crash(c.members[0]);
  c.client->SubmitLocal(c.members[1], "stuck");
  c.sim.RunFor(Seconds(2));
  // With the safety valve off, no churn — and of course no progress.
  EXPECT_EQ(c.sim.counters().Get(obs::CounterId::kPbftViewChangesStarted), 0u);
  EXPECT_EQ(c.client->completed(), 0u);
}

TEST(ViewChangeTest, PartitionedPrimaryTreatedAsFaulty) {
  pbft::PbftConfig base;
  base.request_timeout_us = Millis(300);
  PbftCluster c(4, 1, /*seed=*/17, 1000, base);
  c.client->EnableRetry(c.members, Millis(600));
  // The primary is alive but cut off from every backup.
  for (int i = 1; i < 4; ++i) {
    c.sim.faults().Partition(c.members[0], c.members[i]);
  }
  c.client->SubmitLocal(c.members[1], "isolated-primary");
  c.sim.RunFor(Seconds(6));
  EXPECT_EQ(c.client->completed(), 1u);
  EXPECT_GE(c.engine(1).view(), 1u);
}

TEST(ViewChangeTest, SuspicionDuringAViewChangeTargetsTheNextViewOnly) {
  pbft::PbftConfig base;
  base.request_timeout_us = Millis(250);
  PbftCluster c(4, 1, /*seed=*/19, 1000, base);
  c.sim.faults().Crash(c.members[0]);
  // Every stuck request whose probes complete a quorum suspects the primary
  // again. Four rounds would walk the demanded view to 4, whose primary
  // (4 mod 4 = 0) is the crashed node; only view 1 may be demanded.
  for (int round = 0; round < 4; ++round) {
    for (int i = 1; i < 4; ++i) c.engine(i).SuspectPrimary();
  }
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(c.engine(i).view(), 1u) << i;
    EXPECT_FALSE(c.engine(i).view_active()) << i;
  }
  c.sim.RunFor(Seconds(2));
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(c.engine(i).view(), 1u) << i;
    EXPECT_TRUE(c.engine(i).view_active()) << i;
    EXPECT_EQ(c.engine(i).primary(), c.members[1]) << i;
  }
  EXPECT_EQ(c.sim.counters().Get(obs::CounterId::kPbftViewChangesStarted), 3u);
  c.client->SubmitLocal(c.members[1], "after");
  c.sim.RunFor(Seconds(1));
  EXPECT_EQ(c.client->completed(), 1u);
}

// RESPONSE-QUERY probes (Section V-A) accuse the primary that let a request
// stall. Probes tallied against a crashed primary, and probes that reach
// its successor before any instance it leads can be overdue, must not
// depose the successor; a quorum of probes that are overdue in its view
// still does.
TEST(ViewChangeTest, StaleResponseQueriesCannotDeposeTheNextPrimary) {
  core::ZiziphusSystem sys(3, sim::LatencyModel::PaperGeoMatrix());
  for (RegionId r = 0; r < 2; ++r) sys.AddZone(0, r, 1, 4);
  const core::NodeConfig cfg = app::harness::FaultHarnessNodeConfig();
  sys.Finalize(cfg, [](ZoneId) {
    return std::make_unique<app::BankStateMachine>();
  });
  testutil::TestClient client(&sys.keys(), 1);
  sys.sim().Register(&client, 0);
  sys.BootstrapClient(client.id(), 0, [](ClientId id) {
    return storage::KvStore::Map{
        {app::BankStateMachine::AccountKey(id), "1000"}};
  });
  const std::vector<NodeId>& z0 = sys.topology().zone(0).members;
  const std::vector<NodeId>& z1 = sys.topology().zone(1).members;

  // A migration stalls at the crashed zone-0 primary: the client's retry
  // reaches the backups, which relay it and keep a record of it. The next
  // primary, z0[1], is cut off from zone 1, so it will stall it too.
  sys.sim().faults().Crash(z0[0]);
  for (NodeId n : z1) sys.sim().faults().Partition(z0[1], n);
  client.EnableRetry(z0, Millis(100));
  core::MigrationOp op;
  op.client = client.id();
  op.timestamp = client.SubmitGlobal(z0[0], 0, 1);
  op.source = 0;
  op.destination = 1;
  sys.sim().RunFor(Millis(150));
  client.EnableRetry(z0, Seconds(5));
  // Zone 1 probes only after waiting a probe period for the commit.
  sys.sim().RunFor(cfg.sync.response_query_timeout_us);

  auto probe = [&](NodeId from) {
    auto q = std::make_shared<core::ResponseQueryMsg>();
    q->request_id = op.RequestId();
    q->zone = 1;
    q->replica = from;
    q->sig = sys.keys().Sign(from, q->digest());
    q->set_from(from);
    for (NodeId to : z0) sys.sim().SendMessage(from, sys.sim().Now(), to, q);
  };
  auto expect_view = [&](ViewId v, NodeId primary) {
    for (int i = 1; i < 4; ++i) {
      const pbft::PbftEngine& pbft = sys.node(z0[i])->pbft();
      EXPECT_EQ(pbft.view(), v) << "member " << i;
      EXPECT_TRUE(pbft.view_active()) << "member " << i;
      EXPECT_EQ(pbft.primary(), primary) << "member " << i;
    }
  };
  // View 0: two of the three probes zone 1 needs to suspect, both deserved.
  probe(z1[0]);
  probe(z1[1]);
  sys.sim().RunFor(Millis(50));
  for (int i = 1; i < 4; ++i) sys.node(z0[i])->pbft().SuspectPrimary();
  sys.sim().RunFor(Millis(100));
  expect_view(1, z0[1]);

  // Probes sent before their senders heard of view 1 land just after it
  // forms, and one more lands a probe period later. Neither the first three
  // (no view-1 instance can be overdue yet) nor the view-0 pair plus the
  // late one (they accused the crashed primary) is a quorum against z0[1].
  probe(z1[0]);
  probe(z1[1]);
  probe(z1[2]);
  sys.sim().RunFor(cfg.sync.response_query_timeout_us);
  probe(z1[2]);
  sys.sim().RunFor(Millis(100));
  expect_view(1, z0[1]);

  // Two more overdue probes complete a view-1 quorum: z0[1] really stalls
  // the request, and z0[2] takes over and finishes it (after the chain skip
  // steps over z0[1]'s uncommitted ballots).
  probe(z1[0]);
  probe(z1[1]);
  sys.sim().RunFor(Seconds(10));
  expect_view(2, z0[2]);
  EXPECT_TRUE(client.MigrationDone(op.timestamp));
}

TEST(ViewChangeBackoffTest, DoublesUntilCapAndStaysBounded) {
  pbft::PbftConfig cfg;
  cfg.request_timeout_us = Millis(100);
  cfg.view_change_backoff_cap_us = Millis(800);
  const Duration base = cfg.request_timeout_us * 2;
  const Duration cap = cfg.view_change_backoff_cap_us;

  Duration prev = 0;
  for (std::uint64_t attempt = 0; attempt < 40; ++attempt) {
    Duration d = pbft::PbftEngine::ViewChangeBackoff(cfg, attempt, 1, 1);
    // Monotone non-decreasing: doubling outruns the <= 1/8 jitter.
    EXPECT_GE(d, prev) << "attempt " << attempt;
    // Never below the base timeout, never above the cap plus its jitter.
    EXPECT_GE(d, base);
    EXPECT_LE(d, cap + cap / 8) << "attempt " << attempt;
    prev = d;
  }
  // The cap actually binds: a huge attempt count lands at cap (+ jitter),
  // not at base << attempts.
  Duration capped = pbft::PbftEngine::ViewChangeBackoff(cfg, 63, 1, 1);
  EXPECT_GE(capped, cap);
  EXPECT_LE(capped, cap + cap / 8);
}

TEST(ViewChangeBackoffTest, JitterIsDeterministicAndDesynchronizes) {
  pbft::PbftConfig cfg;
  cfg.request_timeout_us = Millis(100);
  cfg.view_change_backoff_cap_us = Millis(800);
  // Deterministic: same (attempt, replica, view) gives the same delay.
  EXPECT_EQ(pbft::PbftEngine::ViewChangeBackoff(cfg, 2, 3, 5),
            pbft::PbftEngine::ViewChangeBackoff(cfg, 2, 3, 5));
  // Replicas starting the same view-change attempt spread out: at least two
  // distinct delays among a group of seven.
  std::set<Duration> delays;
  for (NodeId r = 0; r < 7; ++r) {
    delays.insert(pbft::PbftEngine::ViewChangeBackoff(cfg, 2, r, 5));
  }
  EXPECT_GE(delays.size(), 2u);
}

TEST(ViewChangeBackoffTest, CapBelowBaseClampsToBase) {
  // A misconfigured cap smaller than the doubled request timeout must not
  // shrink the delay below the liveness-critical base.
  pbft::PbftConfig cfg;
  cfg.request_timeout_us = Millis(500);
  cfg.view_change_backoff_cap_us = Millis(100);
  const Duration base = cfg.request_timeout_us * 2;
  for (std::uint64_t attempt : {0u, 1u, 7u}) {
    Duration d = pbft::PbftEngine::ViewChangeBackoff(cfg, attempt, 0, 1);
    EXPECT_GE(d, base);
    EXPECT_LE(d, base + base / 8);
  }
}

}  // namespace
}  // namespace ziziphus
