#include <set>

#include "gtest/gtest.h"
#include "pbft/engine.h"
#include "tests/test_util.h"

namespace ziziphus {
namespace {

using testutil::PbftCluster;

TEST(PbftTest, CommitsSingleRequest) {
  PbftCluster c(4, 1);
  c.client->SubmitLocal(c.members[0], "hello");
  c.sim.RunFor(Seconds(1));
  EXPECT_EQ(c.client->completed(), 1u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(c.app(i).applied(), 1u) << "replica " << i;
    EXPECT_EQ(c.engine(i).last_executed(), 1u);
  }
}

TEST(PbftTest, AllReplicasReachSameState) {
  PbftCluster c(4, 1);
  c.client->SubmitLocalSequence(c.members[0], 50, "op");
  c.sim.RunFor(Seconds(5));
  EXPECT_EQ(c.client->completed(), 50u);
  std::uint64_t d = c.app(0).StateDigest();
  for (int i = 1; i < 4; ++i) EXPECT_EQ(c.app(i).StateDigest(), d);
}

TEST(PbftTest, BatchingCombinesRequests) {
  // 64 concurrent clients, one request each, landing within one batch
  // window: far fewer than 64 slots get used.
  pbft::PbftConfig base;
  base.batch_max = 16;
  PbftCluster c(4, 1, /*seed=*/1, /*one_way_us=*/1000, base);
  std::vector<std::unique_ptr<testutil::TestClient>> extra;
  for (int i = 0; i < 63; ++i) {
    extra.push_back(std::make_unique<testutil::TestClient>(&c.keys, 1));
    c.sim.Register(extra.back().get(), 0);
  }
  c.client->SubmitLocal(c.members[0], "op");
  for (auto& cl : extra) cl->SubmitLocal(c.members[0], "op");
  c.sim.RunFor(Seconds(1));
  std::size_t done = c.client->completed();
  for (auto& cl : extra) done += cl->completed();
  EXPECT_EQ(done, 64u);
  EXPECT_LE(c.engine(0).last_executed(), 10u);
  EXPECT_GE(c.engine(0).last_executed(), 4u);
}

TEST(PbftTest, RequestToBackupIsRelayed) {
  PbftCluster c(4, 1);
  c.client->SubmitLocal(c.members[2], "via-backup");
  c.sim.RunFor(Seconds(1));
  EXPECT_EQ(c.client->completed(), 1u);
}

TEST(PbftTest, DuplicateRequestExecutesOnce) {
  PbftCluster c(4, 1);
  pbft::Operation op;
  op.client = c.client->id();
  op.timestamp = 1;
  op.command = "only-once";
  auto req = std::make_shared<pbft::ClientRequestMsg>();
  req->op = op;
  req->client_sig = c.keys.Sign(c.client->id(), req->ComputeDigest());
  c.client->Send(c.members[0], req);
  c.sim.RunFor(Millis(300));
  c.client->Send(c.members[0], req);  // replay
  c.sim.RunFor(Millis(500));
  EXPECT_EQ(c.app(0).applied(), 1u);
}

TEST(PbftTest, BadClientSignatureRejected) {
  PbftCluster c(4, 1);
  pbft::Operation op;
  op.client = c.client->id();
  op.timestamp = 1;
  op.command = "forged";
  auto req = std::make_shared<pbft::ClientRequestMsg>();
  req->op = op;
  req->client_sig = crypto::Signature{c.client->id(), 0xbad};
  c.client->Send(c.members[0], req);
  c.sim.RunFor(Millis(500));
  EXPECT_EQ(c.app(0).applied(), 0u);
  EXPECT_GE(c.sim.counters().Get(obs::CounterId::kPbftBadClientSig), 1u);
}

TEST(PbftTest, ToleratesBackupCrash) {
  PbftCluster c(4, 1);
  c.sim.faults().Crash(c.members[3]);
  c.client->SubmitLocalSequence(c.members[0], 10, "op");
  c.sim.RunFor(Seconds(2));
  EXPECT_EQ(c.client->completed(), 10u);
}

TEST(PbftTest, ViewChangeOnPrimaryCrash) {
  pbft::PbftConfig base;
  base.request_timeout_us = Millis(200);
  PbftCluster c(4, 1, 1, 1000, base);
  c.client->EnableRetry(c.members, Millis(400));
  c.sim.faults().Crash(c.members[0]);  // primary of view 0
  c.client->SubmitLocal(c.members[1], "survive");
  c.sim.RunFor(Seconds(3));
  EXPECT_EQ(c.client->completed(), 1u);
  EXPECT_GE(c.engine(1).view(), 1u);
  EXPECT_TRUE(c.engine(1).view_active());
  // All live replicas executed it.
  for (int i = 1; i < 4; ++i) EXPECT_EQ(c.app(i).applied(), 1u);
}

TEST(PbftTest, ProgressAfterViewChange) {
  pbft::PbftConfig base;
  base.request_timeout_us = Millis(200);
  PbftCluster c(4, 1, 1, 1000, base);
  c.client->EnableRetry(c.members, Millis(400));
  c.sim.faults().Crash(c.members[0]);
  c.client->SubmitLocal(c.members[1], "first");
  c.sim.RunFor(Seconds(3));
  ASSERT_EQ(c.client->completed(), 1u);
  // New primary (member 1) serves subsequent requests quickly.
  c.client->SubmitLocal(c.members[1], "second");
  c.sim.RunFor(Seconds(1));
  EXPECT_EQ(c.client->completed(), 2u);
}

TEST(PbftTest, CheckpointAdvancesStableSeq) {
  pbft::PbftConfig base;
  base.checkpoint_interval = 4;
  base.batch_max = 1;
  base.batch_timeout_us = 100;
  PbftCluster c(4, 1, 1, 1000, base);
  c.client->SubmitLocalSequence(c.members[0], 12, "op");
  c.sim.RunFor(Seconds(3));
  ASSERT_EQ(c.client->completed(), 12u);
  EXPECT_GE(c.engine(0).stable_seq(), 4u);
  EXPECT_EQ(c.engine(0).last_stable_checkpoint().seq,
            c.engine(0).stable_seq());
  EXPECT_GE(c.engine(0).last_stable_checkpoint().certificate.size(), 3u);
}

TEST(PbftTest, CommitLogTruncatedAtCheckpoint) {
  pbft::PbftConfig base;
  base.checkpoint_interval = 4;
  base.batch_max = 1;
  base.batch_timeout_us = 100;
  PbftCluster c(4, 1, 1, 1000, base);
  c.client->SubmitLocalSequence(c.members[0], 20, "op");
  c.sim.RunFor(Seconds(4));
  ASSERT_EQ(c.client->completed(), 20u);
  EXPECT_LT(c.engine(0).commit_log().size(), 20u);
}

TEST(PbftTest, LaggingReplicaCatchesUpViaStateTransfer) {
  pbft::PbftConfig base;
  base.checkpoint_interval = 4;
  base.batch_max = 1;
  base.batch_timeout_us = 100;
  PbftCluster c(4, 1, 1, 1000, base);
  // Isolate replica 3 from normal traffic for a while.
  for (int i = 0; i < 3; ++i) c.sim.faults().Partition(c.members[3], c.members[i]);
  c.client->SubmitLocalSequence(c.members[0], 12, "op");
  c.sim.RunFor(Seconds(3));
  EXPECT_EQ(c.app(3).applied(), 0u);
  for (int i = 0; i < 3; ++i) c.sim.faults().Heal(c.members[3], c.members[i]);
  // More traffic triggers checkpoints the lagging replica can fetch.
  c.client->SubmitLocalSequence(c.members[0], 12, "more");
  c.sim.RunFor(Seconds(4));
  EXPECT_GE(c.engine(3).last_executed(), c.engine(0).stable_seq());
}

TEST(PbftTest, StateTransferRotatesAwayFromUnreachablePeer) {
  pbft::PbftConfig base;
  base.checkpoint_interval = 4;
  base.batch_max = 1;
  base.batch_timeout_us = 100;
  base.request_timeout_us = Millis(200);
  PbftCluster c(4, 1, 1, 1000, base);
  for (int i = 0; i < 3; ++i) {
    c.sim.faults().Partition(c.members[3], c.members[i]);
  }
  c.client->SubmitLocalSequence(c.members[0], 12, "op");
  c.sim.RunFor(Seconds(3));
  ASSERT_EQ(c.app(3).applied(), 0u);
  for (int i = 0; i < 3; ++i) c.sim.faults().Heal(c.members[3], c.members[i]);
  // The laggard asks the lowest-id checkpoint voter (member 0) first. Its
  // requests to 0 are blackholed one-way — checkpoint votes still arrive —
  // so only the retry timer's peer rotation can complete the catch-up (the
  // pre-retry protocol sent exactly one request and wedged forever here).
  c.sim.faults().CutOneWay(c.members[3], c.members[0]);
  c.client->SubmitLocalSequence(c.members[0], 12, "more");
  c.sim.RunFor(Seconds(6));
  EXPECT_GE(c.engine(3).last_executed(), c.engine(0).stable_seq());
  EXPECT_GE(
      c.sim.counters().Get(obs::CounterId::kRecoveryStateTransferRetries), 1u);
}

TEST(StateTransferBackoffTest, DoublesUntilCapAndStaysBounded) {
  pbft::PbftConfig cfg;
  cfg.request_timeout_us = Millis(100);
  cfg.state_transfer_backoff_cap_us = Millis(800);
  const Duration base = cfg.request_timeout_us;
  const Duration cap = cfg.state_transfer_backoff_cap_us;

  Duration prev = 0;
  for (std::uint64_t attempt = 0; attempt < 40; ++attempt) {
    Duration d = pbft::PbftEngine::StateTransferBackoff(cfg, attempt, 1, 1);
    // Monotone non-decreasing: doubling outruns the <= 1/8 jitter.
    EXPECT_GE(d, prev) << "attempt " << attempt;
    // Never below the request timeout, never above the cap plus its jitter.
    EXPECT_GE(d, base);
    EXPECT_LE(d, cap + cap / 8) << "attempt " << attempt;
    prev = d;
  }
  // The cap binds: a huge attempt count lands at cap (+ jitter), not at
  // base << attempts.
  Duration capped = pbft::PbftEngine::StateTransferBackoff(cfg, 63, 1, 1);
  EXPECT_GE(capped, cap);
  EXPECT_LE(capped, cap + cap / 8);
}

TEST(StateTransferBackoffTest, JitterIsDeterministicAndDesynchronizes) {
  pbft::PbftConfig cfg;
  cfg.request_timeout_us = Millis(100);
  cfg.state_transfer_backoff_cap_us = Millis(800);
  // Deterministic: same (attempt, replica, seq) gives the same delay.
  EXPECT_EQ(pbft::PbftEngine::StateTransferBackoff(cfg, 2, 3, 5),
            pbft::PbftEngine::StateTransferBackoff(cfg, 2, 3, 5));
  // Replicas retrying the same transfer spread out: at least two distinct
  // delays among a group of seven.
  std::set<Duration> delays;
  for (NodeId r = 0; r < 7; ++r) {
    delays.insert(pbft::PbftEngine::StateTransferBackoff(cfg, 2, r, 5));
  }
  EXPECT_GE(delays.size(), 2u);
}

TEST(StateTransferBackoffTest, CapBelowBaseClampsToBase) {
  // A misconfigured cap smaller than the request timeout must not shrink
  // the delay below the liveness-critical base.
  pbft::PbftConfig cfg;
  cfg.request_timeout_us = Millis(500);
  cfg.state_transfer_backoff_cap_us = Millis(100);
  const Duration base = cfg.request_timeout_us;
  for (std::uint64_t attempt : {0u, 1u, 7u}) {
    Duration d = pbft::PbftEngine::StateTransferBackoff(cfg, attempt, 0, 1);
    EXPECT_GE(d, base);
    EXPECT_LE(d, base + base / 8);
  }
}

// A Byzantine primary that sends different batches to different replicas.
class EquivocatingEngine : public pbft::PbftEngine {
 public:
  using PbftEngine::PbftEngine;

 protected:
  void EmitPrePrepare(
      const std::shared_ptr<pbft::PrePrepareMsg>& msg) override {
    // Send the honest batch to half the replicas and a doctored one (same
    // seq, different contents) to the rest.
    auto forged = std::make_shared<pbft::PrePrepareMsg>();
    forged->view = msg->view;
    forged->seq = msg->seq;
    pbft::Batch other;
    pbft::Operation evil;
    evil.client = kInvalidClient;
    evil.timestamp = 999999;
    evil.command = "EVIL";
    other.ops.push_back(evil);
    forged->batch = other;
    forged->batch_digest = other.ComputeDigest();
    forged->sig = keys_->Sign(process_->id(), forged->digest());
    const auto& members = config_.members;
    for (std::size_t i = 0; i < members.size(); ++i) {
      process_->Send(members[i], i % 2 == 0 ? sim::MessagePtr(msg)
                                            : sim::MessagePtr(forged));
    }
  }
};

class EquivocatingReplica : public sim::Process {
 public:
  void Init(const crypto::KeyRegistry* keys, pbft::PbftConfig config) {
    app_ = std::make_unique<pbft::EchoStateMachine>();
    engine_ = std::make_unique<EquivocatingEngine>(this, keys,
                                                   std::move(config),
                                                   app_.get());
  }

 protected:
  void OnMessage(const sim::MessagePtr& msg) override {
    engine_->HandleMessage(msg);
  }
  void OnTimer(const sim::TimerTag& tag) override {
    engine_->HandleTimer(tag);
  }

 private:
  std::unique_ptr<pbft::EchoStateMachine> app_;
  std::unique_ptr<EquivocatingEngine> engine_;
};

TEST(PbftByzantineTest, EquivocatingPrimaryCannotSplitState) {
  crypto::KeyRegistry keys(1 ^ 0x5eedc0deULL);
  sim::Simulation sim(1, sim::LatencyModel::Uniform(1, 1000));

  EquivocatingReplica evil;
  std::vector<std::unique_ptr<baselines::PbftReplicaProcess>> honest;
  std::vector<NodeId> members;
  members.push_back(sim.Register(&evil, 0));  // member 0 = primary = evil
  for (int i = 0; i < 3; ++i) {
    auto rep = std::make_unique<baselines::PbftReplicaProcess>();
    members.push_back(sim.Register(rep.get(), 0));
    honest.push_back(std::move(rep));
  }
  pbft::PbftConfig cfg;
  cfg.members = members;
  cfg.f = 1;
  cfg.request_timeout_us = Millis(300);
  evil.Init(&keys, cfg);
  for (auto& rep : honest) {
    rep->Init(&keys, cfg, std::make_unique<pbft::EchoStateMachine>());
  }
  testutil::TestClient client(&keys, 1);
  sim.Register(&client, 0);
  client.SubmitLocal(members[0], "target");
  sim.RunFor(Seconds(4));

  // Safety: no two honest replicas diverge.
  std::set<std::uint64_t> digests;
  for (auto& rep : honest) {
    auto& app = static_cast<pbft::EchoStateMachine&>(rep->app());
    if (app.applied() > 0) digests.insert(app.StateDigest());
  }
  EXPECT_LE(digests.size(), 1u);
  // The doctored batch never executes anywhere.
  for (auto& rep : honest) {
    auto& app = static_cast<pbft::EchoStateMachine&>(rep->app());
    EXPECT_LE(app.applied(), 1u);
  }
}

}  // namespace
}  // namespace ziziphus
