#include <algorithm>
#include <deque>
#include <random>
#include <memory>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "pbft/batcher.h"
#include "pbft/durable.h"
#include "pbft/engine.h"
#include "tests/test_util.h"

namespace ziziphus {
namespace {

using testutil::PbftCluster;
using testutil::SentRecorder;

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

TEST(PbftTest, BurstBeyondTheWatermarkWindowCompletes) {
  // One burst deeper than the watermark window, one op per batch: the
  // primary proposes up to the window's edge, holds the rest queued and
  // proposes them once a stable checkpoint moves the window. One op per
  // client, so network jitter cannot reorder a client's own requests.
  pbft::PbftConfig base;
  base.batch_max = 1;
  PbftCluster c(4, 1, /*seed=*/1, /*one_way_us=*/1000, base);
  const std::size_t ops = pbft::kWatermarkWindow + 52;
  std::vector<std::unique_ptr<testutil::TestClient>> clients;
  for (std::size_t i = 0; i < ops; ++i) {
    clients.push_back(std::make_unique<testutil::TestClient>(&c.keys, 1));
    c.sim.Register(clients.back().get(), 0);
    clients.back()->SubmitLocal(c.members[0], "op");
  }
  c.sim.RunFor(Seconds(5));
  std::size_t done = 0;
  for (const auto& cl : clients) done += cl->completed();
  EXPECT_EQ(done, ops);
  EXPECT_EQ(c.engine(0).last_executed(), ops);
  std::uint64_t d = c.app(0).StateDigest();
  for (int i = 1; i < 4; ++i) EXPECT_EQ(c.app(i).StateDigest(), d);
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

TEST(PbftTest, ExecutedRelayedRetransmissionLeavesTheBacklog) {
  PbftCluster c(4, 1);
  pbft::Operation op;
  op.client = c.client->id();
  op.timestamp = 1;
  op.command = "relayed";
  auto req = std::make_shared<pbft::ClientRequestMsg>();
  req->op = op;
  req->client_sig = c.keys.Sign(c.client->id(), req->ComputeDigest());
  // The request reaches the primary and, as a retransmission, a backup:
  // the backup relays it and parks it in the backlog a future primary
  // proposes from.
  c.client->Send(c.members[0], req);
  c.client->Send(c.members[1], req);
  c.sim.RunFor(Seconds(1));
  for (int i = 0; i < 4; ++i) ASSERT_EQ(c.engine(i).last_executed(), 1u);
  // Executing the op drops it from the backlog. Were it still there, member
  // 1 would propose it again on entering view 1 as its primary.
  for (int i = 0; i < 4; ++i) c.engine(i).SuspectPrimary();
  c.sim.RunFor(Seconds(1));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(c.engine(i).view(), 1u) << "replica " << i;
    EXPECT_TRUE(c.engine(i).view_active()) << "replica " << i;
    EXPECT_EQ(c.engine(i).last_executed(), 1u) << "replica " << i;
  }
  EXPECT_EQ(c.sim.counters().Get(obs::CounterId::kPbftBatchesProposed), 1u);
  EXPECT_EQ(c.app(1).applied(), 1u);
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
  const Duration base = cfg.request_timeout_us;
  const Duration cap = pbft::kStateTransferBackoffCap;

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
  // Flat PBFT's request timeout (5 s, RunFlat) is the base, above the 4 s
  // cap: the cap must not shrink the delay below the liveness-critical
  // base.
  pbft::PbftConfig cfg;
  cfg.request_timeout_us = Seconds(5);
  const Duration base = cfg.request_timeout_us;
  ASSERT_GT(base, pbft::kStateTransferBackoffCap);
  for (std::uint64_t attempt : {0u, 1u, 7u}) {
    Duration d = pbft::PbftEngine::StateTransferBackoff(cfg, attempt, 0, 1);
    EXPECT_GE(d, base);
    EXPECT_LE(d, base + base / 8);
  }
}

// ---------------------------------------------------- shared batches

// One batch per proposal: every replica's prepared proofs, in memory and
// durable, point into the pre-prepare the primary multicast, which all
// replicas received as one object.
TEST(PbftBatchSharingTest, DurableProofsShareThePrimarysPrePrepareBatch) {
  PbftCluster c(4, 1);
  std::vector<pbft::DurableState> durable(4);
  for (std::size_t i = 0; i < 4; ++i) c.engine(i).set_durable(&durable[i]);
  SentRecorder pre_prepares(pbft::kPrePrepare);
  c.sim.SetInterceptor(c.members[0], &pre_prepares);
  c.client->SubmitLocal(c.members[0], "shared");
  c.sim.RunFor(Seconds(1));
  ASSERT_EQ(c.client->completed(), 1u);
  ASSERT_EQ(pre_prepares.sent.size(), 1u);
  const auto& pp =
      static_cast<const pbft::PrePrepareMsg&>(*pre_prepares.sent[0]);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(c.engine(i).last_executed(), 1u) << "replica " << i;
    EXPECT_EQ(durable[i].prepared_proofs.at(1).batch.get(), &pp.batch)
        << "replica " << i;
  }
}

// A delta state transfer ships the responder's proof batches by pointer.
TEST(PbftBatchSharingTest, DeltaEntriesShareTheRespondersProofBatches) {
  PbftCluster c(4, 1);  // checkpoint interval 128: nothing is trimmed
  std::vector<pbft::DurableState> durable(4);
  for (std::size_t i = 0; i < 4; ++i) c.engine(i).set_durable(&durable[i]);
  c.client->SubmitLocal(c.members[0], "seen");
  c.sim.RunFor(Seconds(1));
  ASSERT_EQ(c.engine(3).last_executed(), 1u);
  for (int i = 0; i < 3; ++i) {
    c.sim.faults().Partition(c.members[3], c.members[i]);
  }
  c.client->SubmitLocalSequence(c.members[0], 3, "missed");
  c.sim.RunFor(Seconds(2));
  ASSERT_EQ(c.client->completed(), 4u);
  ASSERT_EQ(c.engine(3).last_executed(), 1u);
  for (int i = 0; i < 3; ++i) c.sim.faults().Heal(c.members[3], c.members[i]);

  SentRecorder responses(pbft::kStateResponse);
  c.sim.SetInterceptor(c.members[1], &responses);
  const SeqNum head = c.engine(1).last_executed();
  c.engine(3).StartCatchUp(head);
  c.sim.RunFor(Seconds(1));
  EXPECT_EQ(c.engine(3).last_executed(), head);
  ASSERT_EQ(responses.sent.size(), 1u);
  const auto& resp =
      static_cast<const pbft::StateResponseMsg&>(*responses.sent[0]);
  ASSERT_TRUE(resp.is_delta);
  ASSERT_EQ(resp.delta.size(), head - 1);
  for (const auto& e : resp.delta) {
    EXPECT_EQ(e.batch.get(), durable[1].prepared_proofs.at(e.seq).batch.get())
        << "seq " << e.seq;
  }
}

// A Byzantine primary that sends different batches to different replicas:
// the honest pre-prepare to even member indices, a doctored one (same seq,
// different contents) to odd ones.
class DoctoredBatchInterceptor : public sim::OutboundInterceptor {
 public:
  DoctoredBatchInterceptor(const crypto::KeyRegistry* keys,
                           std::vector<NodeId> members)
      : keys_(keys), members_(std::move(members)) {}

  sim::MessagePtr OnSend(NodeId from, NodeId to,
                         const sim::MessagePtr& msg) override {
    if (msg->type() != pbft::kPrePrepare) return msg;
    auto pos = std::find(members_.begin(), members_.end(), to);
    if ((pos - members_.begin()) % 2 == 0) return msg;
    if (msg != last_original_) {
      const auto& pp = static_cast<const pbft::PrePrepareMsg&>(*msg);
      auto forged = std::make_shared<pbft::PrePrepareMsg>();
      forged->view = pp.view;
      forged->seq = pp.seq;
      pbft::Operation evil;
      evil.client = kInvalidClient;
      evil.timestamp = 999999;
      evil.command = "EVIL";
      forged->batch.ops.push_back(evil);
      forged->batch_digest = forged->batch.ComputeDigest();
      forged->sig = keys_->Sign(from, forged->digest());
      forged->set_from(from);
      last_original_ = msg;
      last_forged_ = std::move(forged);
    }
    return last_forged_;
  }

 private:
  const crypto::KeyRegistry* keys_;
  std::vector<NodeId> members_;
  sim::MessagePtr last_original_;
  sim::MessagePtr last_forged_;
};

TEST(PbftByzantineTest, EquivocatingPrimaryCannotSplitState) {
  crypto::KeyRegistry keys(1 ^ 0x5eedc0deULL);
  sim::Simulation sim(1, sim::LatencyModel::Uniform(1, 1000));

  baselines::PbftReplicaProcess evil;
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
  evil.Init(&keys, cfg, std::make_unique<pbft::EchoStateMachine>());
  for (auto& rep : honest) {
    rep->Init(&keys, cfg, std::make_unique<pbft::EchoStateMachine>());
  }
  DoctoredBatchInterceptor doctor(&keys, members);
  sim.SetInterceptor(members[0], &doctor);
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

// ------------------------------------------------------------------ Batcher

using IntBatcher = pbft::Batcher<int>;

std::vector<int> Ids(std::span<const IntBatcher::Entry> entries) {
  std::vector<int> out;
  for (const auto& e : entries) out.push_back(static_cast<int>(e.id));
  return out;
}

TEST(BatcherTest, SizeTriggeredCutTakesTheOldestOpsInOrder) {
  IntBatcher b;
  for (int i = 1; i <= 5; ++i) EXPECT_TRUE(b.Push(i, 10 * i));
  ASSERT_GE(b.size(), 3u);
  IntBatcher::Cut cut = b.TakeUpTo(3);
  EXPECT_EQ(cut.ops, (std::vector<int>{10, 20, 30}));
  EXPECT_EQ(b.size(), 2u);
  EXPECT_FALSE(b.Contains(1));
  EXPECT_TRUE(b.Contains(4));
  EXPECT_EQ(Ids(b.queued()), (std::vector<int>{4, 5}));
}

TEST(BatcherTest, TimerCutTakesAPartialBatchAndRearms) {
  IntBatcher b;
  b.Push(1, 10);
  EXPECT_TRUE(b.Arm());   // first op: the owner sets its timer
  b.Push(2, 20);
  EXPECT_FALSE(b.Arm());  // one timer per batch
  b.Disarm();             // the timer fired
  IntBatcher::Cut cut = b.TakeUpTo(pbft::kBatchMax);
  EXPECT_EQ(cut.ops, (std::vector<int>{10, 20}));
  EXPECT_TRUE(b.empty());
  EXPECT_TRUE(b.TakeUpTo(pbft::kBatchMax).ops.empty());
  b.Push(3, 30);
  EXPECT_TRUE(b.Arm());
}

TEST(BatcherTest, DuplicatePushIsRejectedOnlyWhileQueued) {
  IntBatcher b;
  EXPECT_TRUE(b.Push(7, 70));
  EXPECT_FALSE(b.Push(7, 71));
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b.TakeUpTo(1).ops, (std::vector<int>{70}));
  EXPECT_TRUE(b.Push(7, 72));
}

TEST(BatcherTest, RemoveDropsAQueuedOpAndIgnoresAnUnknownId) {
  IntBatcher b;
  for (int i = 1; i <= 3; ++i) b.Push(i, 10 * i);
  b.Remove(2);
  EXPECT_FALSE(b.Contains(2));
  EXPECT_EQ(Ids(b.queued()), (std::vector<int>{1, 3}));
  b.Remove(2);
  b.Remove(99);
  EXPECT_EQ(Ids(b.queued()), (std::vector<int>{1, 3}));
  EXPECT_TRUE(b.Push(2, 21));  // re-queued at the back
  EXPECT_EQ(Ids(b.queued()), (std::vector<int>{1, 3, 2}));
}

TEST(BatcherTest, DrainReturnsEveryEntryInFifoOrder) {
  IntBatcher b;
  const obs::TraceContext t{5, 6};
  for (int i = 1; i <= 4; ++i) {
    b.Push(i, 10 * i, i == 3 ? t : obs::TraceContext{});
  }
  b.Remove(2);
  std::vector<IntBatcher::Entry> drained = b.Drain();
  EXPECT_EQ(Ids(drained), (std::vector<int>{1, 3, 4}));
  EXPECT_EQ(drained[1].op, 30);
  EXPECT_EQ(drained[1].trace, t);
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(b.Contains(1));
  EXPECT_TRUE(b.Push(1, 11));
}

// The flat queue and id index against a deque and a set: pushes (with
// duplicates and id 0), cuts and removes from anywhere, over a table that
// grows several times and a queue whose consumed prefix is reclaimed.
TEST(BatcherTest, FlatStorageMatchesAReferenceQueueUnderChurn) {
  IntBatcher b;
  using Queued = std::vector<std::pair<std::uint64_t, int>>;
  std::deque<std::pair<std::uint64_t, int>> ref;  // (id, op), FIFO
  std::set<std::uint64_t> ref_ids;
  std::mt19937_64 rng(42);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t roll = rng() % 10;
    if (roll < 5) {
      // Small ids repeat often; every 64th push is a large id.
      const std::uint64_t id =
          step % 64 == 0 ? (rng() % 8) << 40 : rng() % 512;
      const bool fresh = ref_ids.insert(id).second;
      EXPECT_EQ(b.Push(id, step), fresh);
      if (fresh) ref.emplace_back(id, step);
    } else if (roll < 7) {
      const std::size_t max = rng() % 80;
      IntBatcher::Cut cut = b.TakeUpTo(max);
      ASSERT_EQ(cut.ops.size(), std::min(max, ref.size()));
      for (int op : cut.ops) {
        EXPECT_EQ(op, ref.front().second);
        ref_ids.erase(ref.front().first);
        ref.pop_front();
      }
    } else {
      const std::uint64_t id = ref.empty() || roll == 9
                                   ? rng() % 512
                                   : ref[rng() % ref.size()].first;
      b.Remove(id);
      if (ref_ids.erase(id) > 0) {
        ref.erase(std::find_if(ref.begin(), ref.end(),
                               [id](const auto& e) { return e.first == id; }));
      }
    }
    ASSERT_EQ(b.size(), ref.size());
    if (step % 97 == 0) {
      for (std::uint64_t id = 0; id < 512; ++id) {
        ASSERT_EQ(b.Contains(id), ref_ids.count(id) > 0) << id;
      }
      Queued queued;
      for (const auto& e : b.queued()) queued.emplace_back(e.id, e.op);
      ASSERT_EQ(queued, Queued(ref.begin(), ref.end()));
    }
  }
}

TEST(BatcherTest, CutCarriesTheFirstActiveTraceAndDropsTheRest) {
  IntBatcher b;
  const obs::TraceContext first{11, 1};
  const obs::TraceContext second{12, 2};
  b.Push(1, 10);  // no trace parked
  b.Push(2, 20, first);
  b.Push(3, 30, second);
  b.Push(4, 40, obs::TraceContext{13, 3});
  EXPECT_EQ(b.TakeUpTo(3).trace, first);
  // The next cut sees only what is still queued.
  EXPECT_EQ(b.TakeUpTo(3).trace, (obs::TraceContext{13, 3}));
  b.Push(3, 31);  // re-queued without a trace: `second` is gone
  EXPECT_FALSE(b.TakeUpTo(3).trace.active());
}

}  // namespace
}  // namespace ziziphus
