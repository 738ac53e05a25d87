// Verified edge-read fast path: Merkle-tree and proof/verdict unit tests
// (including the algebraic-forgery regression the old additive sum-digest
// scheme was vulnerable to), the engine's watermark gates, session
// guarantees across view changes and amnesia rejoin, the stale-read and
// forging Byzantine sweeps, read-heavy workload mixes over MobileClient,
// tampered witnesses the read-validity invariant must catch, and the chaos
// determinism probe with reads enabled.
// `ctest -L reads` runs this suite plus the bench_reads smoke pair.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/bank.h"
#include "app/chaos.h"
#include "app/experiment.h"
#include "app/workload.h"
#include "core/system.h"
#include "crypto/read_certificate.h"
#include "gtest/gtest.h"
#include "obs/metric_ids.h"
#include "sim/byzantine.h"
#include "sim/invariants.h"
#include "storage/kv_store.h"
#include "tests/read_fixtures.h"
#include "tests/test_util.h"

namespace ziziphus {
namespace {

using app::BankStateMachine;
using app::ReadVerdict;
using app::Session;
using testutil::MakeCheckpointCert;
using testutil::ReplyFor;

// ---------------------------------------------------------------- unit

TEST(MerkleTreeTest, MembershipAndAbsence) {
  storage::KvStore::Map entries = {
      {"b", "1"}, {"d", "2"}, {"f", "3"}, {"h", "4"}, {"j", "5"}};
  crypto::MerkleTree tree(entries);
  EXPECT_EQ(tree.leaf_count(), 5u);

  for (const auto& [k, v] : entries) {
    crypto::MerkleProof p = tree.Prove(k);
    bool found = false;
    std::string value;
    ASSERT_TRUE(
        crypto::VerifyMerkleProof(tree.root(), k, p, &found, &value).ok())
        << k;
    EXPECT_TRUE(found);
    EXPECT_EQ(value, v);
  }

  // Absence in the middle, before the first leaf, and after the last.
  for (const std::string k : {"c", "a", "z"}) {
    crypto::MerkleProof p = tree.Prove(k);
    bool found = true;
    std::string value;
    ASSERT_TRUE(
        crypto::VerifyMerkleProof(tree.root(), k, p, &found, &value).ok())
        << k;
    EXPECT_FALSE(found) << k;
  }

  // A proof for one key says nothing about another.
  crypto::MerkleProof p = tree.Prove("d");
  bool found = false;
  std::string value;
  EXPECT_FALSE(
      crypto::VerifyMerkleProof(tree.root(), "f", p, &found, &value).ok());

  // Tampering with the proven value breaks the fold to the root.
  crypto::MerkleProof forged = tree.Prove("d");
  forged.leaf().value = "999";
  EXPECT_FALSE(
      crypto::VerifyMerkleProof(tree.root(), "d", forged, &found, &value)
          .ok());

  // Lying about the leaf count (to fake an edge absence) is caught: the
  // root binds the count.
  crypto::MerkleProof miscount = tree.Prove("z");
  miscount.leaf_count = 4;
  EXPECT_FALSE(
      crypto::VerifyMerkleProof(tree.root(), "z", miscount, &found, &value)
          .ok());

  // Empty tree proves absence of anything.
  crypto::MerkleTree empty{storage::KvStore::Map{}};
  crypto::MerkleProof none = empty.Prove("q");
  found = true;
  ASSERT_TRUE(
      crypto::VerifyMerkleProof(empty.root(), "q", none, &found, &value)
          .ok());
  EXPECT_FALSE(found);
}

TEST(ReadProofTest, VerifiesPresentAndAbsentKeys) {
  crypto::KeyRegistry keys(7);
  auto is_member = [](NodeId n) { return n <= 3; };

  storage::KvStore store;
  store.Put("acct/7", "100");
  store.Put("acct/9", "250");
  std::map<ClientId, RequestTimestamp> coverage = {{100, 5}};
  crypto::MerkleTree tree = crypto::BuildReadTree(store.Snapshot(), coverage);
  std::uint64_t state = store.StateDigest();

  crypto::ReadProof proof;
  proof.anchor_seq = 8;
  proof.state_digest = state;
  proof.read_root = tree.root();
  proof.key_proof = tree.Prove(crypto::ReadDataLeafKey("acct/7"));
  proof.coverage_proof = tree.Prove(crypto::ReadCoverageLeafKey(100));
  proof.certificate = MakeCheckpointCert(keys, {0, 1}, 8, state, tree.root());

  RequestTimestamp covered = 0;
  EXPECT_TRUE(crypto::VerifyReadProof(keys, proof, "acct/7", true, "100",
                                      100, 2, is_member, &covered)
                  .ok());
  EXPECT_EQ(covered, 5u);  // proven, not claimed

  // Absent key: non-membership path for its data leaf.
  crypto::ReadProof absent = proof;
  absent.key_proof = tree.Prove(crypto::ReadDataLeafKey("acct/8"));
  EXPECT_TRUE(crypto::VerifyReadProof(keys, absent, "acct/8", false, "",
                                      100, 2, is_member, nullptr)
                  .ok());

  // A client with no coverage leaf proves coverage 0.
  crypto::ReadProof uncovered = proof;
  uncovered.coverage_proof = tree.Prove(crypto::ReadCoverageLeafKey(999));
  covered = 77;
  EXPECT_TRUE(crypto::VerifyReadProof(keys, uncovered, "acct/7", true,
                                      "100", 999, 2, is_member, &covered)
                  .ok());
  EXPECT_EQ(covered, 0u);

  // A tampered value does not match the proven leaf.
  EXPECT_FALSE(crypto::VerifyReadProof(keys, proof, "acct/7", true, "999",
                                       100, 2, is_member, nullptr)
                   .ok());

  // Falsely claiming absence of a present key.
  EXPECT_FALSE(crypto::VerifyReadProof(keys, proof, "acct/7", false, "",
                                       100, 2, is_member, nullptr)
                   .ok());

  // Too few signatures.
  crypto::ReadProof thin = proof;
  thin.certificate = MakeCheckpointCert(keys, {0}, 8, state, tree.root());
  EXPECT_FALSE(crypto::VerifyReadProof(keys, thin, "acct/7", true, "100",
                                       100, 2, is_member, nullptr)
                   .ok());

  // Signers outside the zone do not count toward the quorum.
  crypto::ReadProof foreign = proof;
  foreign.certificate =
      MakeCheckpointCert(keys, {10, 11}, 8, state, tree.root());
  EXPECT_FALSE(crypto::VerifyReadProof(keys, foreign, "acct/7", true, "100",
                                       100, 2, is_member, nullptr)
                   .ok());
}

// Regression for the forgery that broke the additive sum-digest scheme: a
// Byzantine replica holding a *valid* checkpoint certificate fabricates an
// arbitrary value and back-solves the proof so it is internally consistent.
// Under `record + rest == state` the attacker always succeeded by setting
// rest = state - EntryDigest(key, lie); under the Merkle tree the patched
// leaf cannot fold to the certified root.
TEST(ReadProofTest, AlgebraicForgeryRejected) {
  crypto::KeyRegistry keys(7);
  auto is_member = [](NodeId n) { return n <= 3; };

  storage::KvStore store;
  store.Put("acct/7", "100");
  store.Put("acct/9", "250");
  std::map<ClientId, RequestTimestamp> coverage = {{100, 5}};
  crypto::MerkleTree tree = crypto::BuildReadTree(store.Snapshot(), coverage);

  crypto::ReadProof proof;
  proof.anchor_seq = 8;
  proof.state_digest = store.StateDigest();
  proof.read_root = tree.root();
  proof.key_proof = tree.Prove(crypto::ReadDataLeafKey("acct/7"));
  proof.coverage_proof = tree.Prove(crypto::ReadCoverageLeafKey(100));
  proof.certificate =
      MakeCheckpointCert(keys, {0, 1}, 8, store.StateDigest(), tree.root());

  // The lie is internally consistent: the leaf hashes over the fabricated
  // value and every sibling digest is genuine. Only the fold to the
  // certified root exposes it.
  crypto::ReadProof forged = proof;
  forged.key_proof.leaf().value = "1000000";
  EXPECT_FALSE(crypto::VerifyReadProof(keys, forged, "acct/7", true,
                                       "1000000", 100, 2, is_member, nullptr)
                   .ok());

  // Equally, a stale-but-certified value cannot ride under the fresh root:
  // rebuilding the snapshot's tree after the write moves the root, and the
  // old proof's fold no longer matches.
  storage::KvStore moved;
  moved.Restore(store.Snapshot());
  moved.Put("acct/7", "175");
  crypto::MerkleTree fresh =
      crypto::BuildReadTree(moved.Snapshot(), coverage);
  crypto::ReadProof stale = proof;  // old tree's path for the old value
  stale.state_digest = moved.StateDigest();
  stale.read_root = fresh.root();
  stale.certificate = MakeCheckpointCert(keys, {0, 1}, 12,
                                         moved.StateDigest(), fresh.root());
  stale.anchor_seq = 12;
  EXPECT_FALSE(crypto::VerifyReadProof(keys, stale, "acct/7", true, "100",
                                       100, 2, is_member, nullptr)
                   .ok());
}

TEST(ReadVerdictTest, SessionWatermarksEnforced) {
  crypto::KeyRegistry keys(11);
  const std::vector<NodeId> members = {0, 1, 2, 3};
  storage::KvStore store;
  store.Put("acct/5", "42");

  pbft::ReadReplyMsg ok = ReplyFor(keys, members, store, 12, "acct/5");
  Session session;
  EXPECT_EQ(app::VerifyReadReply(keys, members, 1, ok, session, 0),
            ReadVerdict::kOk);

  pbft::ReadReplyMsg behind = ok;
  behind.behind = true;
  EXPECT_EQ(app::VerifyReadReply(keys, members, 1, behind, session, 0),
            ReadVerdict::kBehind);

  // A lying replica swaps the value but cannot re-anchor the proof.
  pbft::ReadReplyMsg lie = ok;
  lie.value = "13";
  EXPECT_EQ(app::VerifyReadReply(keys, members, 1, lie, session, 0),
            ReadVerdict::kBadInclusion);

  // Certificate from outside the zone.
  pbft::ReadReplyMsg foreign = ok;
  foreign.proof.certificate = MakeCheckpointCert(
      keys, {20, 21}, 12, ok.proof.state_digest, ok.proof.read_root);
  EXPECT_EQ(app::VerifyReadReply(keys, members, 1, foreign, session, 0),
            ReadVerdict::kBadCertificate);

  // A corrupted coverage path is its own verdict.
  pbft::ReadReplyMsg badcov = ok;
  badcov.proof.coverage_proof.leaf().value = "123456";
  EXPECT_EQ(app::VerifyReadReply(keys, members, 1, badcov, session, 0),
            ReadVerdict::kBadCoverage);

  // Monotonic reads: the session already saw seq 15 from this zone.
  Session ahead;
  ahead.AdvanceFloor(0, 15);
  EXPECT_EQ(app::VerifyReadReply(keys, members, 1, ok, ahead, 0),
            ReadVerdict::kStaleAnchor);

  // Read-your-writes: the checkpoint only covers ts 5, the client wrote 9.
  Session wrote;
  wrote.last_write_ts = 9;
  EXPECT_EQ(app::VerifyReadReply(keys, members, 1, ok, wrote, 0),
            ReadVerdict::kStaleWrite);

  // The replica's *claimed* coverage is ignored: inflating the wire field
  // without a matching coverage leaf still fails read-your-writes. This is
  // the self-reported-coverage hole the certified coverage table closes.
  pbft::ReadReplyMsg inflated = ok;
  inflated.covered_write_ts = 1000000;
  EXPECT_EQ(app::VerifyReadReply(keys, members, 1, inflated, wrote, 0),
            ReadVerdict::kStaleWrite);

  // With the coverage genuinely in the certified tree, the same session
  // verifies.
  pbft::ReadReplyMsg covered =
      ReplyFor(keys, members, store, 12, "acct/5", /*covered_ts=*/9);
  EXPECT_EQ(app::VerifyReadReply(keys, members, 1, covered, wrote, 0),
            ReadVerdict::kOk);
}

// ---------------------------------------------------------- engine path

/// Minimal read-side client: fires one signed ReadRequest at a chosen
/// replica and keeps the last reply for the test to inspect.
class ReadProbe : public sim::Process {
 public:
  explicit ReadProbe(const crypto::KeyRegistry* keys) : keys_(keys) {}

  void SendRead(NodeId target, std::string key, SeqNum min_stable = 0,
                RequestTimestamp min_write = 0) {
    auto req = std::make_shared<pbft::ReadRequestMsg>();
    req->client = id();
    req->nonce = ++nonce_;
    req->key = std::move(key);
    req->min_stable_seq = min_stable;
    req->min_write_ts = min_write;
    req->client_sig = keys_->Sign(id(), req->ComputeDigest());
    last_.reset();
    Send(target, req);
  }

  const std::optional<pbft::ReadReplyMsg>& last() const { return last_; }

 protected:
  void OnMessage(const sim::MessagePtr& msg) override {
    if (msg->type() != pbft::kReadReply) return;
    // Message copy-assignment is deleted (immutability); emplace a copy.
    last_.emplace(static_cast<const pbft::ReadReplyMsg&>(*msg));
  }

 private:
  const crypto::KeyRegistry* keys_;
  RequestTimestamp nonce_ = 0;
  std::optional<pbft::ReadReplyMsg> last_;
};

struct ReadFixture {
  explicit ReadFixture(std::uint64_t seed = 1)
      : sys(seed, sim::LatencyModel::PaperGeoMatrix()) {
    sys.AddZone(/*cluster=*/0, /*region=*/0, /*f=*/1, 4);
    core::NodeConfig cfg;
    cfg.pbft.request_timeout_us = Seconds(2);
    // Tight interval so a handful of ops produces a certified anchor.
    cfg.pbft.checkpoint_interval = 4;
    sys.Finalize(cfg,
                 [](ZoneId) { return std::make_unique<BankStateMachine>(); });
    writer = std::make_unique<testutil::TestClient>(&sys.keys(), 1);
    sys.sim().Register(writer.get(), 0);
    probe = std::make_unique<ReadProbe>(&sys.keys());
    sys.sim().Register(probe.get(), 0);
    sys.BootstrapClient(writer->id(), 0, Seed);
    sys.BootstrapClient(probe->id(), 0, Seed);
    members = sys.topology().zone(0).members;
  }

  static storage::KvStore::Map Seed(ClientId id) {
    return {{BankStateMachine::AccountKey(id), "1000"}};
  }

  ReadVerdict Verify(const pbft::ReadReplyMsg& reply,
                     const Session& session = {}) {
    return app::VerifyReadReply(sys.keys(), members, 1, reply, session, 0);
  }

  core::ZiziphusSystem sys;
  std::unique_ptr<testutil::TestClient> writer;
  std::unique_ptr<ReadProbe> probe;
  std::vector<NodeId> members;
};

TEST(ReadPathTest, ServesCertifiedValueAfterCheckpoint) {
  ReadFixture fx;
  fx.writer->SubmitLocalSequence(fx.sys.PrimaryOf(0)->id(), 6, "DEP ");
  fx.sys.sim().RunFor(Seconds(3));

  fx.probe->SendRead(fx.members[1], BankStateMachine::AccountKey(
                                        fx.writer->id()));
  fx.sys.sim().RunFor(Seconds(1));

  ASSERT_TRUE(fx.probe->last().has_value());
  const pbft::ReadReplyMsg& r = *fx.probe->last();
  EXPECT_FALSE(r.behind);
  EXPECT_TRUE(r.found);
  EXPECT_GE(r.proof.anchor_seq, 4u);
  EXPECT_EQ(fx.Verify(r), ReadVerdict::kOk);
  EXPECT_GE(fx.sys.sim().counters().Get(obs::CounterId::kReadsServed), 1u);
}

TEST(ReadPathTest, BehindBeforeAnyCheckpoint) {
  ReadFixture fx;
  fx.sys.sim().RunFor(Millis(500));
  fx.probe->SendRead(fx.members[1],
                     BankStateMachine::AccountKey(fx.writer->id()));
  fx.sys.sim().RunFor(Seconds(1));
  ASSERT_TRUE(fx.probe->last().has_value());
  EXPECT_TRUE(fx.probe->last()->behind);
  EXPECT_GE(fx.sys.sim().counters().Get(obs::CounterId::kReadsRedirects), 1u);
}

TEST(ReadPathTest, WatermarkGatesRedirect) {
  ReadFixture fx;
  fx.writer->SubmitLocalSequence(fx.sys.PrimaryOf(0)->id(), 6, "DEP ");
  fx.sys.sim().RunFor(Seconds(3));

  // Monotonic floor above the replica's stable checkpoint.
  fx.probe->SendRead(fx.members[1],
                     BankStateMachine::AccountKey(fx.writer->id()),
                     /*min_stable=*/1000000);
  fx.sys.sim().RunFor(Seconds(1));
  ASSERT_TRUE(fx.probe->last().has_value());
  EXPECT_TRUE(fx.probe->last()->behind);

  // Read-your-writes floor the checkpoint cannot cover yet.
  fx.probe->SendRead(fx.members[1],
                     BankStateMachine::AccountKey(fx.writer->id()),
                     /*min_stable=*/0, /*min_write=*/1000000);
  fx.sys.sim().RunFor(Seconds(1));
  ASSERT_TRUE(fx.probe->last().has_value());
  EXPECT_TRUE(fx.probe->last()->behind);
}

TEST(ReadPathTest, StaleReadResponderCaughtByInclusionCheck) {
  ReadFixture fx;
  NodeId liar = fx.members[1];
  sim::StaleReadResponderBehavior byz(&fx.sys.sim(), liar);
  byz.Attach();

  const std::string key = BankStateMachine::AccountKey(fx.writer->id());
  fx.writer->SubmitLocalSequence(fx.sys.PrimaryOf(0)->id(), 6, "DEP ");
  fx.sys.sim().RunFor(Seconds(3));

  // First read freezes the liar's answer — still the truth.
  fx.probe->SendRead(liar, key);
  fx.sys.sim().RunFor(Seconds(1));
  ASSERT_TRUE(fx.probe->last().has_value());
  ASSERT_EQ(fx.Verify(*fx.probe->last()), ReadVerdict::kOk);
  const std::string frozen = fx.probe->last()->value;

  // The account moves on; the liar keeps serving the frozen value under a
  // fresh proof, which the inclusion equation rejects.
  fx.writer->SubmitLocalSequence(fx.sys.PrimaryOf(0)->id(), 6, "DEP ");
  fx.sys.sim().RunFor(Seconds(3));
  fx.probe->SendRead(liar, key);
  fx.sys.sim().RunFor(Seconds(1));
  ASSERT_TRUE(fx.probe->last().has_value());
  EXPECT_EQ(fx.probe->last()->value, frozen);
  EXPECT_EQ(fx.Verify(*fx.probe->last()), ReadVerdict::kBadInclusion);
  EXPECT_GE(byz.lies_told(), 1u);
  EXPECT_GE(fx.sys.sim().counters().Get(obs::CounterId::kByzStaleReadLies),
            1u);

  // An honest replica still serves the fresh, verifiable value.
  fx.probe->SendRead(fx.members[2], key);
  fx.sys.sim().RunFor(Seconds(1));
  ASSERT_TRUE(fx.probe->last().has_value());
  EXPECT_EQ(fx.Verify(*fx.probe->last()), ReadVerdict::kOk);
  EXPECT_NE(fx.probe->last()->value, frozen);
}

TEST(ReadPathTest, ForgingResponderCaughtByMerkleFold) {
  ReadFixture fx;
  NodeId liar = fx.members[1];
  sim::ForgingReadResponderBehavior byz(&fx.sys.sim(), liar, "1000000");
  byz.Attach();

  const std::string key = BankStateMachine::AccountKey(fx.writer->id());
  fx.writer->SubmitLocalSequence(fx.sys.PrimaryOf(0)->id(), 6, "DEP ");
  fx.sys.sim().RunFor(Seconds(3));

  // The liar serves an internally-consistent forged leaf — genuine sibling
  // digests, fabricated value — plus an inflated coverage claim. The fold
  // to the certified root rejects it.
  fx.probe->SendRead(liar, key);
  fx.sys.sim().RunFor(Seconds(1));
  ASSERT_TRUE(fx.probe->last().has_value());
  EXPECT_EQ(fx.probe->last()->value, "1000000");
  EXPECT_EQ(fx.Verify(*fx.probe->last()), ReadVerdict::kBadInclusion);
  EXPECT_GE(byz.lies_told(), 1u);
  EXPECT_GE(fx.sys.sim().counters().Get(obs::CounterId::kByzForgedReadLies),
            1u);

  // An honest replica's answer verifies.
  fx.probe->SendRead(fx.members[2], key);
  fx.sys.sim().RunFor(Seconds(1));
  ASSERT_TRUE(fx.probe->last().has_value());
  EXPECT_EQ(fx.Verify(*fx.probe->last()), ReadVerdict::kOk);
  EXPECT_NE(fx.probe->last()->value, "1000000");
}

TEST(ReadPathTest, MonotonicAnchorsAcrossViewChange) {
  ReadFixture fx;
  fx.writer->EnableRetry(fx.members, Seconds(1));
  const std::string key = BankStateMachine::AccountKey(fx.writer->id());

  fx.writer->SubmitLocalSequence(fx.sys.PrimaryOf(0)->id(), 6, "DEP ");
  fx.sys.sim().RunFor(Seconds(3));
  fx.probe->SendRead(fx.members[2], key);
  fx.sys.sim().RunFor(Seconds(1));
  ASSERT_TRUE(fx.probe->last().has_value());
  ASSERT_EQ(fx.Verify(*fx.probe->last()), ReadVerdict::kOk);
  SeqNum floor = fx.probe->last()->proof.anchor_seq;

  // Crash the primary; retransmission drives the zone through a view
  // change and the workload continues under the new primary.
  NodeId old_primary = fx.sys.PrimaryOf(0)->id();
  fx.sys.sim().schedule().CrashAt(fx.sys.sim().Now() + Millis(10),
                                  old_primary);
  fx.writer->SubmitLocalSequence(old_primary, 8, "DEP ");
  fx.sys.sim().RunFor(Seconds(20));

  bool view_advanced = false;
  for (const auto& node : fx.sys.nodes()) {
    if (node->id() != old_primary && node->pbft().view() > 0) {
      view_advanced = true;
    }
  }
  EXPECT_TRUE(view_advanced);

  // A replica that survived the view change serves an anchor at or above
  // the session floor.
  Session session;
  session.AdvanceFloor(0, floor);
  fx.probe->SendRead(fx.members[3], key, /*min_stable=*/floor);
  fx.sys.sim().RunFor(Seconds(1));
  ASSERT_TRUE(fx.probe->last().has_value());
  ASSERT_FALSE(fx.probe->last()->behind);
  EXPECT_EQ(fx.Verify(*fx.probe->last(), session), ReadVerdict::kOk);
  EXPECT_GE(fx.probe->last()->proof.anchor_seq, floor);
}

TEST(ReadPathTest, MonotonicAnchorsAcrossAmnesiaRejoin) {
  ReadFixture fx;
  fx.writer->EnableRetry(fx.members, Seconds(1));
  const std::string key = BankStateMachine::AccountKey(fx.writer->id());
  NodeId victim = fx.members[1];

  fx.writer->SubmitLocalSequence(fx.sys.PrimaryOf(0)->id(), 6, "DEP ");
  fx.sys.sim().RunFor(Seconds(3));
  fx.probe->SendRead(victim, key);
  fx.sys.sim().RunFor(Seconds(1));
  ASSERT_TRUE(fx.probe->last().has_value());
  ASSERT_EQ(fx.Verify(*fx.probe->last()), ReadVerdict::kOk);
  SeqNum floor = fx.probe->last()->proof.anchor_seq;

  // The serving replica forgets everything volatile and rejoins from its
  // durable store while the zone keeps committing.
  SimTime now = fx.sys.sim().Now();
  fx.sys.sim().schedule().CrashAmnesiaAt(now + Millis(10), victim);
  fx.sys.sim().schedule().RecoverAmnesiaAt(now + Seconds(2), victim);
  fx.writer->SubmitLocalSequence(fx.sys.PrimaryOf(0)->id(), 8, "DEP ");
  fx.sys.sim().RunFor(Seconds(10));

  Session session;
  session.AdvanceFloor(0, floor);
  fx.probe->SendRead(victim, key, /*min_stable=*/floor);
  fx.sys.sim().RunFor(Seconds(1));
  ASSERT_TRUE(fx.probe->last().has_value());
  ASSERT_FALSE(fx.probe->last()->behind)
      << "rejoined replica never rebuilt a servable checkpoint";
  EXPECT_EQ(fx.Verify(*fx.probe->last(), session), ReadVerdict::kOk);
  EXPECT_GE(fx.probe->last()->proof.anchor_seq, floor);
}

// ------------------------------------------------------ workload mixes

core::NodeConfig MixConfig() {
  core::NodeConfig cfg = app::DefaultNodeConfig();
  cfg.pbft.checkpoint_interval = 16;
  return cfg;
}

app::WorkloadSpec MixWorkload(double read_fraction) {
  app::WorkloadSpec wl;
  wl.clients_per_zone = 20;
  wl.mix.read_fraction = read_fraction;
  wl.mix.global_fraction = 0.1;
  wl.warmup = Millis(800);
  wl.measure = Seconds(2);
  return wl;
}

TEST(ReadMixTest, FastPathServesVerifiedReads) {
  auto r = app::RunExperimentWithConfig(
      app::Protocol::kZiziphus, app::PaperDeployment(3), MixWorkload(0.9),
      MixConfig());
  EXPECT_GT(r.read_ops, 0u);
  EXPECT_GT(r.reads_served, 0u);
  EXPECT_GT(r.reads_cert_verified, 0u);
  EXPECT_EQ(r.reads_cert_rejected, 0u);
  EXPECT_EQ(r.reads_session_violations, 0u);
}

TEST(ReadMixTest, TxnPathControlNeverTouchesFastPath) {
  app::WorkloadSpec wl = MixWorkload(0.9);
  wl.verified_reads = false;
  auto r = app::RunExperimentWithConfig(app::Protocol::kZiziphus,
                                        app::PaperDeployment(3), wl,
                                        MixConfig());
  EXPECT_GT(r.read_ops, 0u);
  EXPECT_EQ(r.reads_served, 0u);
  // Every read became a BAL transaction. Fallbacks are counted at issue
  // time and read_ops at completion, so the two drift by the handful of
  // reads in flight across the warmup boundary — compare loosely.
  EXPECT_GT(r.read_fallbacks, 0u);
  EXPECT_NEAR(static_cast<double>(r.read_fallbacks),
              static_cast<double>(r.read_ops), 64.0);
}

TEST(ReadMixTest, CausalSessionsRun) {
  app::WorkloadSpec wl = MixWorkload(0.5);
  wl.causal = true;
  auto r = app::RunExperimentWithConfig(app::Protocol::kZiziphus,
                                        app::PaperDeployment(3), wl,
                                        MixConfig());
  EXPECT_GT(r.read_ops, 0u);
  EXPECT_EQ(r.reads_session_violations, 0u);
}

TEST(ReadMixTest, ReadsInterleaveWithMigrations) {
  app::WorkloadSpec wl = MixWorkload(0.4);
  wl.mix.global_fraction = 0.5;
  auto r = app::RunExperimentWithConfig(app::Protocol::kZiziphus,
                                        app::PaperDeployment(3), wl,
                                        MixConfig());
  EXPECT_GT(r.read_ops, 0u);
  EXPECT_GT(r.global_ops, 0u);
  // Read-your-writes holds across migration: no client ever had to reject
  // a reply for violating its session watermarks in an honest run.
  EXPECT_EQ(r.reads_session_violations, 0u);
}

// ------------------------------------------------ read-validity invariant

/// Each tampered copy of one accepted read trips the read-validity check
/// exactly once; the untouched witnesses pass. Tampering copies the proof
/// into a fresh one and never writes through the shared pointer.
TEST(ReadValidityTest, EachTamperedWitnessTripsTheCheckOnce) {
  testutil::RecordedReadRun run;
  ASSERT_TRUE(run.done);
  ASSERT_FALSE(run.witnesses.empty());
  ASSERT_TRUE(run.Check(run.witnesses).empty());

  // The witness to tamper with: one anchored at the stable checkpoint an
  // honest replica of its zone still holds, so the check can compare its
  // anchor pair against what the zone certified.
  std::size_t target = run.witnesses.size();
  for (std::size_t i = 0; i < run.witnesses.size(); ++i) {
    const crypto::ReadWitness& w = run.witnesses[i];
    for (NodeId n : run.sys.topology().zone(w.zone).members) {
      if (run.sys.node(n)->pbft().last_stable_checkpoint().seq ==
          w.proof->anchor_seq) {
        target = i;
      }
    }
  }
  ASSERT_LT(target, run.witnesses.size());
  const crypto::ReadWitness original = run.witnesses[target];
  const crypto::ReadProof untouched = *original.proof;

  auto tampered = [&](auto edit) {
    std::vector<crypto::ReadWitness> reads = run.witnesses;
    crypto::ReadWitness& w = reads[target];
    auto fresh = std::make_shared<crypto::ReadProof>(*w.proof);
    edit(w, *fresh);
    w.proof = std::move(fresh);
    return run.Check(std::move(reads));
  };
  // `clause` names the part of the check that must catch the tamper.
  auto expect_one = [](const std::vector<sim::InvariantViolation>& found,
                       const std::string& clause) {
    ASSERT_EQ(found.size(), 1u) << clause;
    EXPECT_EQ(found[0].invariant, "read-validity") << clause;
    EXPECT_NE(found[0].detail.find(clause), std::string::npos)
        << found[0].detail;
  };

  expect_one(tampered([](crypto::ReadWitness& w, crypto::ReadProof&) {
               w.value += "0";
             }),
             "binds a different value");
  expect_one(tampered([](crypto::ReadWitness&, crypto::ReadProof& p) {
               ASSERT_FALSE(p.key_proof.leaf().siblings.empty());
               p.key_proof.leaf().siblings[0] ^= 1;
             }),
             "merkle path does not fold to root");
  expect_one(tampered([](crypto::ReadWitness& w, crypto::ReadProof& p) {
               w.floor_before = p.anchor_seq + 1;
             }),
             "below its session floor");
  // A pair the zone never stabilized, certified by f+1 members' keys so
  // that only the comparison with the honest anchor can catch it.
  const std::vector<NodeId>& members =
      run.sys.topology().zone(original.zone).members;
  expect_one(tampered([&](crypto::ReadWitness&, crypto::ReadProof& p) {
               p.state_digest ^= 1;
               p.certificate = MakeCheckpointCert(
                   run.sys.keys(), {members[0], members[1]}, p.anchor_seq,
                   p.state_digest, p.read_root);
             }),
             "stabilized (digest");

  // The recorded witness and its shared proof are as they were.
  EXPECT_EQ(run.witnesses[target].proof, original.proof);
  EXPECT_EQ(run.witnesses[target].value, original.value);
  EXPECT_EQ(original.proof->key_proof, untouched.key_proof);
  EXPECT_EQ(original.proof->state_digest, untouched.state_digest);
  EXPECT_TRUE(run.Check(run.witnesses).empty());
}

// ------------------------------------------------------------- chaos

TEST(ReadChaosTest, SweepGreen) {
  std::uint64_t total_ok = 0;
  for (std::uint64_t seed : {3u, 11u}) {
    app::ChaosOptions opt;
    opt.seed = seed;
    opt.mix.read_fraction = 1.0;  // scripted: one read per completed op
    app::ChaosReport report = app::RunZiziphusChaos(opt);
    testutil::RecordRunProperties(report,
                                  "seed" + std::to_string(seed) + "_");
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": " << report.Summary();
    EXPECT_GT(report.reads_ok + report.reads_abandoned, 0u)
        << "seed " << seed << " issued no reads";
    total_ok += report.reads_ok;
  }
  // Across the sweep, at least some reads must actually be served and
  // verified (all-abandoned would make the invariant sweep vacuous).
  EXPECT_GT(total_ok, 0u);
}

TEST(ReadChaosTest, AmnesiaRejoinWithReadsStaysGreen) {
  app::ChaosOptions opt;
  opt.seed = 5;
  opt.mix.read_fraction = 1.0;
  opt.amnesia_crashes = 2;
  app::ChaosReport report = app::RunZiziphusChaos(opt);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.reads_ok + report.reads_abandoned, 0u);
}

}  // namespace
}  // namespace ziziphus
