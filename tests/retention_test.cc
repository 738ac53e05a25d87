// Log lifecycle and retention: checkpoint-anchored trimming of the commit
// log / prepared proofs / WAL, reply-cache eviction with synthesized
// replay acknowledgements, the trim-vs-rejoin races (an amnesiac asking
// for a trimmed sequence must converge via snapshot install; trimming
// racing a view change must never drop a prepared-but-uncheckpointed
// proof), and the long-horizon soak harness (memory bound, determinism,
// delta-vs-full rejoin cost).

#include <memory>
#include <string>
#include <vector>

#include "app/bank.h"
#include "app/harness.h"
#include "app/soak.h"
#include "core/system.h"
#include "gtest/gtest.h"
#include "sim/invariants.h"
#include "tests/test_util.h"

namespace ziziphus {
namespace {

using app::BankStateMachine;
using app::RejoinProbeOptions;
using app::RejoinProbeResult;
using app::RunRejoinProbe;
using app::RunZiziphusSoak;
using app::SoakOptions;
using app::SoakReport;
using core::NodeConfig;
using core::ZiziphusSystem;
using testutil::PbftCluster;

std::uint64_t CounterOf(const std::map<std::string, std::uint64_t>& counters,
                        const std::string& name) {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

// --------------------------------------------------- checkpoint trimming

TEST(RetentionTest, CheckpointTrimBoundsCommitLogAndProofs) {
  pbft::PbftConfig cfg;
  cfg.checkpoint_interval = 4;
  PbftCluster c(4, 1, /*seed=*/11, /*one_way_us=*/1000, cfg);
  c.client->EnableRetry(c.members, Millis(900));
  c.client->SubmitLocalSequence(c.members[0], 30, "op ");
  c.sim.RunFor(Seconds(20));
  ASSERT_EQ(c.client->completed(), 30u);

  EXPECT_GE(c.sim.counters().Get(obs::CounterId::kPbftLogTrims), 1u);
  for (std::size_t i = 0; i < 4; ++i) {
    auto r = c.engine(i).retention();
    EXPECT_GT(c.engine(i).stable_seq(), 0u) << "replica " << i;
    // The live window is everything above the stable checkpoint plus at
    // most one uncollected interval — far less than the 30-op history.
    EXPECT_LT(r.commit_log_entries, 15u) << "replica " << i;
    EXPECT_LT(r.prepared_proofs, 15u) << "replica " << i;
    EXPECT_LT(r.wal_entries, 15u) << "replica " << i;
  }
}

TEST(RetentionTest, TrimDisabledRetainsFullHistory) {
  pbft::PbftConfig cfg;
  cfg.checkpoint_interval = 4;
  cfg.trim_at_checkpoint = false;
  PbftCluster c(4, 1, /*seed=*/11, /*one_way_us=*/1000, cfg);
  c.client->EnableRetry(c.members, Millis(900));
  c.client->SubmitLocalSequence(c.members[0], 30, "op ");
  c.sim.RunFor(Seconds(20));
  ASSERT_EQ(c.client->completed(), 30u);

  EXPECT_EQ(c.sim.counters().Get(obs::CounterId::kPbftLogTrims), 0u);
  // The control arm keeps the whole history: every executed op stays in
  // the commit log even though checkpoints advanced past it.
  auto r = c.engine(1).retention();
  EXPECT_GE(r.commit_log_entries, 30u);
}

// ------------------------------------------------- reply-cache eviction

TEST(RetentionTest, ReplyCacheEvictsSupersededEntriesAndReplaysSynth) {
  pbft::PbftConfig cfg;
  cfg.checkpoint_interval = 4;
  PbftCluster c(4, 1, /*seed=*/13, /*one_way_us=*/1000, cfg);
  testutil::TestClient other(&c.keys, 1);
  c.sim.Register(&other, 0);
  c.client->EnableRetry(c.members, Millis(900));
  other.EnableRetry(c.members, Millis(900));

  // Client A executes once, then goes quiet.
  auto t1 = c.client->SubmitLocal(c.members[0], "hello");
  c.sim.RunFor(Seconds(2));
  ASSERT_TRUE(c.client->IsComplete(t1));
  const std::string first_result = c.client->ResultOf(t1);
  EXPECT_FALSE(first_result.empty());

  // Client B pushes the stable checkpoint far past A's last reply.
  other.SubmitLocalSequence(c.members[0], 12, "fill ");
  c.sim.RunFor(Seconds(10));
  ASSERT_EQ(other.completed(), 12u);
  EXPECT_GE(c.sim.counters().Get(obs::CounterId::kPbftReplyCacheEvictions),
            1u);
  for (std::size_t i = 0; i < 4; ++i) {
    auto r = c.engine(i).retention();
    // A's cached reply is gone, but the client-table stub that proves
    // execution (the duplicate filter) survives eviction.
    EXPECT_LT(r.reply_cache_entries, r.client_table_entries)
        << "replica " << i;
  }

  // A retransmits the executed request: the cache is empty, so replicas
  // synthesize an empty-result acknowledgement (clients vote by timestamp
  // and replica, never payload) instead of re-executing.
  pbft::Operation op;
  op.client = c.client->id();
  op.timestamp = t1;
  op.command = "hello";
  auto dup = std::make_shared<pbft::ClientRequestMsg>();
  dup->op = op;
  dup->client_sig = c.keys.Sign(op.client, dup->ComputeDigest());
  SeqNum before = c.engine(1).last_executed();
  c.client->Send(c.members[1], dup);
  c.sim.RunFor(Seconds(2));
  EXPECT_TRUE(c.client->ResultOf(t1).empty());
  EXPECT_TRUE(c.client->IsComplete(t1));
  EXPECT_EQ(c.engine(1).last_executed(), before);  // no re-execution
}

// ------------------------------------------- trim-vs-view-change race

TEST(RetentionTest, TrimRacingViewChangeKeepsPreparedUncheckpointedOps) {
  pbft::PbftConfig cfg;
  cfg.checkpoint_interval = 4;
  cfg.request_timeout_us = Millis(400);
  PbftCluster c(4, 1, /*seed=*/17, /*one_way_us=*/1000, cfg);
  c.client->EnableRetry(c.members, Millis(900));
  c.client->SubmitLocalSequence(c.members[0], 10, "pre ");
  c.sim.RunFor(Seconds(8));
  ASSERT_EQ(c.client->completed(), 10u);

  // Kill the primary mid-stream. Ops prepared above the stable checkpoint
  // have not been trimmed (trimming stops at the low-water mark), so the
  // new view re-proposes them from the surviving prepared proofs and the
  // whole workload still completes exactly once.
  c.sim.faults().Crash(c.members[0]);
  c.client->SubmitLocalSequence(c.members[1], 10, "post ");
  c.sim.RunFor(Seconds(30));
  EXPECT_EQ(c.client->completed(), 20u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_GE(c.engine(i).view(), 1u) << "replica " << i;
    EXPECT_EQ(c.engine(i).last_executed(), c.engine(1).last_executed())
        << "replica " << i;
  }
  EXPECT_GE(c.sim.counters().Get(obs::CounterId::kPbftLogTrims), 1u);
}

// ------------------------------------------------ trim-vs-rejoin races

struct RetentionFixture {
  explicit RetentionFixture(SeqNum checkpoint_interval, std::uint64_t seed = 1)
      : sys(seed, sim::LatencyModel::PaperGeoMatrix()) {
    for (std::size_t z = 0; z < 3; ++z) {
      sys.AddZone(0, static_cast<RegionId>(z), 1, 4);
    }
    NodeConfig cfg = app::harness::FaultHarnessNodeConfig();
    cfg.pbft.checkpoint_interval = checkpoint_interval;
    sys.Finalize(cfg,
                 [](ZoneId) { return std::make_unique<BankStateMachine>(); });
    client = std::make_unique<testutil::TestClient>(&sys.keys(), 1);
    sys.sim().Register(client.get(), 0);
    sys.BootstrapClient(client->id(), 0, [](ClientId id) {
      return storage::KvStore::Map{
          {BankStateMachine::AccountKey(id), "1000"}};
    });
    client->EnableRetry(sys.topology().zone(0).members, Millis(900));
  }

  std::vector<sim::InvariantViolation> CheckInvariants() {
    return sim::InvariantChecker(app::harness::BankCheckerOptions())
        .Check(sys);
  }

  static std::string Describe(const std::vector<sim::InvariantViolation>& v) {
    std::string out;
    for (const auto& x : v) out += x.invariant + ": " + x.detail + "\n";
    return out;
  }

  ZiziphusSystem sys;
  std::unique_ptr<testutil::TestClient> client;
};

TEST(RetentionRejoinTest, AmnesiacRequestingTrimmedSeqConvergesViaSnapshot) {
  // Tight checkpoints: everything the victim misses is trimmed from its
  // peers' logs before it rejoins, so its delta anchor is below every
  // responder's low-water mark and the snapshot fallback must kick in.
  RetentionFixture fx(/*checkpoint_interval=*/4);
  NodeId primary = fx.sys.PrimaryOf(0)->id();
  NodeId victim = fx.sys.topology().zone(0).members[3];
  auto t1 = fx.client->SubmitLocal(primary, "DEP 1");
  fx.sys.sim().RunFor(Seconds(1));
  ASSERT_TRUE(fx.client->IsComplete(t1));

  fx.sys.sim().CrashAmnesia(victim);
  fx.client->SubmitLocalSequence(primary, 12, "DEP ");
  fx.sys.sim().RunFor(Seconds(8));
  ASSERT_EQ(fx.client->completed(), 13u);
  EXPECT_GT(fx.sys.node(primary)->pbft().stable_seq(), 0u);

  fx.sys.sim().RecoverAmnesia(victim);
  fx.sys.sim().RunFor(Seconds(10));
  core::ZiziphusNode* v = fx.sys.node(victim);
  EXPECT_EQ(v->recoveries(), 1u);
  EXPECT_EQ(v->pbft().last_executed(),
            fx.sys.node(primary)->pbft().last_executed());
  EXPECT_GE(fx.sys.sim().counters().Get(obs::CounterId::kPbftFullTransfers),
            1u);
  auto viol = fx.CheckInvariants();
  EXPECT_TRUE(viol.empty()) << RetentionFixture::Describe(viol);
}

TEST(RetentionRejoinTest, AmnesiacWithLiveAnchorCatchesUpViaDelta) {
  // Wide checkpoints: nothing is trimmed during the short outage, so the
  // victim's WAL-restored seq is a valid delta anchor and the responder
  // ships only the missed batches.
  RetentionFixture fx(/*checkpoint_interval=*/128);
  NodeId primary = fx.sys.PrimaryOf(0)->id();
  NodeId victim = fx.sys.topology().zone(0).members[3];
  auto t1 = fx.client->SubmitLocal(primary, "DEP 1");
  fx.sys.sim().RunFor(Seconds(1));
  ASSERT_TRUE(fx.client->IsComplete(t1));

  fx.sys.sim().CrashAmnesia(victim);
  fx.client->SubmitLocalSequence(primary, 6, "DEP ");
  fx.sys.sim().RunFor(Seconds(5));
  ASSERT_EQ(fx.client->completed(), 7u);

  fx.sys.sim().RecoverAmnesia(victim);
  fx.sys.sim().RunFor(Seconds(10));
  core::ZiziphusNode* v = fx.sys.node(victim);
  EXPECT_EQ(v->recoveries(), 1u);
  EXPECT_EQ(v->pbft().last_executed(),
            fx.sys.node(primary)->pbft().last_executed());
  EXPECT_GE(fx.sys.sim().counters().Get(obs::CounterId::kPbftDeltaTransfers),
            1u);
  auto viol = fx.CheckInvariants();
  EXPECT_TRUE(viol.empty()) << RetentionFixture::Describe(viol);
}

// ----------------------------------------------------------- soak smoke

SoakOptions ShortSoak() {
  SoakOptions o;
  o.schedule.horizon = Seconds(12);
  o.schedule.wave_period = Seconds(4);
  o.schedule.flash_crowds = 1;
  o.schedule.flash_length = Millis(800);
  o.schedule.regional_outages = 0;
  o.schedule.amnesia_crashes = 1;
  o.sample_period = Millis(500);
  o.base_think = Millis(250);
  o.pairs_per_zone = 1;
  o.migrators = 1;
  o.migrations_per_client = 3;
  o.migrator_records = 100;
  o.checkpoint_interval = 16;
  // One-deep decided window so even the smoke's three migrations push
  // ballot state past it and compaction runs.
  o.sync_keep_window = 1;
  return o;
}

TEST(SoakSmokeTest, TrimmedRunHoldsMemoryBoundAndDrains) {
  SoakReport on = RunZiziphusSoak(ShortSoak());
  EXPECT_TRUE(on.ok()) << on.Summary();
  EXPECT_GE(CounterOf(on.counters, "pbft.log_trims"), 1u);
  EXPECT_GE(CounterOf(on.counters, "pbft.reply_cache_evictions"), 1u);
  EXPECT_GE(CounterOf(on.counters, "sync.requests_compacted"), 1u);
  EXPECT_GE(CounterOf(on.counters, "mig.chunked_transfers"), 1u);
  ASSERT_FALSE(on.samples.empty());
  EXPECT_LE(on.final_live_bytes, on.high_water_live_bytes);

  SoakOptions control = ShortSoak();
  control.trim_at_checkpoint = false;
  control.compact_sync = false;
  SoakReport off = RunZiziphusSoak(control);
  EXPECT_TRUE(off.ok()) << off.Summary();
  EXPECT_EQ(CounterOf(off.counters, "pbft.log_trims"), 0u);
  // Identical schedule, but the untrimmed arm ends with strictly more
  // retained bytes than the trimmed arm's worst moment ever reached.
  EXPECT_LT(on.final_live_bytes, off.final_live_bytes);
  EXPECT_LT(on.high_water_live_bytes, off.high_water_live_bytes);
}

TEST(SoakSmokeTest, SameSeedIsDeterministic) {
  SoakReport first = RunZiziphusSoak(ShortSoak());
  EXPECT_TRUE(first.ok()) << first.Summary();
  SoakReport again = RunZiziphusSoak(ShortSoak());
  EXPECT_EQ(first.fingerprint, again.fingerprint);
  EXPECT_EQ(first.counters, again.counters);
  EXPECT_EQ(first.obs_json, again.obs_json);
}

TEST(RejoinProbeTest, DeltaTransferBeatsSnapshotOnLargeState) {
  RejoinProbeOptions opt;
  opt.records = 8192;
  opt.warmup = Millis(800);
  opt.outage = Millis(800);
  opt.delta_state_transfer = true;
  RejoinProbeResult delta = RunRejoinProbe(opt);
  opt.delta_state_transfer = false;
  RejoinProbeResult full = RunRejoinProbe(opt);

  ASSERT_TRUE(delta.caught_up);
  ASSERT_TRUE(full.caught_up);
  EXPECT_GE(delta.delta_transfers, 1u);
  EXPECT_EQ(delta.full_transfers, 0u);
  EXPECT_GE(full.full_transfers, 1u);
  // The delta ships only the outage's batches; the snapshot drags the
  // whole 8192-record store across the wire.
  EXPECT_LT(delta.transfer_bytes, full.transfer_bytes);
  EXPECT_LT(delta.time_to_rejoin, full.time_to_rejoin);
}

}  // namespace
}  // namespace ziziphus
