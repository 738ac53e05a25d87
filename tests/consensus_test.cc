// Pluggable-ordering consensus suite: the fault-adaptive timeout pure
// functions, the optimistic fast path (unanimous FastVotes committing in
// one round) with its certified fallback to the classic prepare/commit
// rounds, rotating primaries riding the view-change machinery, the
// fast-path adversaries (equivocating voter, vote withholder), and the
// cross-strategy differential: every ordering must converge the same
// scripted chaos workload to the same application state, deterministically
// and byte-identically on both event-queue implementations.

#include <optional>
#include <tuple>

#include "app/chaos.h"
#include "gtest/gtest.h"
#include "pbft/ordering.h"
#include "sim/byzantine.h"
#include "tests/test_util.h"

namespace ziziphus {
namespace {

using app::ChaosOptions;
using app::ChaosReport;
using pbft::Ordering;
using testutil::PbftCluster;

// ------------------------------------------------------- ordering parsing

TEST(OrderingTest, NamesRoundTripThroughParse) {
  for (Ordering o :
       {Ordering::kStable, Ordering::kRotating, Ordering::kFastPath}) {
    auto parsed = pbft::ParseOrdering(pbft::OrderingName(o));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, o);
  }
  EXPECT_FALSE(pbft::ParseOrdering("raft").has_value());
  EXPECT_FALSE(pbft::ParseOrdering("").has_value());
}

TEST(OrderingTest, StrategyFactoryMatchesKind) {
  for (Ordering o :
       {Ordering::kStable, Ordering::kRotating, Ordering::kFastPath}) {
    auto s = pbft::OrderingStrategy::Make(o);
    EXPECT_EQ(s->kind(), o);
    EXPECT_EQ(s->use_fast_votes(), o == Ordering::kFastPath);
  }
}

TEST(OrderingTest, RotationFiresEveryConfiguredCheckpoint) {
  pbft::PbftConfig cfg;
  cfg.rotation_checkpoints = 2;
  auto rot = pbft::OrderingStrategy::Make(Ordering::kRotating);
  EXPECT_FALSE(rot->RotateAt(1, cfg));
  EXPECT_TRUE(rot->RotateAt(2, cfg));
  EXPECT_FALSE(rot->RotateAt(3, cfg));
  EXPECT_TRUE(rot->RotateAt(4, cfg));
  cfg.rotation_checkpoints = 0;  // disabled
  EXPECT_FALSE(rot->RotateAt(2, cfg));
  auto stable = pbft::OrderingStrategy::Make(Ordering::kStable);
  EXPECT_FALSE(stable->RotateAt(2, cfg));
}

// ------------------------------------------------------ adaptive timeouts

TEST(AdaptiveTimeoutTest, EwmaSeedsOnFirstSampleThenSmooths) {
  pbft::CommitLatencyEwma ewma;
  EXPECT_EQ(ewma.value(), 0u);
  EXPECT_FALSE(ewma.seeded());
  ewma.Observe(8000);
  EXPECT_EQ(ewma.value(), 8000u);  // first sample seeds, no averaging
  ewma.Observe(16000);
  EXPECT_EQ(ewma.value(), 8000u + (16000u - 8000u) / 8);
  // Converges toward a sustained shift instead of jumping to it.
  for (int i = 0; i < 64; ++i) ewma.Observe(16000);
  EXPECT_GT(ewma.value(), 15000u);
  EXPECT_LE(ewma.value(), 16000u);
}

TEST(AdaptiveTimeoutTest, EwmaPullsDownOnSamplesBelowTheAverage) {
  // Duration is unsigned: a sample below the running average must move the
  // average down, not wrap the subtraction around to ~2^64 (which the
  // clamp in the timeout functions then pins to the cap — every abandon
  // timer jumps to the full request timeout and the pipeline crawls).
  pbft::CommitLatencyEwma ewma;
  ewma.Observe(8000);
  ewma.Observe(800);
  EXPECT_EQ(ewma.value(), 8000u - (8000u - 800u) / 8);
  for (int i = 0; i < 64; ++i) ewma.Observe(800);
  EXPECT_GE(ewma.value(), 800u);
  EXPECT_LT(ewma.value(), 1000u);
}

TEST(AdaptiveTimeoutTest, EwmaTracksSubAlphaDrifts) {
  // Fixed-point regression: with a plain integer ewma, a persistent +4us
  // drift truncates to a zero update (4 / 8 == 0) and the average stays
  // pinned below real latency forever, keeping the adaptive timers a
  // notch too tight. The scaled accumulator must converge onto the
  // drifted value instead.
  pbft::CommitLatencyEwma ewma;
  ewma.Observe(8000);
  for (int i = 0; i < 64; ++i) ewma.Observe(8004);
  EXPECT_EQ(ewma.value(), 8004u);
}

TEST(AdaptiveTimeoutTest, ProgressTimeoutClampsAndJittersDeterministically) {
  pbft::PbftConfig cfg;
  cfg.request_timeout_us = Millis(600);
  cfg.adaptive_timeout_multiplier = 8;

  // Unseeded EWMA falls back to the fixed timeout, no jitter.
  EXPECT_EQ(pbft::AdaptiveProgressTimeout(cfg, 0, 1, 0),
            cfg.request_timeout_us);

  // A tiny EWMA clamps up to the floor (request_timeout/4); jitter adds at
  // most 1/8 of the clamped base on top.
  const Duration floor = cfg.request_timeout_us / 4;
  Duration lo = pbft::AdaptiveProgressTimeout(cfg, 1, 1, 0);
  EXPECT_GE(lo, floor);
  EXPECT_LE(lo, floor + floor / 8);

  // A huge EWMA clamps down to the cap (2x request_timeout by default).
  const Duration cap = cfg.request_timeout_us * 2;
  Duration hi = pbft::AdaptiveProgressTimeout(cfg, Seconds(60), 1, 0);
  EXPECT_GE(hi, cap);
  EXPECT_LE(hi, cap + cap / 8);

  // An explicit cap wins over the default.
  cfg.adaptive_timeout_cap_us = Millis(700);
  Duration capped = pbft::AdaptiveProgressTimeout(cfg, Seconds(60), 1, 0);
  EXPECT_GE(capped, Millis(700));
  EXPECT_LE(capped, Millis(700) + Millis(700) / 8);

  // Same (replica, view) -> same jitter; the timers are reproducible.
  cfg.adaptive_timeout_cap_us = 0;
  EXPECT_EQ(pbft::AdaptiveProgressTimeout(cfg, 20000, 3, 7),
            pbft::AdaptiveProgressTimeout(cfg, 20000, 3, 7));
}

TEST(AdaptiveTimeoutTest, FastAbandonStaysBetweenBatchAndRequestTimeout) {
  pbft::PbftConfig cfg;
  cfg.batch_timeout_us = Millis(2);
  cfg.request_timeout_us = Millis(600);

  // Unseeded: the round-trip-scale cold timeout (plus bounded jitter) —
  // NOT a fraction of the request timeout, which can be geo-scale (the
  // experiment harness runs zones with a 3 s request timeout; waiting
  // 1.5 s for one withheld intra-zone vote would stall the pipeline).
  Duration unseeded = pbft::FastPathAbandonTimeout(cfg, 0, 1, 1);
  EXPECT_GE(unseeded, cfg.fast_abandon_cold_us);
  EXPECT_LE(unseeded, cfg.fast_abandon_cold_us + cfg.fast_abandon_cold_us / 8);

  // Knob at 0 restores the legacy request/2 cold wait.
  pbft::PbftConfig legacy = cfg;
  legacy.fast_abandon_cold_us = 0;
  Duration legacy_cold = pbft::FastPathAbandonTimeout(legacy, 0, 1, 1);
  EXPECT_GE(legacy_cold, legacy.request_timeout_us / 2);
  EXPECT_LE(legacy_cold,
            legacy.request_timeout_us / 2 + legacy.request_timeout_us / 16);

  // Tracks 4x the EWMA but never dips below the batch window...
  Duration lo = pbft::FastPathAbandonTimeout(cfg, 10, 1, 1);
  EXPECT_GE(lo, cfg.batch_timeout_us);
  EXPECT_LE(lo, cfg.batch_timeout_us + cfg.batch_timeout_us / 8);

  // ...and never exceeds the full request timeout.
  Duration hi = pbft::FastPathAbandonTimeout(cfg, Seconds(10), 1, 1);
  EXPECT_GE(hi, cfg.request_timeout_us);
  EXPECT_LE(hi,
            cfg.request_timeout_us + cfg.request_timeout_us / 8);

  EXPECT_EQ(pbft::FastPathAbandonTimeout(cfg, 20000, 2, 5),
            pbft::FastPathAbandonTimeout(cfg, 20000, 2, 5));
}

// ----------------------------------------------------------- fast path

pbft::PbftConfig FastPathConfig() {
  pbft::PbftConfig base;
  base.ordering = Ordering::kFastPath;
  base.adaptive_timeouts = true;
  return base;
}

TEST(FastPathTest, UnanimousZoneCommitsOnFastVotes) {
  PbftCluster c(4, 1, /*seed=*/1, /*one_way_us=*/1000, FastPathConfig());
  c.client->SubmitLocalSequence(c.members[0], 20, "op");
  c.sim.RunFor(Seconds(5));
  EXPECT_EQ(c.client->completed(), 20u);
  // Every slot commits on the fast path; the classic rounds never fire and
  // no replica ever suspects the primary.
  EXPECT_GE(c.sim.counters().Get(obs::CounterId::kPbftFastCommits), 4u);
  EXPECT_EQ(c.sim.counters().Get(obs::CounterId::kPbftFastFallbacks), 0u);
  EXPECT_EQ(c.sim.counters().Get(obs::CounterId::kPbftNewViewsEntered), 0u);
  std::uint64_t d = c.app(0).StateDigest();
  for (int i = 1; i < 4; ++i) EXPECT_EQ(c.app(i).StateDigest(), d);
  // The commit-latency EWMA actually observed the run.
  EXPECT_GT(c.engine(0).commit_latency_ewma(), 0u);
}

TEST(FastPathTest, WithholderDegradesToFallbackWithoutViewChanges) {
  PbftCluster c(4, 1, 1, 1000, FastPathConfig());
  sim::FastVoteWithholdingBehavior byz(&c.sim, c.members[3]);
  byz.Attach();
  c.client->SubmitLocalSequence(c.members[0], 8, "op");
  c.sim.RunFor(Seconds(15));
  EXPECT_EQ(c.client->completed(), 8u);
  EXPECT_GE(byz.suppressed(), 1u);
  // Unanimity is unreachable: every slot abandons to the classic rounds,
  // which commit on 3 of 4 votes.
  EXPECT_GE(c.sim.counters().Get(obs::CounterId::kPbftFastFallbacks), 1u);
  // Demand-amplification guard: the fallback itself must not escalate into
  // view changes — the primary is honest and making (slower) progress.
  EXPECT_EQ(c.sim.counters().Get(obs::CounterId::kPbftNewViewsEntered), 0u);
  std::uint64_t d = c.app(0).StateDigest();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(c.app(i).StateDigest(), d);
}

TEST(FastPathTest, SustainedFallbacksSuppressFastArmingAtClassicCost) {
  PbftCluster c(4, 1, 1, 1000, FastPathConfig());
  sim::FastVoteWithholdingBehavior byz(&c.sim, c.members[3]);
  byz.Attach();
  c.client->SubmitLocalSequence(c.members[0], 40, "op");
  c.sim.RunFor(Seconds(40));
  EXPECT_EQ(c.client->completed(), 40u);
  // The fallback streak trips after fast_disable_after slots; from then on
  // only the thin re-probe schedule pays the abandon wait, and the bulk of
  // the run votes a classic Prepare immediately — degraded mode runs at
  // classic PBFT cost instead of one abandon timeout per slot.
  std::uint64_t suppressed =
      c.sim.counters().Get(obs::CounterId::kPbftFastSuppressed);
  std::uint64_t fallbacks =
      c.sim.counters().Get(obs::CounterId::kPbftFastFallbacks);
  EXPECT_GE(suppressed, 1u);
  EXPECT_GE(suppressed, fallbacks);
  EXPECT_EQ(c.sim.counters().Get(obs::CounterId::kPbftNewViewsEntered), 0u);
  std::uint64_t d = c.app(0).StateDigest();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(c.app(i).StateDigest(), d);
}

TEST(FastPathTest, ProbeReenablesFastPathAfterWithholderHeals) {
  PbftCluster c(4, 1, 1, 1000, FastPathConfig());
  sim::FastVoteWithholdingBehavior byz(&c.sim, c.members[3]);
  byz.Attach();
  c.client->SubmitLocalSequence(c.members[0], 24, "op");
  c.sim.RunFor(Seconds(30));
  ASSERT_EQ(c.client->completed(), 24u);
  std::uint64_t fast_before =
      c.sim.counters().Get(obs::CounterId::kPbftFastCommits);
  // The withholder heals. The suppression is not permanent: the next
  // seq-keyed probe slot reaches unanimity, resets the streak, and the
  // remaining slots ride the fast path again.
  byz.Detach();
  c.client->SubmitLocalSequence(c.members[0], 40, "heal");
  c.sim.RunFor(Seconds(40));
  EXPECT_EQ(c.client->completed(), 64u);
  EXPECT_GT(c.sim.counters().Get(obs::CounterId::kPbftFastCommits),
            fast_before);
  std::uint64_t d = c.app(0).StateDigest();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(c.app(i).StateDigest(), d);
}

TEST(FastPathTest, EquivocatingVoterTripsConflictDetection) {
  PbftCluster c(4, 1, 1, 1000, FastPathConfig());
  sim::FastVoteEquivocatingBehavior byz(&c.sim, c.members[2], &c.keys);
  byz.Attach();
  c.client->SubmitLocalSequence(c.members[0], 8, "op");
  c.sim.RunFor(Seconds(15));
  EXPECT_EQ(c.client->completed(), 8u);
  EXPECT_GE(byz.equivocations(), 1u);
  // Odd-id victims see two digests from one replica, mark the slot
  // conflicted and fall back; the forged digest never reaches a quorum.
  EXPECT_GE(c.sim.counters().Get(obs::CounterId::kPbftFastConflicts), 1u);
  std::uint64_t d = c.app(0).StateDigest();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(c.app(i).StateDigest(), d);
}

TEST(FastPathTest, FastCertificatesMatchCommittedDigests) {
  PbftCluster c(4, 1, 1, 1000, FastPathConfig());
  c.client->SubmitLocalSequence(c.members[0], 6, "op");
  c.sim.RunFor(Seconds(5));
  ASSERT_EQ(c.client->completed(), 6u);
  // Every fast certificate a replica holds must agree with the committed
  // batch digest recorded by its peers (the chaos invariant, inline).
  for (int i = 0; i < 4; ++i) {
    for (const auto& [seq, digest] : c.engine(i).fast_certified()) {
      for (int j = 0; j < 4; ++j) {
        std::optional<storage::LogEntry> entry =
            c.engine(j).commit_log().Find(seq);
        if (!entry.has_value()) continue;
        EXPECT_EQ(entry->digest, digest)
            << "replica " << i << " fast-certified seq " << seq
            << " against a different digest than replica " << j;
      }
    }
  }
}

TEST(FastPathTest, ViewChangeReproposesFastCommittedSlot) {
  // The Zyzzyva view-change pitfall: the primary collects all 3f+1 fast
  // votes and commits seq 1 while the other replicas — partitioned from
  // each other, each holding only its own vote plus the primary's — never
  // assemble a 2f+1 prepare quorum. The view change that follows must
  // recover the committed digest from the fast votes carried in the
  // view-change messages (>= f+1 of the quorum report it); no-op-filling
  // the slot would diverge the zone from the state the primary executed.
  PbftCluster c(4, 1, 1, 1000, FastPathConfig());
  // Votes flow only replica <-> primary: cut the links among 1, 2, 3.
  for (int i = 1; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      c.sim.faults().Partition(c.members[i], c.members[j]);
    }
  }
  c.client->SubmitLocal(c.members[0], "fast-committed");
  c.sim.RunFor(Millis(100));
  auto at_primary = c.engine(0).commit_log().Find(1);
  ASSERT_TRUE(at_primary.has_value());  // only the primary fast-committed
  EXPECT_GE(c.sim.counters().Get(obs::CounterId::kPbftFastCommits), 1u);
  for (int i = 1; i < 4; ++i) {
    ASSERT_FALSE(c.engine(i).commit_log().Find(1).has_value());
  }
  // Isolate the fast-committed primary and let the rest regroup: progress
  // timeouts (one fallback grace cycle, then escalation) drive a view
  // change among 1, 2, 3.
  for (int i = 1; i < 4; ++i) {
    c.sim.faults().Partition(c.members[0], c.members[i]);
    for (int j = i + 1; j < 4; ++j) {
      c.sim.faults().Heal(c.members[i], c.members[j]);
    }
  }
  c.sim.RunFor(Seconds(20));
  EXPECT_GE(c.sim.counters().Get(obs::CounterId::kPbftNewViewsEntered), 1u);
  // The new view reproposed the committed batch: same digest at seq 1
  // everywhere, same application state as the isolated fast-committer.
  for (int i = 1; i < 4; ++i) {
    auto entry = c.engine(i).commit_log().Find(1);
    ASSERT_TRUE(entry.has_value()) << "replica " << i;
    EXPECT_EQ(entry->digest, at_primary->digest) << "replica " << i;
    EXPECT_EQ(c.app(i).StateDigest(), c.app(0).StateDigest())
        << "replica " << i;
  }
}

// ----------------------------------------------------------- rotation

TEST(RotatingTest, PrimaryRotatesAtCheckpointsAndKeepsCommitting) {
  pbft::PbftConfig base;
  base.ordering = Ordering::kRotating;
  base.adaptive_timeouts = true;
  base.checkpoint_interval = 4;
  base.rotation_checkpoints = 1;
  PbftCluster c(4, 1, 1, 1000, base);
  c.client->EnableRetry(c.members, Millis(400));
  c.client->SubmitLocalSequence(c.members[0], 30, "op");
  c.sim.RunFor(Seconds(20));
  EXPECT_EQ(c.client->completed(), 30u);
  // ~30 sequential slots at interval 4 crosses several checkpoints; each
  // hands the primary role to the next replica via a planned view change.
  EXPECT_GE(c.sim.counters().Get(obs::CounterId::kPbftRotations), 2u);
  EXPECT_GE(c.engine(1).view(), 2u);
  EXPECT_TRUE(c.engine(1).view_active());
  std::uint64_t d = c.app(0).StateDigest();
  for (int i = 1; i < 4; ++i) EXPECT_EQ(c.app(i).StateDigest(), d);
}

// ------------------------------------------- cross-strategy differential

ChaosReport RunWithOrdering(std::uint64_t seed, Ordering o) {
  ChaosOptions opt;
  opt.seed = seed;
  opt.ordering = o;
  return app::RunZiziphusChaos(opt);
}

TEST(ConsensusDifferentialTest, AllStrategiesConvergeToTheSameState) {
  // One scripted chaos workload, three orderings: commit order and
  // batching differ, but every strategy must execute the same client
  // operations and land every zone on the same application state.
  for (std::uint64_t seed : {5u, 9u}) {
    ChaosReport stable = RunWithOrdering(seed, Ordering::kStable);
    ChaosReport rotating = RunWithOrdering(seed, Ordering::kRotating);
    ChaosReport fast = RunWithOrdering(seed, Ordering::kFastPath);
    ASSERT_TRUE(stable.ok()) << "seed " << seed << ": " << stable.Summary();
    ASSERT_TRUE(rotating.ok())
        << "seed " << seed << ": " << rotating.Summary();
    ASSERT_TRUE(fast.ok()) << "seed " << seed << ": " << fast.Summary();
    EXPECT_EQ(stable.final_state_digests.size(), 3u);
    EXPECT_EQ(stable.final_state_digests, rotating.final_state_digests)
        << "seed " << seed << ": rotating diverged from stable";
    EXPECT_EQ(stable.final_state_digests, fast.final_state_digests)
        << "seed " << seed << ": fast-path diverged from stable";
  }
}

TEST(ConsensusDifferentialTest, EachStrategyIsDeterministicPerSeed) {
  for (Ordering o :
       {Ordering::kStable, Ordering::kRotating, Ordering::kFastPath}) {
    ChaosReport a = RunWithOrdering(17, o);
    ChaosReport b = RunWithOrdering(17, o);
    EXPECT_EQ(a.fingerprint, b.fingerprint) << pbft::OrderingName(o);
    EXPECT_EQ(a.counters, b.counters) << pbft::OrderingName(o);
    EXPECT_EQ(a.obs_json, b.obs_json) << pbft::OrderingName(o);
  }
}

// --------------------------------------------------------- chaos sweeps

class ConsensusChaosSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Ordering>> {
};

TEST_P(ConsensusChaosSweep, HoldsInvariantsByteIdenticalOnBothQueues) {
  ChaosOptions opt;
  opt.seed = std::get<0>(GetParam());
  opt.ordering = std::get<1>(GetParam());
  ChaosReport first = app::RunZiziphusChaos(opt);
  EXPECT_TRUE(first.violations.empty()) << first.Summary();
  EXPECT_TRUE(first.all_done) << first.Summary();

  ChaosReport again = app::RunZiziphusChaos(opt);
  EXPECT_EQ(first.fingerprint, again.fingerprint);
  EXPECT_EQ(first.counters, again.counters);
  EXPECT_EQ(first.obs_json, again.obs_json);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ConsensusChaosSweep,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 23),
                       ::testing::Values(Ordering::kRotating,
                                         Ordering::kFastPath)));

class ConsensusAmnesiaSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Ordering>> {
};

TEST_P(ConsensusAmnesiaSweep, AmnesiaRejoinStaysGreenOnBothQueues) {
  ChaosOptions opt;
  opt.seed = std::get<0>(GetParam());
  opt.ordering = std::get<1>(GetParam());
  opt.amnesia_crashes = 2;
  ChaosReport first = app::RunZiziphusChaos(opt);
  EXPECT_TRUE(first.violations.empty()) << first.Summary();
  EXPECT_TRUE(first.all_done) << first.Summary();

  ChaosReport again = app::RunZiziphusChaos(opt);
  EXPECT_EQ(first.fingerprint, again.fingerprint);
  EXPECT_EQ(first.counters, again.counters);
  EXPECT_EQ(first.obs_json, again.obs_json);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ConsensusAmnesiaSweep,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 21),
                       ::testing::Values(Ordering::kRotating,
                                         Ordering::kFastPath)));

class ConsensusReadsSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Ordering>> {
};

TEST_P(ConsensusReadsSweep, VerifiedReadsStayGreenOnBothQueues) {
  ChaosOptions opt;
  opt.seed = std::get<0>(GetParam());
  opt.ordering = std::get<1>(GetParam());
  opt.mix.read_fraction = 1.0;  // scripted: one read per completed op
  ChaosReport first = app::RunZiziphusChaos(opt);
  EXPECT_TRUE(first.ok()) << first.Summary();
  EXPECT_GT(first.reads_ok + first.reads_abandoned, 0u) << "no reads issued";

  ChaosReport again = app::RunZiziphusChaos(opt);
  EXPECT_EQ(first.fingerprint, again.fingerprint);
  EXPECT_EQ(first.obs_json, again.obs_json);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ConsensusReadsSweep,
    ::testing::Combine(::testing::Values<std::uint64_t>(3, 7, 11),
                       ::testing::Values(Ordering::kRotating,
                                         Ordering::kFastPath)));

// ------------------------------------------------- adversarial options

TEST(ConsensusChaosTest, ForgedReadRepliesFoldIntoTheRosterSafely) {
  // byz_forge_reads flips an appended-stream coin per rostered replica, so
  // across a few seeds at least one forger must appear — and every reply
  // it forges must be caught by the clients' certificate checks.
  std::size_t forgers = 0;
  for (std::uint64_t seed : {2u, 6u, 10u}) {
    ChaosOptions opt;
    opt.seed = seed;
    opt.mix.read_fraction = 1.0;
    opt.byz_forge_reads = true;
    ChaosReport r = app::RunZiziphusChaos(opt);
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": " << r.Summary();
    for (const std::string& entry : r.byzantine_roster) {
      if (entry.find("forging-read-responder") != std::string::npos) {
        ++forgers;
      }
    }
  }
  EXPECT_GE(forgers, 1u);
}

TEST(ConsensusChaosTest, LatencyFlapsDoNotWedgeAdaptiveTimeouts) {
  // Flapping link latency is the pathological input for EWMA-driven
  // timers: spikes inflate the estimate, heals deflate it. The run must
  // stay green and deterministic.
  ChaosOptions opt;
  opt.seed = 14;
  opt.ordering = Ordering::kFastPath;
  opt.latency_flaps = 4;
  ChaosReport first = app::RunZiziphusChaos(opt);
  EXPECT_TRUE(first.violations.empty()) << first.Summary();
  EXPECT_TRUE(first.all_done) << first.Summary();

  ChaosReport again = app::RunZiziphusChaos(opt);
  EXPECT_EQ(first.fingerprint, again.fingerprint);
  EXPECT_EQ(first.obs_json, again.obs_json);
}

TEST(ConsensusChaosTest, ForgeReadsOffKeepsExistingSeedsByteIdentical) {
  // The roster coin stream is appended: leaving the knob off must draw
  // nothing from it, so a default run and an explicit-off run are the same
  // run. (The cross-PR guarantee — pre-knob seeds stay byte-identical —
  // falls out of the same property.)
  ChaosOptions base;
  base.seed = 12;
  ChaosOptions off = base;
  off.byz_forge_reads = false;
  ChaosReport a = app::RunZiziphusChaos(base);
  ChaosReport b = app::RunZiziphusChaos(off);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.obs_json, b.obs_json);
}

}  // namespace
}  // namespace ziziphus
