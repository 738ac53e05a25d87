// Amnesia crash-recovery tests: the durable-state model, the rejoin
// protocol (WAL replay, checkpoint install, state-transfer catch-up), the
// recovery-aware invariants, and a seeded chaos sweep that amnesia-crashes
// nodes mid-protocol and demands that every seed hold the invariants,
// finish its workload and rejoin at least once.

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "app/bank.h"
#include "app/chaos.h"
#include "app/harness.h"
#include "core/system.h"
#include "gtest/gtest.h"
#include "sim/invariants.h"
#include "tests/test_util.h"

namespace ziziphus {
namespace {

using app::BankStateMachine;
using app::ChaosOptions;
using app::ChaosReport;
using core::NodeConfig;
using core::ZiziphusSystem;

// ------------------------------------------------------------ timer flush

class TimerProbe : public sim::Process {
 public:
  std::vector<std::uint64_t> fired;
  void OnMessage(const sim::MessagePtr&) override {}
  void OnTimer(const sim::TimerTag& tag) override {
    fired.push_back(tag.key);
  }
  using sim::Process::SetTimer;
};

TEST(AmnesiaCrashTest, PendingTimersAreFlushed) {
  sim::Simulation s(1, sim::LatencyModel::Uniform(1, 1000));
  TimerProbe p;
  NodeId id = s.Register(&p, 0);
  p.SetTimer(Millis(5), {.key = 1});
  p.SetTimer(Millis(50), {.key = 2});
  s.RunFor(Millis(10));
  ASSERT_EQ(p.fired, (std::vector<std::uint64_t>{1}));
  // The crash wipes RAM — including the armed timer. After recovery the
  // stale queued event must be discarded, not delivered to the fresh node.
  s.CrashAmnesia(id);
  s.RecoverAmnesia(id);
  p.SetTimer(Millis(5), {.key = 3});
  s.RunFor(Seconds(1));
  EXPECT_EQ(p.fired, (std::vector<std::uint64_t>{1, 3}));
}

TEST(AmnesiaCrashTest, PlainCrashNeverDowngradesAmnesia) {
  sim::Simulation s(1, sim::LatencyModel::Uniform(1, 1000));
  TimerProbe p;
  NodeId id = s.Register(&p, 0);
  s.CrashAmnesia(id);
  // A base-timeline crash landing on an already-amnesiac node must not
  // erase the amnesia flag: the volatile state is gone either way, so the
  // recovery path has to run the rejoin protocol.
  s.faults().Crash(id);
  EXPECT_TRUE(s.faults().IsAmnesiac(id));
  s.RecoverAmnesia(id);
  EXPECT_FALSE(s.faults().IsCrashed(id));
}

// ------------------------------------------------------- role-directed

struct RecoveryFixture {
  explicit RecoveryFixture(
      std::size_t zones = 3, std::uint64_t seed = 1,
      NodeConfig config = app::harness::FaultHarnessNodeConfig())
      : sys(seed, sim::LatencyModel::PaperGeoMatrix()) {
    for (std::size_t z = 0; z < zones; ++z) {
      sys.AddZone(0, static_cast<RegionId>(z % 7), 1, 4);
    }
    sys.Finalize(std::move(config),
                 [](ZoneId) { return std::make_unique<BankStateMachine>(); });
    client = std::make_unique<testutil::TestClient>(&sys.keys(), 1);
    sys.sim().Register(client.get(), 0);
  }

  void Bootstrap(ClientId c, ZoneId home) {
    sys.BootstrapClient(c, home, [](ClientId id) {
      return storage::KvStore::Map{
          {BankStateMachine::AccountKey(id), "1000"}};
    });
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

TEST(RecoveryTest, AmnesiacPbftPrimaryRejoinsWithConsistentPrefix) {
  RecoveryFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 0);
  NodeId primary = fx.sys.PrimaryOf(0)->id();
  fx.client->EnableRetry(fx.sys.topology().zone(0).members, Millis(900));
  auto t1 = fx.client->SubmitLocal(primary, "DEP 1");
  fx.sys.sim().RunFor(Seconds(1));
  ASSERT_TRUE(fx.client->IsComplete(t1));

  // The primary forgets everything volatile mid-run; the zone view-changes
  // around it while it is down.
  fx.sys.sim().CrashAmnesia(primary);
  auto t2 = fx.client->SubmitLocal(fx.sys.topology().zone(0).members[1],
                                   "DEP 2");
  fx.sys.sim().RunFor(Seconds(4));
  ASSERT_TRUE(fx.client->IsComplete(t2));

  fx.sys.sim().RecoverAmnesia(primary);
  auto t3 = fx.client->SubmitLocal(fx.sys.topology().zone(0).members[1],
                                   "DEP 4");
  fx.sys.sim().RunFor(Seconds(8));
  EXPECT_TRUE(fx.client->IsComplete(t3));

  core::ZiziphusNode* node = fx.sys.node(primary);
  EXPECT_EQ(node->recoveries(), 1u);
  // WAL replay restored the pre-crash execution; state transfer caught up
  // with what committed during the outage.
  EXPECT_GE(node->pbft().last_executed(), 2u);
  EXPECT_GE(fx.sys.sim().counters().Get(obs::CounterId::kRecoveryRejoins),
            1u);
  // The node executed again after rejoin, so time-to-rejoin was sampled.
  EXPECT_GE(fx.sys.sim()
                .recorder()
                .histogram(obs::HistogramId::kRecoveryTimeToRejoinUs)
                .count(),
            1u);
  auto v = fx.CheckInvariants();
  EXPECT_TRUE(v.empty()) << RecoveryFixture::Describe(v);
}

TEST(RecoveryTest, AmnesiacBackupCatchesUpAndHoldsInvariants) {
  RecoveryFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 0);
  NodeId primary = fx.sys.PrimaryOf(0)->id();
  NodeId backup = fx.sys.topology().zone(0).members[2];
  auto t1 = fx.client->SubmitLocal(primary, "DEP 1");
  fx.sys.sim().RunFor(Millis(600));
  ASSERT_TRUE(fx.client->IsComplete(t1));

  fx.sys.sim().CrashAmnesia(backup);
  auto t2 = fx.client->SubmitLocal(primary, "DEP 2");
  fx.sys.sim().RunFor(Seconds(2));
  ASSERT_TRUE(fx.client->IsComplete(t2));
  fx.sys.sim().RecoverAmnesia(backup);
  auto t3 = fx.client->SubmitLocal(primary, "DEP 4");
  fx.sys.sim().RunFor(Seconds(6));
  EXPECT_TRUE(fx.client->IsComplete(t3));

  core::ZiziphusNode* node = fx.sys.node(backup);
  EXPECT_EQ(node->recoveries(), 1u);
  EXPECT_GE(node->pbft().last_executed(), 2u);
  auto v = fx.CheckInvariants();
  EXPECT_TRUE(v.empty()) << RecoveryFixture::Describe(v);
}

TEST(RecoveryTest, AmnesiacSyncReplicaKeepsBallotPromises) {
  RecoveryFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 1);
  // A leader-zone replica loses RAM mid-migration. Its PROMISE for the
  // global ballot was persisted before it was sent, so after rejoin it can
  // never vote for a conflicting proposal (the promised-then-forgotten
  // invariant sweeps exactly this).
  auto mig = fx.client->SubmitGlobal(fx.sys.PrimaryOf(0)->id(), 1, 2);
  fx.sys.sim().RunFor(Millis(300));
  NodeId victim = fx.sys.topology().zone(0).members[2];
  fx.sys.sim().CrashAmnesia(victim);
  fx.sys.sim().RunFor(Seconds(1));
  fx.sys.sim().RecoverAmnesia(victim);
  fx.sys.sim().RunFor(Seconds(10));
  EXPECT_TRUE(fx.client->MigrationDone(mig));
  EXPECT_EQ(fx.sys.node(victim)->recoveries(), 1u);
  for (const auto& node : fx.sys.nodes()) {
    if (node->id() == victim) continue;
    EXPECT_EQ(node->metadata().HomeOf(c), 2u) << "node " << node->id();
  }
  auto v = fx.CheckInvariants();
  EXPECT_TRUE(v.empty()) << RecoveryFixture::Describe(v);
}

TEST(RecoveryTest, AmnesiacDestinationReplicaRecoversMigratedRecords) {
  RecoveryFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 1);
  auto mig = fx.client->SubmitGlobal(fx.sys.PrimaryOf(0)->id(), 1, 2);
  fx.sys.sim().RunFor(Millis(300));
  // A destination-zone backup forgets mid-transfer; the durable migration
  // marker re-installs the records (or the state-wait probe re-fetches
  // them) during rejoin.
  NodeId victim = fx.sys.topology().zone(2).members[3];
  fx.sys.sim().CrashAmnesia(victim);
  fx.sys.sim().RunFor(Seconds(1));
  fx.sys.sim().RecoverAmnesia(victim);
  fx.sys.sim().RunFor(Seconds(10));
  EXPECT_TRUE(fx.client->MigrationDone(mig));
  EXPECT_EQ(fx.sys.node(victim)->recoveries(), 1u);
  auto& bank =
      static_cast<BankStateMachine&>(fx.sys.node(victim)->app());
  EXPECT_EQ(bank.BalanceOf(c), 1000);
  auto v = fx.CheckInvariants();
  EXPECT_TRUE(v.empty()) << RecoveryFixture::Describe(v);
}

// A zone backup votes on a data-sync ballot (its zone's accept endorsement)
// and loses its memory before the commit reaches it; it rejoins, its
// primary then fails, and it leads. A vote binds the voter to the ballot,
// so the ballot floor it raised must survive the crash: every ballot the
// new primary issues on its zone's chain lies above the one it voted on,
// and no ballot carries two different requests.
TEST(RecoveryTest, AmnesiacBackupLeadsAboveTheBallotItVotedOn) {
  // What one replica sends for data synchronization: the requests it
  // voted on and the ballots of the pre-prepares it led (a multicast,
  // fanned out per destination, counts once).
  class SyncSends : public sim::OutboundInterceptor {
   public:
    sim::MessagePtr OnSend(NodeId, NodeId, const sim::MessagePtr& msg) override {
      if (msg == last_) return msg;
      last_ = msg;
      if (msg->type() == core::kEndorseVote) {
        const auto& v = static_cast<const core::EndorseVoteMsg&>(*msg);
        if (v.phase == core::EndorsePhase::kAccept) voted.insert(v.request_id);
      } else if (msg->type() == core::kEndorsePrePrepare) {
        const auto& pp = static_cast<const core::EndorsePrePrepareMsg&>(*msg);
        if (pp.phase == core::EndorsePhase::kAccept) {
          led.push_back({pp.request_id, pp.ballot});
        }
      }
      return msg;
    }
    std::set<std::uint64_t> voted;
    std::vector<std::pair<std::uint64_t, Ballot>> led;

   private:
    sim::MessagePtr last_;
  };

  RecoveryFixture fx;
  testutil::TestClient& first = *fx.client;
  testutil::TestClient second(&fx.sys.keys(), 1);
  fx.sys.sim().Register(&second, 0);
  fx.Bootstrap(first.id(), 1);
  fx.Bootstrap(second.id(), 1);
  const std::vector<NodeId>& zone0 = fx.sys.topology().zone(0).members;
  const NodeId primary = zone0[0];
  const NodeId backup = zone0[1];  // the primary of view 1
  SyncSends primary_sends, backup_sends;
  fx.sys.sim().SetInterceptor(primary, &primary_sends);
  fx.sys.sim().SetInterceptor(backup, &backup_sends);

  // Zone 0 endorses the accept within a few ms; the commit needs a WAN
  // round trip through zones 1 and 2 first.
  const SimTime crash_at = Millis(20);
  sim::FaultSchedule& faults = fx.sys.sim().schedule();
  faults.CrashAmnesiaAt(crash_at, backup);
  faults.RecoverAmnesiaAt(Seconds(1), backup);
  faults.CrashAt(Millis(1500), primary);

  RequestTimestamp ts1 = first.SubmitGlobal(primary, 1, 2);
  fx.sys.sim().RunUntil(crash_at - 1);
  ASSERT_EQ(primary_sends.led.size(), 1u);
  const auto [voted_request, voted_ballot] = primary_sends.led.front();
  ASSERT_EQ(voted_ballot.zone, 0u);
  ASSERT_EQ(backup_sends.voted.count(voted_request), 1u);
  ASSERT_LT(fx.sys.node(backup)->sync().last_executed_ballot(0),
            voted_ballot);

  fx.sys.sim().RunUntil(Millis(1600));
  ASSERT_TRUE(first.MigrationDone(ts1));
  ASSERT_EQ(fx.sys.node(backup)->recoveries(), 1u);
  // The next global request reaches every zone-0 backup at once, so their
  // relay watches expire together and depose the crashed primary: the
  // rejoined backup leads view 1.
  auto req = std::make_shared<core::MigrationRequestMsg>();
  req->op.client = second.id();
  req->op.timestamp = 1;
  req->op.source = 1;
  req->op.destination = 2;
  req->client_sig = fx.sys.keys().Sign(second.id(), req->digest());
  for (NodeId n : zone0) second.Send(n, req);
  fx.sys.sim().RunFor(Seconds(10));

  EXPECT_TRUE(second.MigrationDone(req->op.timestamp));
  EXPECT_EQ(fx.sys.node(backup)->pbft().view(), 1u);
  ASSERT_FALSE(backup_sends.led.empty());
  for (const auto& [request, ballot] : backup_sends.led) {
    if (ballot.zone != voted_ballot.zone) continue;
    EXPECT_GT(ballot, voted_ballot)
        << "the rejoined backup reissued ballot " << ToString(ballot)
        << " after voting on " << ToString(voted_ballot);
  }
  auto v = fx.CheckInvariants();
  EXPECT_TRUE(v.empty()) << RecoveryFixture::Describe(v);
}

// ------------------------------------------- destination marker retention

// A destination keeps a durable marker per appended migration only until its
// stable checkpoint covers the install; a rejoin restores the covered
// records from that checkpoint and re-installs just the rest.
TEST(MigrationRetentionTest, CoveringCheckpointRetiresDestinationMarkers) {
  NodeConfig cfg = app::harness::FaultHarnessNodeConfig();
  cfg.pbft.checkpoint_interval = 2;
  RecoveryFixture fx(3, 1, cfg);
  testutil::TestClient other(&fx.sys.keys(), 1);
  fx.sys.sim().Register(&other, 0);
  ClientId a = fx.client->id();
  ClientId b = other.id();
  fx.Bootstrap(a, 1);
  fx.Bootstrap(b, 1);
  const NodeId victim = fx.sys.topology().zone(2).members[3];
  const NodeId healthy = fx.sys.topology().zone(2).members[2];
  auto markers = [&] {
    return fx.sys.node(victim)->migration().retention().durable_markers;
  };

  auto mig_a = fx.client->SubmitGlobal(fx.sys.PrimaryOf(0)->id(), 1, 2);
  fx.sys.sim().RunFor(Seconds(2));
  ASSERT_TRUE(fx.client->MigrationDone(mig_a));
  EXPECT_EQ(markers(), 1u);
  // Two local ops in zone 2 reach a stable checkpoint covering a's install.
  auto dep1 = fx.client->SubmitLocal(fx.sys.PrimaryOf(2)->id(), "DEP 1");
  fx.sys.sim().RunFor(Seconds(1));
  auto dep2 = fx.client->SubmitLocal(fx.sys.PrimaryOf(2)->id(), "DEP 2");
  fx.sys.sim().RunFor(Seconds(1));
  ASSERT_TRUE(fx.client->IsComplete(dep1));
  ASSERT_TRUE(fx.client->IsComplete(dep2));
  EXPECT_GE(fx.sys.node(victim)->pbft().stable_seq(), 2u);
  EXPECT_EQ(markers(), 0u);

  // b's install comes after the checkpoint, so its marker stays.
  auto mig_b = other.SubmitGlobal(fx.sys.PrimaryOf(0)->id(), 1, 2);
  fx.sys.sim().RunFor(Seconds(2));
  ASSERT_TRUE(other.MigrationDone(mig_b));
  EXPECT_EQ(markers(), 1u);

  fx.sys.sim().CrashAmnesia(victim);
  fx.sys.sim().RunFor(Seconds(1));
  fx.sys.sim().RecoverAmnesia(victim);
  core::MigrationEngine& rebuilt = fx.sys.node(victim)->migration();
  // Only b's append re-installs; both clients keep an install watermark.
  EXPECT_EQ(rebuilt.migrations_completed(), 1u);
  EXPECT_EQ(rebuilt.retention().install_watermarks, 2u);
  EXPECT_EQ(markers(), 1u);
  fx.sys.sim().RunFor(Seconds(4));

  auto& restored = static_cast<BankStateMachine&>(fx.sys.node(victim)->app());
  auto& reference =
      static_cast<BankStateMachine&>(fx.sys.node(healthy)->app());
  EXPECT_EQ(restored.BalanceOf(a), 1003);
  EXPECT_EQ(restored.BalanceOf(b), 1000);
  EXPECT_EQ(restored.StateDigest(), reference.StateDigest());
  EXPECT_EQ(fx.sys.node(victim)->recoveries(), 1u);
  auto v = fx.CheckInvariants();
  EXPECT_TRUE(v.empty()) << RecoveryFixture::Describe(v);
}

// A client that lands at one destination twice leaves two uncovered
// markers there; a rejoin must re-install the older records first, so the
// newer ones (here, carrying deposits made in between) win.
TEST(MigrationRetentionTest, RejoinReinstallsAClientsAppendsInTimestampOrder) {
  RecoveryFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 1);
  const NodeId leader = fx.sys.PrimaryOf(0)->id();
  const NodeId victim = fx.sys.topology().zone(2).members[3];

  auto first = fx.client->SubmitGlobal(leader, 1, 2);
  fx.sys.sim().RunFor(Seconds(2));
  ASSERT_TRUE(fx.client->MigrationDone(first));
  auto away = fx.client->SubmitGlobal(leader, 2, 0);
  fx.sys.sim().RunFor(Seconds(2));
  ASSERT_TRUE(fx.client->MigrationDone(away));
  // Deposit in zone 0 until the return migration's request id sorts below
  // the first one's: a rejoin walking the markers in id order would then
  // meet the newer records first.
  auto request_id = [c](RequestTimestamp ts) {
    core::MigrationOp op;
    op.client = c;
    op.timestamp = ts;
    return op.RequestId();
  };
  std::int64_t deposited = 0;
  RequestTimestamp last = away;
  do {
    last = fx.client->SubmitLocal(leader, "DEP 5");
    fx.sys.sim().RunFor(Seconds(1));
    ASSERT_TRUE(fx.client->IsComplete(last));
    deposited += 5;
  } while (request_id(last + 1) > request_id(first));
  auto back = fx.client->SubmitGlobal(leader, 0, 2);
  ASSERT_EQ(back, last + 1);
  fx.sys.sim().RunFor(Seconds(2));
  ASSERT_TRUE(fx.client->MigrationDone(back));
  // No local op ran in zone 2, so no checkpoint covers either install.
  EXPECT_EQ(fx.sys.node(victim)->migration().retention().durable_markers, 2u);

  fx.sys.sim().CrashAmnesia(victim);
  fx.sys.sim().RunFor(Seconds(1));
  fx.sys.sim().RecoverAmnesia(victim);
  EXPECT_EQ(fx.sys.node(victim)->migration().migrations_completed(), 2u);
  fx.sys.sim().RunFor(Seconds(2));
  auto& bank = static_cast<BankStateMachine&>(fx.sys.node(victim)->app());
  EXPECT_EQ(bank.BalanceOf(c), 1000 + deposited);
  auto v = fx.CheckInvariants();
  EXPECT_TRUE(v.empty()) << RecoveryFixture::Describe(v);
}

// ------------------------------------------------ global-op watermarks

// Global-op dedup keeps one watermark per client (core::ExecutedOps), not a
// history. A migrated client's consecutive global ops ride different
// initiator chains when the destination zone leads (stable_leader off),
// and a view change, a response-query re-lead or an amnesia rejoin can each
// make a node see them late. Every execution decision is checked against an
// exact shadow set, and every node must run the client's ops in timestamp
// order, each once.
TEST(WatermarkOrderTest, MigratedClientOpsRunInOrderOnceAcrossChains) {
  struct Decision {
    RequestTimestamp ts;
    bool ran;
  };
  std::map<NodeId, std::vector<Decision>> decisions;
  ZiziphusSystem sys(5, sim::LatencyModel::PaperGeoMatrix());
  for (ZoneId z = 0; z < 3; ++z) sys.AddZone(0, z, 1, 4);
  NodeConfig cfg = app::harness::FaultHarnessNodeConfig();
  cfg.sync.stable_leader = false;
  cfg.sync.exec_observer = [&decisions](NodeId node,
                                        const core::MigrationOp& op,
                                        bool ran) {
    decisions[node].push_back({op.timestamp, ran});
  };
  sys.Finalize(cfg,
               [](ZoneId) { return std::make_unique<BankStateMachine>(); });
  testutil::TestClient client(&sys.keys(), 1);
  sys.sim().Register(&client, 0);
  sys.BootstrapClient(client.id(), 0, [](ClientId id) {
    return storage::KvStore::Map{{BankStateMachine::AccountKey(id), "1000"}};
  });
  const auto& topo = sys.topology();
  // Without a stable leader the destination zone leads: each hop below
  // rides a different initiator chain than the one before it.
  auto migrate = [&](ZoneId from, ZoneId to) {
    client.EnableRetry(topo.zone(to).members, Millis(900));
    return client.SubmitGlobal(sys.PrimaryOf(to)->id(), from, to);
  };
  std::vector<RequestTimestamp> done;
  std::set<NodeId> faulted;

  RequestTimestamp ts = migrate(0, 1);
  sys.sim().RunFor(Seconds(3));
  ASSERT_TRUE(client.MigrationDone(ts));
  done.push_back(ts);

  // View change in the leading zone: its primary is down when the request
  // arrives, so the retry reaches the backups, whose relay watch deposes
  // it, and the new primary leads.
  NodeId down = sys.PrimaryOf(2)->id();
  faulted.insert(down);
  sys.sim().faults().Crash(down);
  ts = migrate(1, 2);
  sys.sim().RunFor(Seconds(8));
  ASSERT_TRUE(client.MigrationDone(ts));
  done.push_back(ts);
  sys.sim().faults().Recover(down);

  // The leading primary dies mid-instance and the new one re-leads it,
  // while a zone-1 backup loses its memory; it rejoins before the next hop.
  down = sys.PrimaryOf(0)->id();
  NodeId amnesiac = topo.zone(1).members[2];
  faulted.insert({down, amnesiac});
  ts = migrate(2, 0);
  sys.sim().RunFor(Millis(40));
  sys.sim().faults().Crash(down);
  sys.sim().CrashAmnesia(amnesiac);
  sys.sim().RunFor(Seconds(10));
  ASSERT_TRUE(client.MigrationDone(ts));
  done.push_back(ts);
  sys.sim().RecoverAmnesia(amnesiac);
  sys.sim().faults().Recover(down);
  ts = migrate(0, 2);
  sys.sim().RunFor(Seconds(6));
  ASSERT_TRUE(client.MigrationDone(ts));
  done.push_back(ts);
  EXPECT_EQ(sys.node(amnesiac)->recoveries(), 1u);

  // Response-query re-lead: the leading primary dies after the follower
  // zones accepted, they probe zone 1 for the commit, its backups suspect
  // the primary and the new one re-leads the request. (Without a stable
  // leader this re-lead wedges in the accept phase, see ROADMAP; only the
  // execution decisions made so far are checked for it.)
  down = sys.PrimaryOf(1)->id();
  faulted.insert(down);
  migrate(2, 1);
  sys.sim().RunFor(Millis(70));
  sys.sim().faults().Crash(down);
  sys.sim().RunFor(Seconds(10));

  const CounterSet& counters = sys.sim().counters();
  EXPECT_GE(counters.Get(obs::CounterId::kSyncRelayWatchExpired), 1u);
  EXPECT_GE(counters.Get(obs::CounterId::kSyncResponseQueriesSent), 1u);
  EXPECT_GE(counters.Get(obs::CounterId::kSyncPrimarySuspected), 1u);
  EXPECT_GE(counters.Get(obs::CounterId::kSyncReleadsAfterViewChange), 2u);

  for (const auto& node : sys.nodes()) {
    NodeId id = node->id();
    std::set<RequestTimestamp> shadow;  // exact record of what ran
    RequestTimestamp last_ran = 0;
    for (const Decision& d : decisions[id]) {
      EXPECT_EQ(d.ran, shadow.count(d.ts) == 0)
          << "node " << id << " ts " << d.ts << ": the watermark said "
          << (d.ran ? "new" : "done") << ", the exact set disagrees";
      if (!d.ran) continue;
      EXPECT_GT(d.ts, last_ran) << "node " << id << " ran ts " << d.ts
                                << " after ts " << last_ran;
      last_ran = d.ts;
      shadow.insert(d.ts);
    }
    if (faulted.count(id) == 0) {
      for (RequestTimestamp t : done) {
        EXPECT_EQ(shadow.count(t), 1u) << "node " << id << " ts " << t;
      }
    }
  }
  auto v = sim::InvariantChecker({}).Check(sys);
  EXPECT_TRUE(v.empty()) << RecoveryFixture::Describe(v);
}

// ----------------------------------------------------------- chaos sweep

// The test name keeps its "...OnBothQueues" suffix from when every seed also
// ran a second event queue, so each seed's results stay under one test id
// across history.
class RecoverySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecoverySweep, AmnesiaChaosConvergesIdenticallyOnBothQueues) {
  ChaosOptions opt;
  opt.seed = GetParam();
  opt.amnesia_crashes = 2;
  ChaosReport r = app::RunZiziphusChaos(opt);
  testutil::RecordRunProperties(r);
  EXPECT_TRUE(r.violations.empty()) << r.Summary();
  EXPECT_TRUE(r.all_done) << r.Summary();
  ASSERT_TRUE(r.counters.count("recovery.rejoins"));
  EXPECT_GE(r.counters.at("recovery.rejoins"), 1u);
  // (No per-seed assertion on the time-to-rejoin histogram: a victim whose
  // recovery lands after the workload drained never executes again, which
  // is a legitimate empty histogram. The role-directed tests cover it.)
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoverySweep,
                         ::testing::Range<std::uint64_t>(1, 21));

// A migration's global commit is in flight to the source zone when the
// source zone's primary amnesia-crashes: its backups execute the commit,
// but only the primary starts the record endorsement, and after rejoin the
// primary has no trace of the migration. The source zone can never form
// the STATE certificate on its own; the destination's probes must re-ship
// the stored commit to bootstrap it. Without ReshipCommit the run wedges:
// the migration never finishes.
TEST(RecoveryChaosTest, CommitReshipUnwedgesAmnesiacSourcePrimary) {
  auto run = [](bool reship) {
    RecoveryFixture fx;
    ClientId c = fx.client->id();
    fx.Bootstrap(c, 1);
    if (!reship) {
      for (NodeId n : fx.sys.topology().zone(2).members) {
        fx.sys.node(n)->migration().set_commit_reshipper(nullptr);
      }
    }
    // Zone 0 leads (stable leader); zone 1 is the source, zone 2 the
    // destination.
    NodeId source_primary = fx.sys.PrimaryOf(1)->id();
    auto ts = fx.client->SubmitGlobal(fx.sys.PrimaryOf(0)->id(), 1, 2);
    sim::Simulation& sim = fx.sys.sim();
    while (sim.counters().Get(obs::CounterId::kSyncCommitsSent) == 0 &&
           sim.Now() < Seconds(2) && sim.Step()) {
    }
    EXPECT_GT(sim.counters().Get(obs::CounterId::kSyncCommitsSent), 0u);
    sim.CrashAmnesia(source_primary);
    sim.RunFor(Millis(300));  // the commit lands everywhere else
    sim.RecoverAmnesia(source_primary);
    sim.RunFor(Seconds(20));
    EXPECT_TRUE(fx.CheckInvariants().empty())
        << RecoveryFixture::Describe(fx.CheckInvariants());
    EXPECT_EQ(fx.sys.node(source_primary)->recoveries(), 1u);
    return std::pair{fx.client->MigrationDone(ts),
                     sim.counters().Get(obs::CounterId::kSyncCommitsReshipped)};
  };
  auto [done, reshipped] = run(/*reship=*/true);
  EXPECT_TRUE(done);
  EXPECT_GE(reshipped, 1u);
  auto [done_without, reshipped_without] = run(/*reship=*/false);
  EXPECT_FALSE(done_without);
  EXPECT_EQ(reshipped_without, 0u);
}

TEST(RecoveryChaosTest, RunsAreDeterministicPerSeed) {
  ChaosOptions opt;
  opt.seed = 7;
  opt.amnesia_crashes = 3;
  ChaosReport a = app::RunZiziphusChaos(opt);
  ChaosReport b = app::RunZiziphusChaos(opt);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.obs_json, b.obs_json);

  opt.seed = 8;
  ChaosReport c = app::RunZiziphusChaos(opt);
  EXPECT_NE(a.fingerprint, c.fingerprint);
}

}  // namespace
}  // namespace ziziphus
