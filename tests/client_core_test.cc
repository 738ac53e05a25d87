// app::ClientCore in isolation: hand-built replies delivered straight to a
// core, checking the f+1 reply tally, policy rejections, the adaptive retry
// timer, primary re-guessing and every verdict of the verified-read
// circuit. Whole-system runs reach
// these paths only indirectly. `ctest -L reads` runs this suite.

#include <memory>
#include <string>
#include <vector>

#include "app/bank.h"
#include "app/client.h"
#include "app/client_core.h"
#include "core/topology.h"
#include "gtest/gtest.h"
#include "obs/metric_ids.h"
#include "sim/simulation.h"
#include "storage/kv_store.h"
#include "tests/read_fixtures.h"

namespace ziziphus::app {
namespace {

using Outcome = ClientCore::Outcome;

/// Stand-in replica: keeps every message it receives.
class Sink : public sim::Process {
 public:
  std::vector<sim::MessagePtr> got;

 protected:
  void OnMessage(const sim::MessagePtr& msg) override { got.push_back(msg); }
};

/// A test op source: issues exactly the operation the test asks for and
/// records what the core reports back.
class ProbeClient : public ClientCore {
 public:
  using ClientCore::ClientCore;

  RequestTimestamp Write(const std::vector<NodeId>* group, std::size_t f) {
    auto req = std::make_shared<pbft::ClientRequestMsg>();
    req->op.client = id();
    req->op.timestamp = NextTimestamp();
    req->op.command = "DEP 1";
    BeginOp(ClientOp::kTransfer);
    SendWrite(req, Route{group->front(), group, f + 1, f + 1});
    return req->op.timestamp;
  }

  void Read(const std::vector<NodeId>* replicas, std::size_t f) {
    BeginOp(ClientOp::kRead);
    StartRead(/*zone=*/0, replicas, f, /*spread=*/false);
  }

  Session& mutable_session() { return session_; }
  void set_causal(bool on) { causal_ = on; }
  void RecordWitnesses(std::vector<crypto::ReadWitness>* sink) {
    witness_sink_ = sink;
  }

  std::vector<Outcome> outcomes;
  int behind = 0;
  int exhausted = 0;

 protected:
  void OnDone(Outcome outcome) override { outcomes.push_back(outcome); }
  void OnReadBehind() override { behind++; }
  void OnReadExhausted() override { exhausted++; }
};

struct CoreFixture {
  CoreFixture() : keys(11), sim(1, sim::LatencyModel::Uniform(1, 1000)) {
    for (int i = 0; i < 4; ++i) {
      sinks.push_back(std::make_unique<Sink>());
      members.push_back(sim.Register(sinks.back().get(), 0));
    }
    client = std::make_unique<ProbeClient>(&keys, Seconds(1));
    sim.Register(client.get(), 0);
    store.Put(BankStateMachine::AccountKey(client->id()), "1000");
  }

  void Deliver(sim::MessagePtr msg) {
    client->DeliverMessage(sim.Now(), msg);
  }

  void ClientReply(NodeId replica, RequestTimestamp ts) {
    auto r = std::make_shared<pbft::ClientReplyMsg>();
    r->replica = replica;
    r->timestamp = ts;
    Deliver(r);
  }

  /// A reply to read attempt `nonce` that verifies unless tampered with.
  std::shared_ptr<pbft::ReadReplyMsg> GoodRead(std::uint64_t nonce,
                                               SeqNum anchor = 12) {
    auto r = std::make_shared<pbft::ReadReplyMsg>(testutil::ReplyFor(
        keys, members, store, anchor,
        BankStateMachine::AccountKey(client->id()), /*covered_ts=*/5,
        client->id()));
    r->nonce = nonce;
    return r;
  }

  /// Read requests `sinks[i]` received so far, as their nonces.
  std::vector<std::uint64_t> ReadNonces(std::size_t i) {
    sim.RunFor(Millis(5));
    std::vector<std::uint64_t> out;
    for (const auto& m : sinks[i]->got) {
      if (m->type() == pbft::kReadRequest) {
        out.push_back(static_cast<const pbft::ReadRequestMsg&>(*m).nonce);
      }
    }
    return out;
  }

  crypto::KeyRegistry keys;
  sim::Simulation sim;
  std::vector<std::unique_ptr<Sink>> sinks;
  std::vector<NodeId> members;
  std::unique_ptr<ProbeClient> client;
  storage::KvStore store;
};

// ------------------------------------------------------------ the tally

TEST(ClientCoreTallyTest, RepeatedReplyFromOneReplicaCountsOnce) {
  CoreFixture fx;
  RequestTimestamp ts = fx.client->Write(&fx.members, /*f=*/1);
  fx.ClientReply(fx.members[0], ts);
  fx.ClientReply(fx.members[0], ts);
  fx.ClientReply(fx.members[0], ts);
  EXPECT_TRUE(fx.client->outcomes.empty());
  EXPECT_FALSE(fx.client->idle());
}

TEST(ClientCoreTallyTest, StaleTimestampIsIgnored) {
  CoreFixture fx;
  RequestTimestamp ts = fx.client->Write(&fx.members, 1);
  fx.ClientReply(fx.members[0], ts + 1);
  fx.ClientReply(fx.members[1], ts + 1);
  fx.ClientReply(fx.members[2], 0);
  EXPECT_TRUE(fx.client->outcomes.empty());
  fx.ClientReply(fx.members[0], ts);
  EXPECT_TRUE(fx.client->outcomes.empty());
}

TEST(ClientCoreTallyTest, FPlusOnethDistinctReplicaCompletesExactlyOnce) {
  CoreFixture fx;
  RequestTimestamp ts = fx.client->Write(&fx.members, 1);
  fx.ClientReply(fx.members[2], ts);
  EXPECT_TRUE(fx.client->outcomes.empty());
  fx.ClientReply(fx.members[3], ts);
  ASSERT_EQ(fx.client->outcomes.size(), 1u);
  EXPECT_EQ(fx.client->outcomes[0], Outcome::kCommitted);
  // Late replies of the finished op change nothing.
  fx.ClientReply(fx.members[0], ts);
  fx.ClientReply(fx.members[1], ts);
  EXPECT_EQ(fx.client->outcomes.size(), 1u);
  EXPECT_TRUE(fx.client->idle());
  EXPECT_EQ(fx.client->stats().local_completed, 1u);
  EXPECT_EQ(fx.client->session().last_write_ts, ts);
}

TEST(ClientCoreTallyTest, RetryTimeoutMulticastsToTheGroup) {
  CoreFixture fx;
  fx.client->Write(&fx.members, 1);
  fx.sim.RunFor(Millis(500));
  EXPECT_EQ(fx.sinks[0]->got.size(), 1u);  // the guessed primary only
  EXPECT_TRUE(fx.sinks[1]->got.empty());
  fx.sim.RunFor(Seconds(1));
  EXPECT_EQ(fx.client->stats().timeouts, 1u);
  for (const auto& sink : fx.sinks) {
    ASSERT_FALSE(sink->got.empty());
    EXPECT_EQ(sink->got.back()->type(), pbft::kClientRequest);
  }
}

/// Two zones of four stand-in replicas each, and a MobileClient at home in
/// zone 0 whose every operation is a migration.
struct MigrationFixture {
  MigrationFixture()
      : keys(11), sim(1, sim::LatencyModel::Uniform(1, 1000)) {
    for (ZoneId z = 0; z < 2; ++z) {
      std::vector<NodeId> ids;
      for (int i = 0; i < 4; ++i) {
        sinks.push_back(std::make_unique<Sink>());
        ids.push_back(sim.Register(sinks.back().get(), 0));
      }
      topo.AddZone(/*cluster=*/0, /*region=*/0, /*f=*/1, ids);
    }
    MobileClient::Config cc;
    cc.topology = &topo;
    cc.keys = &keys;
    cc.mix.global_fraction = 1.0;
    cc.think_time = Seconds(100);  // one operation per test
    client = std::make_unique<MobileClient>(std::move(cc));
    sim.Register(client.get(), 0);
    client->Start(0);
    sim.RunFor(Millis(5));  // issues the migration (timestamp 1)
  }

  void Deliver(bool done, NodeId replica, std::string result) {
    auto r = std::make_shared<core::MigrationReplyMsg>(done);
    r->timestamp = 1;
    r->replica = replica;
    r->result = std::move(result);
    client->DeliverMessage(sim.Now(), r);
  }

  crypto::KeyRegistry keys;
  sim::Simulation sim;
  core::Topology topo;
  std::vector<std::unique_ptr<Sink>> sinks;
  std::unique_ptr<MobileClient> client;
};

TEST(ClientCoreTallyTest, FPlusOneRejectionsEndAMigrationWithoutMoving) {
  MigrationFixture fx;
  const auto& leader = fx.topo.zone(0).members;
  ASSERT_FALSE(fx.client->idle());
  fx.Deliver(false, leader[0], "ok");  // first sub-transaction: keep going
  fx.Deliver(false, leader[1], "rejected:destination zone full");
  fx.Deliver(false, leader[1], "rejected:destination zone full");
  EXPECT_FALSE(fx.client->idle());
  fx.Deliver(false, leader[2], "rejected:destination zone full");
  EXPECT_TRUE(fx.client->idle());
  EXPECT_EQ(fx.client->stats().global_completed, 1u);
  EXPECT_EQ(fx.client->home(), 0u);
  EXPECT_EQ(fx.client->session().last_write_ts, 0u);
}

TEST(ClientCoreTallyTest, FPlusOneMigrationDonesMoveTheClient) {
  MigrationFixture fx;
  const auto& dest = fx.topo.zone(1).members;
  fx.Deliver(true, dest[0], "ok");
  fx.Deliver(true, dest[0], "ok");
  EXPECT_FALSE(fx.client->idle());
  fx.Deliver(true, dest[3], "ok");
  EXPECT_TRUE(fx.client->idle());
  EXPECT_EQ(fx.client->home(), 1u);
  EXPECT_EQ(fx.client->session().last_write_ts, 1u);
}

TEST(ClientCoreTallyTest, TimedOutLeaderPrimaryIsNotAskedAgain) {
  MigrationFixture fx;
  const auto& leader = fx.topo.zone(0).members;
  const auto& dest = fx.topo.zone(1).members;
  // The leader zone's primary has crashed: the migration times out there,
  // the retry reaches the backups, and the zone finishes it.
  fx.sim.faults().Crash(leader[0]);
  fx.sim.RunFor(Seconds(5));
  ASSERT_EQ(fx.client->stats().timeouts, 1u);
  for (int i = 0; i < 2; ++i) fx.Deliver(true, dest[i], "ok");
  ASSERT_TRUE(fx.client->idle());

  // The next migration (home zone 1 back to zone 0, led by zone 0 again)
  // goes straight to a live node of the leader zone.
  fx.sim.RunFor(Seconds(101));  // the fixture's think time
  ASSERT_FALSE(fx.client->idle());
  auto first_sends = [&](std::size_t sink) {
    std::size_t n = 0;
    for (const auto& m : fx.sinks[sink]->got) {
      if (m->type() == core::kMigrationRequest &&
          static_cast<const core::MigrationRequestMsg&>(*m).op.timestamp ==
              2) {
        n++;
      }
    }
    return n;
  };
  EXPECT_EQ(first_sends(1), 1u);  // zone 0, member 1: view 1's primary
  for (std::size_t sink : {0u, 2u, 3u, 4u, 5u, 6u, 7u}) {
    EXPECT_EQ(first_sends(sink), 0u) << "sink " << sink;
  }
  EXPECT_EQ(fx.client->stats().timeouts, 1u);
}

// ---------------------------------------------------- the retry timer

TEST(ClientCoreRetryTest, AttemptTimeoutFollowsTheObservedLatency) {
  const Duration retry = Seconds(8);
  const Duration floor = retry / pbft::kClientRetryFloorDiv;
  pbft::CommitLatencyEwma ewma;
  // No sample yet: every attempt waits the configured retry timeout.
  for (std::uint32_t attempt : {0u, 1u, 5u}) {
    EXPECT_EQ(ClientCore::AttemptTimeout(retry, ewma, attempt), retry);
  }
  // A fast class sits at the floor, then doubles per attempt up to the cap.
  ewma.Observe(Millis(100));
  EXPECT_EQ(ClientCore::AttemptTimeout(retry, ewma, 0), floor);
  EXPECT_EQ(ClientCore::AttemptTimeout(retry, ewma, 1), 2 * floor);
  EXPECT_EQ(ClientCore::AttemptTimeout(retry, ewma, 2), retry);
  EXPECT_EQ(ClientCore::AttemptTimeout(retry, ewma, 40), retry);
  // A slower class waits kAdaptiveTimeoutMultiplier times its latency.
  pbft::CommitLatencyEwma slow;
  slow.Observe(Millis(300));
  const Duration base = pbft::kAdaptiveTimeoutMultiplier * Millis(300);
  EXPECT_EQ(ClientCore::AttemptTimeout(retry, slow, 0), base);
  EXPECT_EQ(ClientCore::AttemptTimeout(retry, slow, 1), 2 * base);
  EXPECT_EQ(ClientCore::AttemptTimeout(retry, slow, 2), retry);
  // Never above the configured retry timeout, whatever the latency.
  pbft::CommitLatencyEwma glacial;
  glacial.Observe(Seconds(30));
  EXPECT_EQ(ClientCore::AttemptTimeout(retry, glacial, 0), retry);
}

TEST(ClientCoreRetryTest, CleanCompletionShortensAndDoublesTheTimeout) {
  CoreFixture fx;
  RequestTimestamp ts = fx.client->Write(&fx.members, 1);
  fx.sim.RunFor(Millis(3));
  fx.ClientReply(fx.members[0], ts);
  fx.ClientReply(fx.members[1], ts);
  ASSERT_TRUE(fx.client->idle());
  EXPECT_EQ(fx.client->latency_ewma(ClientOp::kTransfer).value(), Millis(3));

  // 8 x 3 ms is under the floor (1 s / 4): retries fire at 250 ms, then
  // 500 ms and 1 s (the cap) after the previous one.
  fx.client->Write(&fx.members, 1);
  fx.sim.RunFor(Millis(251));
  EXPECT_EQ(fx.client->stats().timeouts, 1u);
  fx.sim.RunFor(Millis(500));
  EXPECT_EQ(fx.client->stats().timeouts, 2u);
  fx.sim.RunFor(Millis(998));
  EXPECT_EQ(fx.client->stats().timeouts, 2u);
  fx.sim.RunFor(Millis(2));
  EXPECT_EQ(fx.client->stats().timeouts, 3u);
  fx.sim.RunFor(Millis(1000));
  EXPECT_EQ(fx.client->stats().timeouts, 4u);
}

TEST(ClientCoreRetryTest, RetriedCompletionIsNotSampled) {
  CoreFixture fx;  // retry_timeout 1 s
  RequestTimestamp ts = fx.client->Write(&fx.members, 1);
  fx.sim.RunFor(Millis(1100));
  ASSERT_EQ(fx.client->stats().timeouts, 1u);
  fx.ClientReply(fx.members[1], ts);
  fx.ClientReply(fx.members[2], ts);
  ASSERT_TRUE(fx.client->idle());
  EXPECT_EQ(fx.client->stats().local_completed, 1u);
  // Karn's rule: the 1.1 s it took measures the timeout, not the path.
  EXPECT_FALSE(fx.client->latency_ewma(ClientOp::kTransfer).seeded());
  fx.client->Write(&fx.members, 1);
  fx.sim.RunFor(Millis(999));
  EXPECT_EQ(fx.client->stats().timeouts, 1u);
  fx.sim.RunFor(Millis(2));
  EXPECT_EQ(fx.client->stats().timeouts, 2u);
}

// ------------------------------------------------------ the read circuit

TEST(ClientCoreReadTest, OkAdvancesTheFloorAndRecordsAWitness) {
  CoreFixture fx;
  std::vector<crypto::ReadWitness> witnesses;
  fx.client->RecordWitnesses(&witnesses);
  fx.client->Read(&fx.members, 1);
  EXPECT_EQ(fx.ReadNonces(0), std::vector<std::uint64_t>{1});
  fx.Deliver(fx.GoodRead(1, /*anchor=*/12));
  ASSERT_EQ(fx.client->outcomes.size(), 1u);
  EXPECT_EQ(fx.client->outcomes[0], Outcome::kCommitted);
  EXPECT_EQ(fx.client->session().FloorFor(0), 12u);
  ASSERT_EQ(witnesses.size(), 1u);
  EXPECT_EQ(witnesses[0].client, fx.client->id());
  EXPECT_EQ(witnesses[0].value, "1000");
  EXPECT_EQ(witnesses[0].floor_before, 0u);
  EXPECT_EQ(fx.client->stats().reads_completed, 1u);
  EXPECT_EQ(fx.sim.counters().Get(obs::CounterId::kReadsCertVerified), 1u);
}

TEST(ClientCoreReadTest, OkMergesDependenciesOnlyInCausalSessions) {
  for (bool causal : {false, true}) {
    CoreFixture fx;
    fx.client->set_causal(causal);
    fx.client->Read(&fx.members, 1);
    auto r = fx.GoodRead(1);
    r->deps = {{1, 30}, {2, 4}};
    fx.Deliver(r);
    ASSERT_EQ(fx.client->outcomes.size(), 1u);
    EXPECT_EQ(fx.client->session().FloorFor(1), causal ? 30u : 0u);
    EXPECT_EQ(fx.client->session().FloorFor(2), causal ? 4u : 0u);
  }
}

TEST(ClientCoreReadTest, ReplyToAnEarlierAttemptIsIgnored) {
  CoreFixture fx;
  fx.client->Read(&fx.members, 1);
  fx.Deliver(fx.GoodRead(/*nonce=*/7));
  EXPECT_TRUE(fx.client->outcomes.empty());
  EXPECT_TRUE(fx.ReadNonces(1).empty());
}

TEST(ClientCoreReadTest, BehindIsTheSourcesCall) {
  CoreFixture fx;
  fx.client->Read(&fx.members, 1);
  auto r = fx.GoodRead(1);
  r->behind = true;
  fx.Deliver(r);
  EXPECT_EQ(fx.client->behind, 1);
  EXPECT_TRUE(fx.client->outcomes.empty());
  EXPECT_TRUE(fx.ReadNonces(1).empty());  // no rotation by the core
}

struct BadReadCase {
  const char* name;
  void (*spoil)(CoreFixture&, pbft::ReadReplyMsg&);
  obs::CounterId counter;
};

class ClientCoreBadReadTest : public ::testing::TestWithParam<BadReadCase> {};

TEST_P(ClientCoreBadReadTest, BumpsItsCounterAndMovesToTheNextReplica) {
  CoreFixture fx;
  fx.client->Read(&fx.members, 1);
  auto r = fx.GoodRead(1);
  GetParam().spoil(fx, *r);
  fx.Deliver(r);
  EXPECT_TRUE(fx.client->outcomes.empty());
  EXPECT_EQ(fx.client->stats().read_rejects, 1u);
  EXPECT_EQ(fx.sim.counters().Get(GetParam().counter), 1u);
  EXPECT_EQ(fx.ReadNonces(1), std::vector<std::uint64_t>{2});

  // The next replica's honest answer is accepted; the spoiled one would
  // still be rejected, so restore the session first for the stale cases.
  fx.client->mutable_session() = Session{};
  fx.Deliver(fx.GoodRead(2));
  ASSERT_EQ(fx.client->outcomes.size(), 1u);
  EXPECT_EQ(fx.client->outcomes[0], Outcome::kCommitted);
}

INSTANTIATE_TEST_SUITE_P(
    Verdicts, ClientCoreBadReadTest,
    ::testing::Values(
        BadReadCase{"BadCertificate",
                    [](CoreFixture& fx, pbft::ReadReplyMsg& r) {
                      r.proof.certificate = testutil::MakeCheckpointCert(
                          fx.keys, {20, 21}, r.proof.anchor_seq,
                          r.proof.state_digest, r.proof.read_root);
                    },
                    obs::CounterId::kReadsCertRejected},
        BadReadCase{"BadInclusion",
                    [](CoreFixture&, pbft::ReadReplyMsg& r) {
                      r.value = "13";
                    },
                    obs::CounterId::kReadsCertRejected},
        BadReadCase{"BadCoverage",
                    [](CoreFixture&, pbft::ReadReplyMsg& r) {
                      r.proof.coverage_proof.leaf.value = "123456";
                    },
                    obs::CounterId::kReadsCertRejected},
        BadReadCase{"StaleAnchor",
                    [](CoreFixture& fx, pbft::ReadReplyMsg&) {
                      fx.client->mutable_session().AdvanceFloor(0, 15);
                    },
                    obs::CounterId::kReadsSessionViolationsDetected},
        BadReadCase{"StaleWrite",
                    [](CoreFixture& fx, pbft::ReadReplyMsg&) {
                      fx.client->mutable_session().last_write_ts = 9;
                    },
                    obs::CounterId::kReadsSessionViolationsDetected}),
    [](const ::testing::TestParamInfo<BadReadCase>& info) {
      return std::string(info.param.name);
    });

TEST(ClientCoreReadTest, EveryReplicaRejectingExhaustsTheCircuit) {
  CoreFixture fx;
  fx.client->Read(&fx.members, 1);
  for (std::uint64_t nonce = 1; nonce <= 4; ++nonce) {
    auto r = fx.GoodRead(nonce);
    r->value = "13";
    fx.Deliver(r);
  }
  EXPECT_EQ(fx.client->exhausted, 1);
  EXPECT_EQ(fx.client->stats().read_rejects, 4u);
  EXPECT_TRUE(fx.client->outcomes.empty());  // ending it is the source's call
}

TEST(ClientCoreReadTest, SilentReplicaRotatesOnTheRetryTimer) {
  CoreFixture fx;
  fx.client->Read(&fx.members, 1);
  fx.sim.RunFor(Millis(1500));
  EXPECT_EQ(fx.client->stats().timeouts, 1u);
  EXPECT_EQ(fx.ReadNonces(1), std::vector<std::uint64_t>{2});
}

}  // namespace
}  // namespace ziziphus::app
