#include <memory>

#include "core/endorsement.h"
#include "gtest/gtest.h"
#include "sim/simulation.h"

namespace ziziphus::core {
namespace {

/// Hosts one ZoneEndorser on a simulated process; records quorum events.
class EndorserHost : public sim::Process {
 public:
  void Init(const crypto::KeyRegistry* keys, const ZoneInfo* zone,
            std::function<bool(const EndorsePrePrepareMsg&)> validate) {
    ZoneEndorser::Callbacks cbs;
    cbs.validate = std::move(validate);
    cbs.on_quorum = [this](const EndorseKey& key,
                           const EndorsePrePrepareMsg& pp,
                           const crypto::Certificate& cert) {
      quorums.push_back(key);
      last_cert = cert;
      last_digest = pp.content_digest;
    };
    cbs.on_late_vote = [this](const EndorseKey&, const crypto::Signature&) {
      late_votes++;
    };
    endorser = std::make_unique<ZoneEndorser>(this, keys, zone, NodeCosts{},
                                              cbs);
  }

  std::vector<EndorseKey> quorums;
  std::size_t late_votes = 0;
  crypto::Certificate last_cert;
  crypto::Digest last_digest = 0;
  std::unique_ptr<ZoneEndorser> endorser;

 protected:
  void OnMessage(const sim::MessagePtr& msg) override {
    endorser->HandleMessage(msg);
  }
};

struct EndorserFixture {
  explicit EndorserFixture(std::size_t n = 4, std::size_t f = 1,
                           bool reject_at_node3 = false)
      : keys(1 ^ 0x5eedc0deULL),
        sim(1, sim::LatencyModel::Uniform(1, 500)) {
    hosts.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      hosts[i] = std::make_unique<EndorserHost>();
      zone.members.push_back(sim.Register(hosts[i].get(), 0));
    }
    zone.id = 0;
    zone.f = f;
    for (std::size_t i = 0; i < n; ++i) {
      bool reject = reject_at_node3 && i == 3;
      hosts[i]->Init(&keys, &zone,
                     [reject](const EndorsePrePrepareMsg&) { return !reject; });
    }
  }

  void Start(EndorsePhase phase, std::uint64_t id, crypto::Digest digest,
             bool full_prepare, std::uint64_t ballot = 1) {
    hosts[0]->endorser->Start(phase, id, Ballot{ballot, 0}, kNullBallot,
                              digest, nullptr, MigrationOp{}, {}, {},
                              full_prepare);
  }

  std::uint64_t Counter(obs::CounterId id) { return sim.counters().Get(id); }

  crypto::KeyRegistry keys;
  sim::Simulation sim;
  ZoneInfo zone;
  std::vector<std::unique_ptr<EndorserHost>> hosts;
};

TEST(EndorsementTest, TwoPhaseQuorumAtEveryNode) {
  EndorserFixture fx;
  fx.Start(EndorsePhase::kAccepted, 42, 0xabc, /*full_prepare=*/false);
  fx.sim.RunUntilIdle();
  for (auto& h : fx.hosts) {
    ASSERT_EQ(h->quorums.size(), 1u);
    EXPECT_EQ(h->quorums[0].request_id, 42u);
    EXPECT_GE(h->last_cert.size(), 3u);
  }
  // The certificate verifies against the content digest.
  const ZoneInfo& z = fx.zone;
  EXPECT_TRUE(crypto::VerifyCertificate(
                  fx.keys, fx.hosts[1]->last_cert, 0xabc, z.quorum(),
                  [&z](NodeId n) {
                    return std::find(z.members.begin(), z.members.end(), n) !=
                           z.members.end();
                  })
                  .ok());
}

TEST(EndorsementTest, FullPrepareAlsoReachesQuorum) {
  EndorserFixture fx;
  fx.Start(EndorsePhase::kAccept, 7, 0xdef, /*full_prepare=*/true);
  fx.sim.RunUntilIdle();
  for (auto& h : fx.hosts) EXPECT_EQ(h->quorums.size(), 1u);
  // Full prepare costs one extra message round.
  EXPECT_GT(fx.sim.counters().Get(obs::CounterId::kNetMsgsSent), 32u);
}

TEST(EndorsementTest, QuorumDespiteOneRefusingNode) {
  EndorserFixture fx(4, 1, /*reject_at_node3=*/true);
  fx.Start(EndorsePhase::kAccepted, 9, 0x123, false);
  fx.sim.RunUntilIdle();
  // 3 of 4 votes = 2f+1: quorum still reached at the voting nodes.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(fx.hosts[i]->quorums.size(), 1u) << i;
  }
  EXPECT_GE(fx.sim.counters().Get(obs::CounterId::kEndorseRejected), 1u);
}

TEST(EndorsementTest, QuorumFailsWithTwoCrashedNodes) {
  EndorserFixture fx;
  fx.sim.faults().Crash(fx.zone.members[2]);
  fx.sim.faults().Crash(fx.zone.members[3]);
  fx.Start(EndorsePhase::kAccepted, 5, 0x77, false);
  fx.sim.RunUntilIdle();
  // Only 2 votes < 2f+1 = 3: nobody reaches quorum (safety over liveness).
  for (auto& h : fx.hosts) EXPECT_TRUE(h->quorums.empty());
}

TEST(EndorsementTest, NonPrimaryPrePrepareIgnored) {
  EndorserFixture fx;
  // Node 1 (not the view-0 primary) tries to start an endorsement.
  fx.hosts[1]->endorser->OnViewChange(0);  // no-op; still view 0
  auto msg = std::make_shared<EndorsePrePrepareMsg>();
  msg->phase = EndorsePhase::kAccepted;
  msg->request_id = 1;
  msg->view = 0;
  msg->content_digest = 0x99;
  msg->sig = fx.keys.Sign(fx.zone.members[1], msg->digest());
  msg->set_from(fx.zone.members[1]);
  // Inject directly via the network from node 1.
  fx.sim.SendMessage(fx.zone.members[1], 0, fx.zone.members[2], msg);
  fx.sim.RunUntilIdle();
  EXPECT_TRUE(fx.hosts[2]->quorums.empty());
}

TEST(EndorsementTest, HigherBallotSupersedesLowerAttempt) {
  EndorserFixture fx;
  fx.Start(EndorsePhase::kAccepted, 3, 0x111, false);
  fx.sim.RunUntilIdle();
  ASSERT_EQ(fx.hosts[1]->quorums.size(), 1u);
  // A re-led attempt with a higher ballot and different digest restarts the
  // instance rather than being flagged as equivocation.
  fx.hosts[0]->endorser->Start(EndorsePhase::kAccepted, 3, Ballot{2, 0},
                               kNullBallot, 0x222, nullptr, MigrationOp{}, {},
                               {}, false);
  fx.sim.RunUntilIdle();
  EXPECT_EQ(fx.sim.counters().Get(obs::CounterId::kEndorseEquivocationDetected), 0u);
  EXPECT_EQ(fx.hosts[1]->quorums.size(), 2u);
  EXPECT_EQ(fx.hosts[1]->last_digest, 0x222u);
}

TEST(EndorsementTest, ViewChangeDropsInFlightInstances) {
  EndorserFixture fx;
  fx.sim.faults().Crash(fx.zone.members[3]);
  fx.sim.faults().Crash(fx.zone.members[2]);
  fx.Start(EndorsePhase::kAccepted, 4, 0x333, false);
  fx.sim.RunUntilIdle();  // cannot reach quorum
  EXPECT_TRUE(fx.hosts[1]->quorums.empty());
  fx.hosts[1]->endorser->OnViewChange(1);
  EXPECT_EQ(fx.hosts[1]->endorser->primary(), fx.zone.members[1]);
  EXPECT_FALSE(fx.hosts[1]->endorser->IsDone({4, EndorsePhase::kAccepted}));
}

// ---- retirement: after on_quorum only a tombstone stays ------------------

TEST(EndorsementRetirementTest, LateFourthVoteBringsBackNoState) {
  EndorserFixture fx;
  fx.Start(EndorsePhase::kAccepted, 11, 0xa11, /*full_prepare=*/false);
  fx.sim.RunUntilIdle();
  for (auto& h : fx.hosts) {
    ASSERT_EQ(h->quorums.size(), 1u);
    // The quorum fired on the third vote; the fourth reached the tombstone,
    // was handed to on_late_vote and left nothing behind.
    EXPECT_EQ(h->late_votes, 1u);
    EXPECT_EQ(h->endorser->retention().live, 0u);
    EXPECT_EQ(h->endorser->retention().tombstones, 1u);
    EXPECT_TRUE(h->endorser->IsDone({11, EndorsePhase::kAccepted}));
  }
}

TEST(EndorsementRetirementTest, DuplicatePrePrepareAfterCompletionIsNoOp) {
  EndorserFixture fx;
  fx.Start(EndorsePhase::kAccept, 12, 0xb12, /*full_prepare=*/true);
  fx.sim.RunUntilIdle();
  const std::uint64_t sent = fx.Counter(obs::CounterId::kNetMsgsSent);
  fx.Start(EndorsePhase::kAccept, 12, 0xb12, /*full_prepare=*/true);
  fx.sim.RunUntilIdle();
  // Only the re-sent pre-prepare travelled: no prepare, no vote re-cast.
  EXPECT_EQ(fx.Counter(obs::CounterId::kNetMsgsSent), sent + 4);
  EXPECT_EQ(fx.Counter(obs::CounterId::kEndorseEquivocationDetected), 0u);
  for (auto& h : fx.hosts) {
    EXPECT_EQ(h->quorums.size(), 1u);
    EXPECT_EQ(h->endorser->retention().live, 0u);
  }
}

TEST(EndorsementRetirementTest, SameBallotEquivocationAfterCompletionCounted) {
  EndorserFixture fx;
  fx.Start(EndorsePhase::kAccepted, 13, 0xc13, false);
  fx.sim.RunUntilIdle();
  fx.Start(EndorsePhase::kAccepted, 13, 0xdead, false);
  fx.sim.RunUntilIdle();
  // Every node's tombstone still knows the certified digest and ballot.
  EXPECT_EQ(fx.Counter(obs::CounterId::kEndorseEquivocationDetected), 4u);
  for (auto& h : fx.hosts) {
    EXPECT_EQ(h->quorums.size(), 1u);
    EXPECT_EQ(h->last_digest, 0xc13u);
    EXPECT_EQ(h->endorser->retention().live, 0u);
  }
}

TEST(EndorsementRetirementTest, HigherBallotReopensCompletedInstance) {
  EndorserFixture fx;
  fx.Start(EndorsePhase::kAccepted, 14, 0xd14, false);
  fx.sim.RunUntilIdle();
  fx.Start(EndorsePhase::kAccepted, 14, 0xe14, false, /*ballot=*/2);
  fx.sim.RunUntilIdle();
  EXPECT_EQ(fx.Counter(obs::CounterId::kEndorseEquivocationDetected), 0u);
  for (auto& h : fx.hosts) {
    ASSERT_EQ(h->quorums.size(), 2u);
    EXPECT_EQ(h->last_digest, 0xe14u);
    // The re-opened instance retired again into the same single tombstone.
    EXPECT_EQ(h->endorser->retention().live, 0u);
    EXPECT_EQ(h->endorser->retention().tombstones, 1u);
  }
}

TEST(EndorsementRetirementTest, OnQuorumFiresExactlyOnce) {
  EndorserFixture fx;
  fx.Start(EndorsePhase::kPropose, 15, 0xf15, /*full_prepare=*/true);
  fx.sim.RunUntilIdle();
  // Re-driving, duplicate votes and late prepares cannot fire it again.
  fx.Start(EndorsePhase::kPropose, 15, 0xf15, /*full_prepare=*/true);
  fx.sim.RunUntilIdle();
  for (auto& h : fx.hosts) {
    ASSERT_EQ(h->quorums.size(), 1u);
    EXPECT_EQ(h->quorums[0].request_id, 15u);
    EXPECT_EQ(h->last_cert.size(), fx.zone.quorum());
  }
}

}  // namespace
}  // namespace ziziphus::core
