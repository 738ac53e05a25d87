#include <memory>

#include "app/bank.h"
#include "app/experiment.h"
#include "app/harness.h"
#include "baselines/pbft_process.h"
#include "baselines/two_level.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace ziziphus {
namespace {

using app::BankStateMachine;

struct TwoLevelFixture {
  explicit TwoLevelFixture(std::size_t zones = 3, std::uint64_t seed = 1)
      : sys(seed, sim::LatencyModel::PaperGeoMatrix()) {
    for (std::size_t z = 0; z < zones; ++z) {
      sys.AddZone(0, static_cast<RegionId>(z % 7), 1, 4);
    }
    // Finalize adds the witness zones (three zones get one).
    baselines::TwoLevelNode::Config cfg;
    cfg.pbft.request_timeout_us = Seconds(2);
    sys.Finalize(cfg, [](ZoneId) {
      return std::make_unique<BankStateMachine>();
    });
    client = std::make_unique<testutil::TestClient>(&sys.keys(), 1);
    sys.sim().Register(client.get(), 0);
  }

  void Bootstrap(ClientId c, ZoneId home) {
    sys.BootstrapClient(c, home, [](ClientId id) {
      return storage::KvStore::Map{
          {BankStateMachine::AccountKey(id), "1000"}};
    });
  }
  BankStateMachine& bank(ZoneId z, std::size_t m) {
    return static_cast<BankStateMachine&>(sys.node(
        sys.topology().zone(z).members[m])->app());
  }

  baselines::TwoLevelSystem sys;
  std::unique_ptr<testutil::TestClient> client;
};

TEST(TwoLevelTest, LocalTransactionsUseZonePbft) {
  TwoLevelFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 1);
  auto ts = fx.client->SubmitLocal(fx.sys.PrimaryOf(1)->id(), "DEP 9");
  fx.sys.sim().RunFor(Seconds(1));
  EXPECT_TRUE(fx.client->IsComplete(ts));
  EXPECT_EQ(fx.bank(1, 0).BalanceOf(c), 1009);
}

TEST(TwoLevelTest, GlobalMigrationThroughTopLevelPbft) {
  TwoLevelFixture fx;
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 1);
  // Global requests go to the leader zone (zone 0).
  auto ts = fx.client->SubmitGlobal(fx.sys.PrimaryOf(0)->id(), 1, 2);
  fx.sys.sim().RunFor(Seconds(4));
  EXPECT_TRUE(fx.client->Synced(ts));
  EXPECT_TRUE(fx.client->MigrationDone(ts));
  // Every real zone and the witness executed the meta-data update.
  for (ZoneId z = 0; z < 4; ++z) {
    EXPECT_EQ(fx.sys.node(fx.sys.topology().zone(z).members[0])
                  ->metadata()
                  .HomeOf(c),
              2u)
        << "zone " << z;
  }
  // Records and lock bit moved.
  EXPECT_EQ(fx.bank(2, 0).BalanceOf(c), 1000);
  EXPECT_TRUE(fx.sys.node(fx.sys.topology().zone(2).members[0])
                  ->locks()
                  .IsLocked(c));
  EXPECT_FALSE(fx.sys.node(fx.sys.topology().zone(1).members[0])
                   ->locks()
                   .IsLocked(c));
}

TEST(TwoLevelTest, GlobalOrderIsTotal) {
  TwoLevelFixture fx;
  std::vector<std::unique_ptr<testutil::TestClient>> clients;
  for (int i = 0; i < 6; ++i) {
    clients.push_back(
        std::make_unique<testutil::TestClient>(&fx.sys.keys(), 1));
    fx.sys.sim().Register(clients.back().get(), 0);
    fx.Bootstrap(clients.back()->id(), static_cast<ZoneId>(i % 3));
  }
  for (int i = 0; i < 6; ++i) {
    ZoneId src = static_cast<ZoneId>(i % 3);
    ZoneId dst = static_cast<ZoneId>((i + 1) % 3);
    clients[i]->SubmitGlobal(fx.sys.PrimaryOf(0)->id(), src, dst);
  }
  fx.sys.sim().RunFor(Seconds(5));
  std::uint64_t digest = fx.sys.node(0)->metadata().StateDigest();
  for (ZoneId z = 0; z < 3; ++z) {
    for (std::size_t m = 0; m < 4; ++m) {
      EXPECT_EQ(fx.sys.node(fx.sys.topology().zone(z).members[m])
                    ->metadata()
                    .StateDigest(),
                digest);
    }
  }
}

TEST(TwoLevelTest, ChunkedStateMigratesWithoutWaitingForAProbe) {
  // A client with more than core::kChunkRecords records ships as a
  // manifest plus chunks. The destination must route both to its
  // migration engine, not wait out core::kStateWaitTimeout for a probe
  // that re-fetches the records.
  baselines::TwoLevelSystem sys(1, sim::LatencyModel::PaperGeoMatrix());
  for (ZoneId z = 0; z < 3; ++z) {
    sys.AddZone(0, static_cast<RegionId>(z), 1, 4);
  }
  sys.Finalize(app::TwoLevelNodeConfig(), [](ZoneId) {
    return std::make_unique<BankStateMachine>();
  });
  testutil::TestClient client(&sys.keys(), 1);
  sys.sim().Register(&client, 0);
  constexpr std::uint64_t kRecords = 100;
  static_assert(kRecords > core::kChunkRecords);
  sys.BootstrapClient(client.id(), 1, [](ClientId id) {
    storage::KvStore::Map records{{BankStateMachine::AccountKey(id), "1000"}};
    for (std::uint64_t n = 1; n < kRecords; ++n) {
      records.emplace(BankStateMachine::DataKey(id, n), "v");
    }
    return records;
  });
  auto ts = client.SubmitGlobal(sys.PrimaryOf(0)->id(), 1, 2);
  sys.sim().RunFor(core::kStateWaitTimeout / 2);
  EXPECT_TRUE(client.MigrationDone(ts));
  const CounterSet& counters = sys.sim().counters();
  EXPECT_GT(counters.Get(obs::CounterId::kMigChunkedTransfers), 0u);
  EXPECT_EQ(counters.Get(obs::CounterId::kMigStateQueriesSent), 0u);
  EXPECT_EQ(counters.Get(obs::CounterId::kNodeUnroutableMessage), 0u);
  auto& bank = static_cast<BankStateMachine&>(
      sys.node(sys.topology().zone(2).members[3])->app());
  EXPECT_EQ(bank.DataRecordCount(client.id()), kRecords - 1);
}

TEST(TwoLevelTest, WitnessZoneHasNoLocalClients) {
  TwoLevelFixture fx;
  // The witness participates in global consensus but never serves local
  // transactions (paper: "they do not process any local transactions").
  ClientId c = fx.client->id();
  fx.Bootstrap(c, 0);
  auto ts = fx.client->SubmitGlobal(fx.sys.PrimaryOf(0)->id(), 0, 1);
  fx.sys.sim().RunFor(Seconds(3));
  ASSERT_TRUE(fx.client->MigrationDone(ts));
  const core::ZoneInfo& witness = fx.sys.topology().zone(3);
  EXPECT_EQ(witness.members.size(), 1u);
  auto& app = static_cast<BankStateMachine&>(
      fx.sys.node(witness.members[0])->app());
  EXPECT_EQ(app.TotalBalance(), 0);  // no client data ever lands there
}

TEST(StewardTest, DefaultConfigIsFullyGlobal) {
  core::NodeConfig cfg = app::StewardNodeConfig();
  EXPECT_TRUE(cfg.sync.stable_leader);
  EXPECT_FALSE(cfg.lazy_sync);
}

TEST(FlatPbftTest, GeoSpanningGroupCommits) {
  crypto::KeyRegistry keys(9 ^ 0x5eedc0deULL);
  sim::Simulation sim(9, sim::LatencyModel::PaperGeoMatrix());
  // 4 nodes in CA, 3 in OH, 3 in QC: one group tolerating 3 faults.
  std::vector<std::unique_ptr<baselines::PbftReplicaProcess>> reps;
  std::vector<NodeId> group;
  RegionId regions[] = {sim::kCalifornia, sim::kOhio, sim::kQuebec};
  for (int z = 0; z < 3; ++z) {
    int count = z == 0 ? 4 : 3;
    for (int i = 0; i < count; ++i) {
      auto rep = std::make_unique<baselines::PbftReplicaProcess>();
      group.push_back(sim.Register(rep.get(), regions[z]));
      reps.push_back(std::move(rep));
    }
  }
  pbft::PbftConfig cfg;
  cfg.members = group;
  cfg.f = 3;
  cfg.request_timeout_us = Seconds(5);
  for (auto& rep : reps) {
    rep->Init(&keys, cfg, std::make_unique<pbft::EchoStateMachine>());
  }
  testutil::TestClient client(&keys, 3);
  sim.Register(&client, sim::kOhio);
  client.SubmitLocal(group[0], "geo-op");
  sim.RunFor(Seconds(2));
  EXPECT_EQ(client.completed(), 1u);
  // Quorum 7 of 10 spans at least two regions; latency is WAN-scale.
  for (auto& rep : reps) {
    auto& app = static_cast<pbft::EchoStateMachine&>(rep->app());
    EXPECT_LE(app.applied(), 1u);
  }
}

// ---- Certificate pricing, end to end ----------------------------------

TEST(CertificatePricingTest, ZiziphusChecksCostOneVerifyEach) {
  // Threshold signatures (DefaultNodeConfig): every remote certificate,
  // data sync's and migration's alike, costs one signature verification.
  // Three migrators hop twice each with every op traced. The check's CPU
  // is billed to the enclosing delivery's span, so a kCertVerify span's
  // duration, not its crypto_us, is the check's cost.
  core::ZiziphusSystem sys(1, sim::LatencyModel::PaperGeoMatrix());
  for (ZoneId z = 0; z < 3; ++z) {
    sys.AddZone(0, static_cast<RegionId>(z), 1, 4);
  }
  const core::NodeConfig cfg = app::DefaultNodeConfig();
  sys.Finalize(cfg, [](ZoneId) {
    return std::make_unique<BankStateMachine>();
  });
  obs::Tracer& tracer = sys.sim().recorder().tracer();
  tracer.set_enabled(true);
  app::harness::RosterSpec spec;
  spec.zones = 3;
  spec.migrators = 3;
  spec.migrations_per_client = 2;
  app::harness::Roster roster = app::harness::BuildRoster(sys, spec);
  ASSERT_TRUE(roster.Run(sys.sim(), Seconds(5), Seconds(30)));

  std::size_t sync_checks = 0, migration_checks = 0;
  for (obs::SpanId id = 1; id <= tracer.size(); ++id) {
    const obs::Span& s = tracer.at(id);
    if (s.kind != obs::SpanKind::kCertVerify) continue;
    EXPECT_EQ(s.duration(), cfg.costs.crypto.verify_us) << "span " << id;
    // Migration checks run in a delivery that carried STATE.
    obs::SpanId up = s.parent;
    while (up != 0 && tracer.at(up).kind != obs::SpanKind::kHandle) {
      up = tracer.at(up).parent;
    }
    ASSERT_NE(up, 0u) << "cert check outside a delivery: span " << id;
    const std::uint64_t type = tracer.at(up).attr;
    if (type == core::kStateTransfer || type == core::kMigrationManifest ||
        type == core::kMigrationChunk) {
      ++migration_checks;
    } else {
      ++sync_checks;
    }
  }
  EXPECT_GT(sync_checks, 0u);
  EXPECT_GT(migration_checks, 0u);
}

TEST(CertificatePricingTest, TwoLevelChecksCostOneVerifyPerSigner) {
  // The comparator's certificates are plain 2f+1 signature sets
  // (TwoLevelNodeConfig): a certificate from an f = 1 zone costs three
  // verifications, at the top level and in migration alike. Its top-level
  // batches carry no trace, so a traced run opens no span around either
  // check; instead a traced probe delivers one certified G-PREPARE and one
  // certified STATE from zone 1 to a zone-2 backup.
  baselines::TwoLevelSystem sys(1, sim::LatencyModel::PaperGeoMatrix());
  for (ZoneId z = 0; z < 3; ++z) {
    sys.AddZone(0, static_cast<RegionId>(z), 1, 4);
  }
  const baselines::TwoLevelNode::Config cfg = app::TwoLevelNodeConfig();
  sys.Finalize(cfg, [](ZoneId) {
    return std::make_unique<BankStateMachine>();
  });
  obs::Tracer& tracer = sys.sim().recorder().tracer();
  tracer.set_enabled(true);
  testutil::TestClient probe(&sys.keys(), 1);
  sys.sim().Register(&probe, 0);
  const NodeId to = sys.topology().zone(2).members[1];
  auto certify = [&](crypto::Digest digest) {
    crypto::Certificate cert{digest, {}};
    for (std::size_t i = 0; i < 3; ++i) {
      const NodeId signer = sys.topology().zone(1).members[i];
      cert.signatures.push_back(sys.keys().Sign(signer, digest));
    }
    return cert;
  };
  auto deliver = [&](sim::MessagePtr msg) {
    const std::size_t first = tracer.size() + 1;
    probe.set_trace_context(tracer.StartTrace(probe.id(), sys.sim().Now()));
    probe.Send(to, std::move(msg));
    sys.sim().RunFor(Seconds(1));
    std::vector<const obs::Span*> spans;
    for (obs::SpanId id = first; id <= tracer.size(); ++id) {
      if (tracer.at(id).node == to) spans.push_back(&tracer.at(id));
    }
    return spans;
  };
  const Duration verify3 = 3 * cfg.costs.crypto.verify_us;

  auto gprepare = std::make_shared<baselines::GPrepareMsg>();
  gprepare->request_id = 7;
  gprepare->gseq = 1;
  gprepare->zone = 1;
  gprepare->cert = certify(gprepare->digest());
  bool handled = false;
  for (const obs::Span* s : deliver(gprepare)) {
    if (s->kind != obs::SpanKind::kHandle) continue;
    // The top-level check is the handler's only work past dispatch.
    EXPECT_EQ(s->cpu_us, cfg.costs.base_handle_us + verify3);
    handled = true;
  }
  EXPECT_TRUE(handled);
  EXPECT_EQ(sys.sim().counters().Get(obs::CounterId::kTlBadGPrepareCert), 0u);

  auto state = std::make_shared<core::StateTransferMsg>();
  state->request_id = 9;
  state->client = probe.id();
  state->timestamp = 1;
  state->source_zone = 1;
  state->cert = certify(state->digest());
  std::size_t checks = 0;
  for (const obs::Span* s : deliver(state)) {
    if (s->kind != obs::SpanKind::kCertVerify) continue;
    EXPECT_EQ(s->duration(), verify3);
    ++checks;
  }
  EXPECT_EQ(checks, 1u);
  EXPECT_EQ(sys.sim().counters().Get(obs::CounterId::kMigBadStateCert), 0u);
}

}  // namespace
}  // namespace ziziphus
