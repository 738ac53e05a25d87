// Property-based suites (parameterized gtest): invariants that must hold
// across seeds, zone counts and workload mixes.
//
//   1. Replica agreement  — every node of a zone ends with the same local
//      application state; every node of the deployment ends with the same
//      meta-data digest.
//   2. Money conservation — migrations move balances between zones but the
//      system-wide total is invariant.
//   3. Exactly-once       — each migration executes exactly once per node
//      regardless of retransmissions.
//   4. Determinism        — the same seed reproduces the same results.

#include <memory>
#include <tuple>

#include "app/bank.h"
#include "app/experiment.h"
#include "core/system.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace ziziphus {
namespace {

using app::BankStateMachine;

struct Params {
  std::uint64_t seed;
  std::size_t zones;
  std::size_t clients;
  double global_fraction;
};

class ConvergenceProperty : public ::testing::TestWithParam<Params> {};

TEST_P(ConvergenceProperty, StateAndMetadataConverge) {
  const Params p = GetParam();
  core::ZiziphusSystem sys(p.seed, sim::LatencyModel::PaperGeoMatrix());
  for (std::size_t z = 0; z < p.zones; ++z) {
    sys.AddZone(0, static_cast<RegionId>(z % 7), 1, 4);
  }
  core::NodeConfig cfg;
  cfg.pbft.request_timeout_us = Seconds(3);
  sys.Finalize(cfg,
               [](ZoneId) { return std::make_unique<BankStateMachine>(); });

  std::vector<std::unique_ptr<testutil::TestClient>> clients;
  Rng rng(p.seed);
  std::int64_t total_seeded = 0;
  for (std::size_t i = 0; i < p.clients; ++i) {
    clients.push_back(
        std::make_unique<testutil::TestClient>(&sys.keys(), 1));
    sys.sim().Register(clients.back().get(), 0);
    std::int64_t balance = 100 + static_cast<std::int64_t>(i) * 10;
    total_seeded += balance;
    sys.BootstrapClient(
        clients.back()->id(), static_cast<ZoneId>(i % p.zones),
        [balance](ClientId id) {
          return storage::KvStore::Map{
              {BankStateMachine::AccountKey(id), std::to_string(balance)}};
        });
  }

  // Random mix of local deposits and migrations, two waves.
  std::vector<ZoneId> homes(p.clients);
  for (std::size_t i = 0; i < p.clients; ++i) {
    homes[i] = static_cast<ZoneId>(i % p.zones);
  }
  for (int wave = 0; wave < 2; ++wave) {
    for (std::size_t i = 0; i < p.clients; ++i) {
      if (rng.NextBool(p.global_fraction)) {
        ZoneId dst = static_cast<ZoneId>(rng.NextBounded(p.zones));
        if (dst == homes[i]) dst = static_cast<ZoneId>((dst + 1) % p.zones);
        clients[i]->SubmitGlobal(sys.PrimaryOf(0)->id(), homes[i], dst);
        homes[i] = dst;
      } else {
        clients[i]->SubmitLocal(sys.PrimaryOf(homes[i])->id(), "DEP 1");
      }
    }
    sys.sim().RunFor(Seconds(4));
  }
  sys.sim().RunFor(Seconds(4));

  // (1) Per-zone application state agreement.
  for (ZoneId z = 0; z < p.zones; ++z) {
    std::uint64_t digest =
        static_cast<BankStateMachine&>(sys.Member(z, 0)->app()).StateDigest();
    for (std::size_t m = 1; m < 4; ++m) {
      EXPECT_EQ(static_cast<BankStateMachine&>(sys.Member(z, m)->app())
                    .StateDigest(),
                digest)
          << "zone " << z << " member " << m;
    }
  }
  // (1b) Deployment-wide meta-data agreement.
  std::uint64_t md = sys.nodes()[0]->metadata().StateDigest();
  for (const auto& node : sys.nodes()) {
    EXPECT_EQ(node->metadata().StateDigest(), md) << "node " << node->id();
  }
  // (2) Conservation: sum of balances of each client's *current* home zone
  // equals seeded totals plus deposits that completed.
  std::int64_t located = 0;
  std::uint64_t deposits = 0;
  for (std::size_t i = 0; i < p.clients; ++i) {
    ClientId c = clients[i]->id();
    ZoneId home = sys.nodes()[0]->metadata().HomeOf(c);
    auto& bank = static_cast<BankStateMachine&>(sys.Member(home, 0)->app());
    std::int64_t bal = bank.BalanceOf(c);
    EXPECT_GE(bal, 0) << "client " << c << " missing at home zone " << home;
    if (bal > 0) located += bal;
    deposits += clients[i]->completed();
  }
  EXPECT_EQ(located, total_seeded + static_cast<std::int64_t>(deposits));
  // (3) Exactly-once: executed_count on each node never exceeds the number
  // of distinct migrations.
  for (const auto& node : sys.nodes()) {
    EXPECT_LE(node->metadata().executed_count(), 2 * p.clients);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvergenceProperty,
    ::testing::Values(Params{1, 3, 6, 0.5}, Params{2, 3, 10, 0.3},
                      Params{3, 5, 8, 0.5}, Params{7, 3, 12, 0.2},
                      Params{11, 7, 7, 0.5}, Params{13, 5, 12, 0.4},
                      Params{17, 3, 16, 0.6}, Params{23, 4, 9, 0.3}),
    [](const ::testing::TestParamInfo<Params>& info) {
      return "seed" + std::to_string(info.param.seed) + "_zones" +
             std::to_string(info.param.zones) + "_clients" +
             std::to_string(info.param.clients);
    });

class DeterminismProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DeterminismProperty, SameSeedSameResult) {
  auto [proto_int, seed] = GetParam();
  app::WorkloadSpec wl;
  wl.clients_per_zone = 8;
  wl.warmup = Millis(300);
  wl.measure = Millis(500);
  wl.seed = static_cast<std::uint64_t>(seed);
  auto proto = static_cast<app::Protocol>(proto_int);
  auto a = app::RunExperiment(proto, app::PaperDeployment(3), wl);
  auto b = app::RunExperiment(proto, app::PaperDeployment(3), wl);
  EXPECT_EQ(a.local_ops, b.local_ops);
  EXPECT_EQ(a.global_ops, b.global_ops);
  EXPECT_DOUBLE_EQ(a.avg_latency_ms, b.avg_latency_ms);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, DeterminismProperty,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(5, 99)));

class HistogramProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistogramProperty, QuantilesAreMonotoneAndBounded) {
  Rng rng(GetParam());
  Histogram h;
  for (int i = 0; i < 5000; ++i) {
    h.Record(rng.NextBounded(1000000) + 1);
  }
  double prev = 0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    double v = h.Quantile(q);
    EXPECT_GE(v, prev);
    EXPECT_GE(v + 1e-9, static_cast<double>(h.min()));
    EXPECT_LE(v, static_cast<double>(h.max()) + 1e-9);
    prev = v;
  }
  // Log-bucketing error is bounded (~25% relative per bucket).
  EXPECT_NEAR(h.Quantile(0.5), 500000, 150000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

class KvDigestProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KvDigestProperty, DigestIsPermutationInvariant) {
  Rng rng(GetParam());
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 200; ++i) {
    entries.emplace_back("k" + std::to_string(rng.NextBounded(100)),
                         "v" + std::to_string(rng.Next() % 1000));
  }
  storage::KvStore forward, shuffled;
  for (const auto& [k, v] : entries) forward.Put(k, v);
  // Apply in a different order; last-write-wins per key must still agree
  // when the final values are equal. Build the final map first.
  auto final_map = forward.Snapshot();
  std::vector<std::pair<std::string, std::string>> perm(final_map.begin(),
                                                        final_map.end());
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
  }
  for (const auto& [k, v] : perm) shuffled.Put(k, v);
  EXPECT_EQ(forward.StateDigest(), shuffled.StateDigest());
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvDigestProperty,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace ziziphus
