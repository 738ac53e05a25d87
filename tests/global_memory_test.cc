// Bounded global-op memory. Every global op runs several intra-zone
// endorsement rounds and, for a migration, the record transfer of
// Algorithm 2. Once an instance is finished at a node only a fixed-size
// tombstone may stay behind, so the per-node state that holds real work
// (live endorsement instances, unfinished migrations and the record sets
// they reference) must track the work in flight, whatever the window.
// `ctest -L perf-smoke` runs this with tests_queue_memory and the
// bench_simperf smoke pair.

#include <algorithm>
#include <memory>
#include <vector>

#include "app/bank.h"
#include "app/client.h"
#include "app/experiment.h"
#include "core/system.h"
#include "gtest/gtest.h"

namespace ziziphus::app {
namespace {

/// Warm-up past the start-up burst, as in tests_queue_memory.
constexpr Duration kWarmup = Seconds(3);
constexpr Duration kSamplePeriod = Millis(10);

struct Retained {
  std::size_t endorse_live = 0;
  std::size_t endorse_tombstones = 0;
  std::size_t migrations_live = 0;
  std::size_t record_maps = 0;
};

Retained Sum(core::ZiziphusSystem& sys) {
  Retained r;
  for (const auto& node : sys.nodes()) {
    core::ZoneEndorser::RetentionStats e = node->endorser().retention();
    core::MigrationEngine::RetentionStats m = node->migration().retention();
    r.endorse_live += e.live;
    r.endorse_tombstones += e.tombstones;
    r.migrations_live += m.live;
    r.record_maps += m.record_maps;
  }
  return r;
}

/// Peak of each live count, sampled every kSamplePeriod over a 2-zone
/// closed-loop Ziziphus run with 50% global ops (kWarmup plus `measure`);
/// `endorse_tombstones` is the count at the end.
Retained PeakRetained(Duration measure) {
  constexpr std::size_t kZones = 2;
  constexpr std::size_t kClientsPerZone = 20;
  DeploymentSpec dep = PaperDeployment(kZones);
  core::ZiziphusSystem sys(7, sim::LatencyModel::PaperGeoMatrix());
  for (const auto& z : dep.zones) {
    sys.AddZone(z.cluster, z.region, dep.f, dep.nodes_per_zone());
  }
  sys.Finalize(DefaultNodeConfig(),
               [](ZoneId) { return std::make_unique<BankStateMachine>(); });
  std::vector<std::unique_ptr<MobileClient>> clients;
  for (std::size_t z = 0; z < kZones; ++z) {
    for (std::size_t i = 0; i < kClientsPerZone; ++i) {
      MobileClient::Config cc;
      cc.topology = &sys.topology();
      cc.keys = &sys.keys();
      cc.home = static_cast<ZoneId>(z);
      cc.mix.global_fraction = 0.5;
      cc.retry_timeout = Seconds(8);
      clients.push_back(std::make_unique<MobileClient>(std::move(cc)));
      NodeId id = sys.sim().Register(clients.back().get(), dep.zones[z].region);
      sys.BootstrapClient(id, static_cast<ZoneId>(z), [](ClientId c) {
        return storage::KvStore::Map{{BankStateMachine::AccountKey(c), "1000"}};
      });
    }
  }
  for (auto& c : clients) c->Start(sys.sim().rng().NextBounded(2000));
  Retained peak;
  for (SimTime t = kSamplePeriod; t <= kWarmup + measure; t += kSamplePeriod) {
    sys.sim().RunUntil(t);
    Retained now = Sum(sys);
    peak.endorse_live = std::max(peak.endorse_live, now.endorse_live);
    peak.migrations_live = std::max(peak.migrations_live, now.migrations_live);
    peak.record_maps = std::max(peak.record_maps, now.record_maps);
    peak.endorse_tombstones = now.endorse_tombstones;
  }
  std::uint64_t global = 0;
  for (const auto& c : clients) global += c->stats().global_completed;
  EXPECT_GT(global, 500u);  // the closed loop actually ran global ops
  return peak;
}

TEST(GlobalMemoryTest, InFlightStateDoesNotGrowWithTheWindow) {
  const Retained short_run = PeakRetained(Seconds(1));
  const Retained long_run = PeakRetained(Seconds(4));
  // The runs did global work, and the history the longer one finished is
  // visible as tombstones — only the live state must stay flat.
  EXPECT_GT(short_run.endorse_live, 0u);
  EXPECT_GT(short_run.migrations_live, 0u);
  EXPECT_GT(short_run.record_maps, 0u);
  EXPECT_GT(long_run.endorse_tombstones, short_run.endorse_tombstones);
  EXPECT_LE(long_run.endorse_live, short_run.endorse_live * 11 / 10)
      << "live endorsement instances peak at " << short_run.endorse_live
      << " over a 1 s window but " << long_run.endorse_live << " over 4 s";
  EXPECT_LE(long_run.migrations_live, short_run.migrations_live * 11 / 10)
      << "unfinished migration states peak at " << short_run.migrations_live
      << " over a 1 s window but " << long_run.migrations_live << " over 4 s";
  EXPECT_LE(long_run.record_maps, short_run.record_maps * 11 / 10)
      << "record maps held peak at " << short_run.record_maps
      << " over a 1 s window but " << long_run.record_maps << " over 4 s";
}

}  // namespace
}  // namespace ziziphus::app
