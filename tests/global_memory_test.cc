// Bounded global-op memory. Every global op runs several intra-zone
// endorsement rounds and, for a migration, the record transfer of
// Algorithm 2. The state that holds real work (live endorsement instances,
// unfinished migrations and the record sets they reference) must track the
// work in flight, and what finished work leaves behind must not grow with
// the number of ops either: execution dedup is a watermark per client and
// per chain, decided sync requests are erased, endorsement tombstones
// retire once settled, a client keeps one finished migration (its
// certified STATE at a source) per node, and a destination's durable
// marker of an appended migration retires at the stable checkpoint that
// covers the install. So every count below must be flat from a 1 s to a
// 4 s window.
// `ctest -L perf-smoke` runs this with tests_queue_memory.

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
  /// Execution dedup entries: client watermarks (one structure, the sync
  /// engine's durable slice) plus chain holes.
  std::size_t executed_bookkeeping = 0;
  /// Data-sync request entries, decided ones included.
  std::size_t sync_requests = 0;
  std::size_t migration_tombstones = 0;
  std::size_t state_caches = 0;
  /// Durable migration markers that carry a certified STATE (source side).
  std::size_t durable_state_markers = 0;
  /// Durable markers of appended migrations (destination side).
  std::size_t durable_appended_markers = 0;

  std::size_t& operator[](std::size_t i) {
    std::size_t* fields[] = {&endorse_live,          &endorse_tombstones,
                             &migrations_live,       &record_maps,
                             &executed_bookkeeping,  &sync_requests,
                             &migration_tombstones,  &state_caches,
                             &durable_state_markers, &durable_appended_markers};
    return *fields[i];
  }
  static constexpr std::size_t kFields = 10;
};

constexpr const char* kNames[Retained::kFields] = {
    "live endorsement instances", "endorsement tombstones",
    "unfinished migration states", "record maps held",
    "executed-op bookkeeping entries", "data-sync request entries",
    "migration tombstones", "source STATE caches",
    "durable markers holding a STATE", "durable appended markers"};

Retained Sum(core::ZiziphusSystem& sys) {
  Retained r;
  for (const auto& node : sys.nodes()) {
    core::ZoneEndorser::RetentionStats e = node->endorser().retention();
    core::MigrationEngine::RetentionStats m = node->migration().retention();
    core::DataSyncEngine::RetentionStats d = node->sync().retention();
    r.endorse_live += e.live;
    r.endorse_tombstones += e.tombstones;
    r.migrations_live += m.live;
    r.record_maps += m.record_maps;
    r.executed_bookkeeping += d.watermarked_clients + d.chain_holes;
    r.sync_requests += d.requests;
    r.migration_tombstones += m.tombstones;
    r.state_caches += m.state_caches;
    r.durable_appended_markers += m.durable_markers;
    for (const auto& [id, marker] : node->durable().migration.in_flight) {
      if (marker.state_msg != nullptr) ++r.durable_state_markers;
    }
  }
  return r;
}

/// Peak of each count, sampled every kSamplePeriod over a 2-zone
/// closed-loop Ziziphus run with 50% global ops (kWarmup plus `measure`).
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
    for (std::size_t i = 0; i < Retained::kFields; ++i) {
      peak[i] = std::max(peak[i], now[i]);
    }
  }
  std::uint64_t global = 0;
  for (const auto& c : clients) global += c->stats().global_completed;
  EXPECT_GT(global, 500u);  // the closed loop actually ran global ops
  return peak;
}

TEST(GlobalMemoryTest, InFlightStateDoesNotGrowWithTheWindow) {
  Retained short_run = PeakRetained(Seconds(1));
  Retained long_run = PeakRetained(Seconds(4));
  // The runs did global work of every kind measured here.
  EXPECT_GT(short_run.endorse_live, 0u);
  EXPECT_GT(short_run.migrations_live, 0u);
  EXPECT_GT(short_run.record_maps, 0u);
  EXPECT_GT(short_run.endorse_tombstones, 0u);
  EXPECT_GT(short_run.migration_tombstones, 0u);
  EXPECT_GT(short_run.state_caches, 0u);
  EXPECT_GT(short_run.durable_appended_markers, 0u);
  for (std::size_t i = 0; i < Retained::kFields; ++i) {
    EXPECT_LE(long_run[i], short_run[i] * 11 / 10)
        << kNames[i] << " peak at " << short_run[i]
        << " over a 1 s window but " << long_run[i] << " over 4 s";
  }
}

}  // namespace
}  // namespace ziziphus::app
