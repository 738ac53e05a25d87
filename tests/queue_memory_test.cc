// Bounded scheduler memory. Every closed-loop client arms an 8 s retry
// timer per op and cancels it on completion; if cancelled timers stayed in
// the event queue until their deadline, the queue would grow with the
// measure window up to the retry horizon. The live depth the simulator
// samples must instead track the work in flight, whatever the window.
// `ctest -L perf-smoke` runs this with tests_global_memory.

#include <memory>
#include <vector>

#include "app/bank.h"
#include "app/client.h"
#include "app/experiment.h"
#include "core/system.h"
#include "gtest/gtest.h"

namespace ziziphus::app {
namespace {

/// Past the start-up burst, where the peak sits. Destinations cancel their
/// 2 s migration state-wait timer at append and data sync cancels its
/// chain-skip guards once a request executes, so no finished op leaves a
/// timer behind and the live depth is flat after this.
constexpr Duration kWarmup = Seconds(3);

/// Peak sampled `sim.queue_depth` of a 2-zone closed-loop Ziziphus run
/// (10% global ops, 8 s client retry) over kWarmup plus `measure`.
std::uint64_t PeakQueueDepth(Duration measure) {
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
      cc.mix.global_fraction = 0.1;
      cc.retry_timeout = Seconds(8);
      clients.push_back(std::make_unique<MobileClient>(std::move(cc)));
      NodeId id = sys.sim().Register(clients.back().get(), dep.zones[z].region);
      sys.BootstrapClient(id, static_cast<ZoneId>(z), [](ClientId c) {
        return storage::KvStore::Map{{BankStateMachine::AccountKey(c), "1000"}};
      });
    }
  }
  for (auto& c : clients) c->Start(sys.sim().rng().NextBounded(2000));
  sys.sim().RunUntil(kWarmup + measure);
  std::uint64_t completed = 0;
  for (const auto& c : clients) {
    completed += c->stats().local_completed + c->stats().global_completed;
  }
  EXPECT_GT(completed, 1000u);  // the closed loop actually ran
  return sys.sim()
      .recorder()
      .histogram(obs::HistogramId::kSimQueueDepth)
      .max();
}

TEST(QueueMemoryTest, PeakLiveDepthDoesNotGrowWithTheWindow) {
  const std::uint64_t short_run = PeakQueueDepth(Seconds(1));
  const std::uint64_t long_run = PeakQueueDepth(Seconds(4));
  EXPECT_LE(long_run, short_run * 11 / 10)
      << "peak queue depth " << short_run << " over a 1 s window but "
      << long_run << " over 4 s";
}

}  // namespace
}  // namespace ziziphus::app
