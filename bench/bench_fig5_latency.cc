// Figure 5 — "Latency with increasing the number of zones".
//
// The latency view of the Figure 4 experiment at the saturation point the
// paper highlights (400 concurrent clients per zone): average / p50 / p99
// end-to-end latency per protocol, zone count and workload.
//
// Expected shape: Ziziphus lowest latency everywhere; two-level PBFT
// noticeably higher on global transactions (PBFT at the top level);
// Steward pays geo-scale latency on every transaction; flat PBFT latency
// explodes with the number of zones.

#include "app/experiment_config.h"
#include "benchmark/benchmark.h"

namespace ziziphus::bench {
using namespace app;  // bench helpers live in app/experiment_config.h
namespace {

void BM_Fig5(benchmark::State& state) {
  auto proto = static_cast<app::Protocol>(state.range(0));
  std::size_t zones = static_cast<std::size_t>(state.range(1));
  double global_pct = static_cast<double>(state.range(2));

  app::WorkloadSpec wl = BaseWorkload();
  wl.clients_per_zone = ClientsPerZone(400, 200);
  wl.mix.global_fraction = global_pct / 100.0;
  // Fig. 5 is the latency figure: trace every client operation so the JSON
  // export carries the per-phase critical-path decomposition alongside the
  // end-to-end numbers.
  app::ObsSpec obs;
  obs.trace = true;
  ReportCell(state, proto, app::PaperDeployment(zones), wl, {}, obs);
}

void RegisterAll() {
  const int protos[] = {
      static_cast<int>(app::Protocol::kZiziphus),
      static_cast<int>(app::Protocol::kTwoLevelPbft),
      static_cast<int>(app::Protocol::kSteward),
      static_cast<int>(app::Protocol::kFlatPbft),
  };
  for (int z : {3, 5, 7}) {
    for (int w : {10, 30, 50}) {
      for (int p : protos) {
        // Steward runs every transaction on the global path and flat PBFT
        // runs one zone with an all-local mix, so neither output depends
        // on the global fraction: register them once per zone count.
        const auto proto = static_cast<app::Protocol>(p);
        if (w != 10 && (proto == app::Protocol::kSteward ||
                        proto == app::Protocol::kFlatPbft)) {
          continue;
        }
        std::string name =
            "Fig5/" + std::string(app::ProtocolName(proto)) + "/zones:" +
            std::to_string(z) + "/global%:" + std::to_string(w);
        benchmark::RegisterBenchmark(name.c_str(), BM_Fig5)
            ->Args({p, z, w})
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
}

[[maybe_unused]] const bool registered = (RegisterAll(), true);

}  // namespace
}  // namespace ziziphus::bench

ZIZIPHUS_BENCH_MAIN("fig5");
