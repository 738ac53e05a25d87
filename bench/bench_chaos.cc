// Chaos-under-fire comparison: seeded randomized fault schedules (crashes,
// partitions, loss, duplication, delays, CPU slowdown) plus a Byzantine
// roster, run against Ziziphus and against the two-level PBFT baseline.
// Reported counters answer "how much does recovery cost": completion
// latency of the full workload, view changes, state transfers, and message
// overhead per seed. Any invariant violation aborts the benchmark — the
// harness doubles as a soak test.
//
// Each benchmark iteration uses a distinct seed (base + iteration index),
// so longer runs sweep more of the schedule space:
//   ./bench_chaos --benchmark_min_time=20x

#include <cstdlib>

#include "app/chaos.h"
#include "app/experiment_config.h"
#include "benchmark/benchmark.h"

namespace ziziphus {
namespace {

app::ChaosOptions OptionsFor(std::uint64_t seed, const benchmark::State& st) {
  // Start from the shared flag vocabulary (--crash-amnesia=, --think-ms=,
  // --fault-window-ms=); the sweep's cell shape and seed progression
  // override the per-cell knobs below.
  app::ChaosOptions opt = app::BenchConfig().chaos;
  opt.seed = seed;
  opt.zones = static_cast<std::size_t>(st.range(0));
  opt.byzantine_per_zone = static_cast<std::size_t>(st.range(1));
  if (app::SmokeSweep()) {
    opt.pairs_per_zone = 1;
    opt.xfers_per_client = 2;
    opt.migrators = 1;
    opt.migrations_per_client = 1;
    opt.client_think = Millis(200);
    opt.fault_window = Seconds(2);
    opt.drain = Seconds(2);
  }
  return opt;
}

/// Copies the summed run counters into the JSON collector.
void CollectCell(benchmark::State& state, const char* proto) {
  app::BenchCell cell;
  cell.name = std::string(proto) + "/zones:" + std::to_string(state.range(0)) +
              "/byz:" + std::to_string(state.range(1));
  for (const auto& [key, counter] : state.counters) {
    cell.metrics[key] = static_cast<double>(counter);
  }
  app::CollectedCells().push_back(std::move(cell));
}

void Tally(benchmark::State& state, const app::ChaosReport& r) {
  if (!r.ok()) {
    state.SkipWithError(r.Summary().c_str());
    return;
  }
  state.counters["end_time_s"] += static_cast<double>(r.end_time) / 1e6;
  state.counters["events"] += static_cast<double>(r.events);
  auto get = [&](const char* name) -> double {
    auto it = r.counters.find(name);
    return it == r.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  state.counters["view_changes"] += get("pbft.new_views_entered");
  state.counters["state_transfers"] += get("pbft.state_transfers");
  state.counters["msgs_sent"] += get("net.msgs_sent");
  state.counters["msgs_dropped"] += get("net.msgs_dropped");
  state.counters["crashes"] += get("faults.crashes");
  state.counters["byz_suppressed"] += get("byz.msgs_suppressed");
  state.counters["amnesia_crashes"] += get("faults.amnesia_crashes");
  state.counters["rejoins"] += get("recovery.rejoins");
  state.counters["st_retries"] += get("recovery.state_transfer_retries");
}

void BM_ZiziphusChaos(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    app::ChaosReport r = app::RunZiziphusChaos(OptionsFor(seed++, state));
    Tally(state, r);
    benchmark::DoNotOptimize(r.fingerprint);
  }
  CollectCell(state, "ziziphus");
}
BENCHMARK(BM_ZiziphusChaos)
    ->ArgNames({"zones", "byz"})
    ->Args({3, 0})
    ->Args({3, 1})
    ->Args({5, 1})
    ->Unit(benchmark::kMillisecond);

void BM_TwoLevelChaos(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    app::ChaosReport r = app::RunTwoLevelChaos(OptionsFor(seed++, state));
    Tally(state, r);
    benchmark::DoNotOptimize(r.fingerprint);
  }
  CollectCell(state, "two-level-pbft");
}
BENCHMARK(BM_TwoLevelChaos)
    ->ArgNames({"zones", "byz"})
    ->Args({3, 0})
    ->Args({5, 0})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ziziphus

ZIZIPHUS_BENCH_MAIN("chaos");
