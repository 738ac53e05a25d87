// Long-horizon soak: memory bounds and rejoin cost.
//
// Two experiments, exported to BENCH_soak.json ("ziziphus.bench.v1"):
//
//  1. soak/trim:{on,off} — a diurnal-wave workload with flash crowds,
//     one regional outage and amnesia crash/recover pairs, sampling the
//     fleet's retention-bounded bytes (PBFT logs/proofs/caches + data-sync
//     ballot state) throughout. With checkpoint-anchored trimming on, the
//     heap high-water curve must plateau (plateau_ratio ~ 1); with it off,
//     the same schedule grows without bound (the control arm).
//
//  2. rejoin/records:N/delta:{on,off} — time-to-rejoin of an amnesiac
//     replica versus the size of its zone's state, under delta versus
//     full-snapshot state transfer. Delta ships only the missed ops, so
//     its time-to-rejoin stays flat while the snapshot arm grows with N.
//
//   ZIZIPHUS_BENCH_JSON=BENCH_soak.json ./bench_soak

#include "app/experiment_config.h"
#include "app/soak.h"
#include "benchmark/benchmark.h"

namespace ziziphus::bench {
using namespace app;  // bench helpers live in app/experiment_config.h
namespace {

SoakOptions SoakFor(bool trim) {
  SoakOptions opt;
  opt.seed = BenchConfig().workload.seed;
  opt.trim_at_checkpoint = trim;
  opt.compact_sync = trim;
  if (SmokeSweep()) {
    opt.schedule.horizon = Seconds(12);
    opt.schedule.wave_period = Seconds(4);
    opt.schedule.flash_crowds = 1;
    opt.schedule.flash_length = Millis(800);
    opt.schedule.regional_outages = 0;
    opt.schedule.amnesia_crashes = 1;
    opt.sample_period = Millis(500);
    opt.base_think = Millis(250);
    opt.pairs_per_zone = 1;
    opt.migrators = 1;
    opt.migrations_per_client = 1;
    opt.migrator_records = 100;
    opt.checkpoint_interval = 16;
  } else if (FullSweep()) {
    opt.schedule.horizon = Seconds(300);
    opt.schedule.flash_crowds = 5;
    opt.schedule.regional_outages = 2;
    opt.schedule.amnesia_crashes = 4;
  }
  return opt;
}

void BM_Soak(benchmark::State& state) {
  const bool trim = state.range(0) != 0;
  SoakReport r;
  for (auto _ : state) {
    r = RunZiziphusSoak(SoakFor(trim));
  }
  if (!r.ok()) {
    state.SkipWithError(r.Summary().c_str());
    return;
  }
  auto get = [&](const char* name) -> double {
    auto it = r.counters.find(name);
    return it == r.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  BenchCell cell;
  cell.name = std::string("soak/trim:") + (trim ? "on" : "off");
  auto put = [&](const char* key, double v) {
    state.counters[key] = v;
    cell.metrics[key] = v;
  };
  put("high_water_kb", static_cast<double>(r.high_water_live_bytes) / 1024.0);
  put("final_kb", static_cast<double>(r.final_live_bytes) / 1024.0);
  put("plateau_ratio", r.PlateauRatio());
  put("samples", static_cast<double>(r.samples.size()));
  put("local_ops", static_cast<double>(r.local_completed));
  put("global_ops", static_cast<double>(r.global_completed));
  put("log_trims", get("pbft.log_trims"));
  put("reply_evictions", get("pbft.reply_cache_evictions"));
  put("sync_compacted", get("sync.requests_compacted"));
  put("delta_transfers", get("pbft.delta_transfers"));
  put("full_transfers", get("pbft.full_transfers"));
  put("chunked_migrations", get("mig.chunked_transfers"));
  put("rejoins", get("recovery.rejoins"));
  CollectedCells().push_back(std::move(cell));
}
BENCHMARK(BM_Soak)
    ->ArgNames({"trim"})
    ->Args({1})
    ->Args({0})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_Rejoin(benchmark::State& state) {
  RejoinProbeOptions opt;
  opt.records = static_cast<std::size_t>(state.range(0));
  opt.delta_state_transfer = state.range(1) != 0;
  opt.seed = BenchConfig().workload.seed;
  if (SmokeSweep()) {
    opt.warmup = Millis(800);
    opt.outage = Millis(800);
  }
  RejoinProbeResult r;
  for (auto _ : state) {
    r = RunRejoinProbe(opt);
  }
  if (!r.caught_up) {
    state.SkipWithError("victim did not catch up");
    return;
  }
  BenchCell cell;
  cell.name = "rejoin/records:" + std::to_string(opt.records) +
              "/delta:" + (opt.delta_state_transfer ? "on" : "off");
  auto put = [&](const char* key, double v) {
    state.counters[key] = v;
    cell.metrics[key] = v;
  };
  put("ttr_ms", static_cast<double>(r.time_to_rejoin) / 1000.0);
  put("transfer_kb", static_cast<double>(r.transfer_bytes) / 1024.0);
  put("delta_transfers", static_cast<double>(r.delta_transfers));
  put("full_transfers", static_cast<double>(r.full_transfers));
  put("caught_up", r.caught_up ? 1.0 : 0.0);
  CollectedCells().push_back(std::move(cell));
}
BENCHMARK(BM_Rejoin)
    ->ArgNames({"records", "delta"})
    ->Args({512, 1})
    ->Args({512, 0})
    ->Args({4096, 1})
    ->Args({4096, 0})
    ->Args({16384, 1})
    ->Args({16384, 0})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ziziphus::bench

ZIZIPHUS_BENCH_MAIN("soak");
