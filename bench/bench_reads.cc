// Read-heavy mixes over the verified edge-read fast path.
//
// Cells: 90/10 and 99/1 read/write mixes, each run twice — once over the
// certified single-replica fast path ("fast") and once with every read
// forced through a full BAL transaction ("txn-path", the control arm) —
// plus the all-transaction baseline (read_fraction 0) and one causal-mode
// cell. All Ziziphus, 3 zones, paper placement.
//
// Expected shape: a fast-path read costs one request/reply exchange with a
// single replica plus client-side certificate verification, while the
// txn-path control pays full PBFT ordering for every read; committed
// ops/sec at 90/10 should come out well above 2x the control. The
// committed BENCH_reads.json at the repo root is validated by the
// bench_reads_committed ctest (schema + the 2x ratio).
//
// Reads anchor on stable checkpoints, so this bench tightens the
// checkpoint interval (2 vs the default 256): with the default, a short
// run would leave replicas with no anchor and every read would fall back,
// measuring nothing but the control arm twice.

#include "app/experiment_config.h"
#include "benchmark/benchmark.h"

namespace ziziphus::bench {
using namespace app;  // bench helpers live in app/experiment_config.h
namespace {

core::NodeConfig ReadBenchConfig() {
  core::NodeConfig cfg = app::DefaultNodeConfig();
  // The interval counts sequence numbers (batches), not ops; with 64-op
  // batches under hundreds of clients an interval of 2 anchors roughly
  // every 128 ops. Anchor cadence bounds how long a freshly written
  // session stays uncovered, i.e. how many reads redirect per write.
  cfg.pbft.checkpoint_interval = 2;
  return cfg;
}

/// Runs one cell through RunExperimentWithConfig (the tight checkpoint
/// interval) and names it with an explicit arm tag so the JSON validator
/// can tell "fast" from "txn-path" apart.
void ReportReadCell(benchmark::State& state, const app::WorkloadSpec& wl,
                    const char* arm) {
  app::DeploymentSpec dep = app::PaperDeployment(3);
  app::ExperimentResult r;
  for (auto _ : state) {
    r = app::RunExperimentWithConfig(app::Protocol::kZiziphus, dep, wl,
                                     ReadBenchConfig());
  }
  std::ostringstream name;
  name << "ziziphus/zones:3/f:" << dep.f << "/clients:" << wl.clients_per_zone
       << "/global:" << std::lround(wl.mix.global_fraction * 100);
  if (wl.mix.read_fraction > 0) {
    name << "/reads:" << std::lround(wl.mix.read_fraction * 100);
  }
  name << "/" << arm;
  if (wl.causal) name << "/causal";
  ReportResult(state, name.str(), r);
}

void BM_Reads(benchmark::State& state) {
  int read_pct = static_cast<int>(state.range(0));
  bool verified = state.range(1) != 0;
  bool causal = state.range(2) != 0;

  app::WorkloadSpec wl = BaseWorkload();
  wl.clients_per_zone = ClientsPerZone(200, 100);
  wl.mix.read_fraction = read_pct / 100.0;
  wl.mix.global_fraction = 0.05;
  wl.verified_reads = verified;
  wl.causal = causal;
  ReportReadCell(state, wl,
                 read_pct == 0 ? "all-txn" : (verified ? "fast" : "txn-path"));
}

void RegisterOne(const std::string& name, int read_pct, bool verified,
                 bool causal) {
  benchmark::RegisterBenchmark(name.c_str(), BM_Reads)
      ->Args({read_pct, verified ? 1 : 0, causal ? 1 : 0})
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

void RegisterAll() {
  for (int pct : {90, 99}) {
    RegisterOne("Reads/mix:" + std::to_string(pct) + "/fast", pct,
                /*verified=*/true, /*causal=*/false);
    RegisterOne("Reads/mix:" + std::to_string(pct) + "/txn-path", pct,
                /*verified=*/false, /*causal=*/false);
  }
  // The write-only baseline the read mixes are compared against.
  RegisterOne("Reads/mix:0/all-txn", 0, /*verified=*/true, /*causal=*/false);
  // Causal sessions: floor vectors ride on writes; same fast path.
  RegisterOne("Reads/mix:90/fast/causal", 90, /*verified=*/true,
              /*causal=*/true);
}

[[maybe_unused]] const bool registered = (RegisterAll(), true);

}  // namespace
}  // namespace ziziphus::bench

ZIZIPHUS_BENCH_MAIN("reads");
