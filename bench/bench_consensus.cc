// Ordering race: stable leader vs the optimistic fast path, each at 0
// failures and again with f crashed backups per zone.
//
// Cells: consensus/<ordering>/failures:<k> for ordering in
// {stable, fast-path} and k in {0, f}. All Ziziphus, 3 zones, paper
// placement, identical workload — only the zone ordering and the fault
// load vary, so the latency columns are directly comparable.
//
// Expected shape: at 0 failures the fast path commits a slot on one
// FastVote round instead of prepare+commit, so its commit latency (and
// lat_p50_ms) comes in below the stable leader's. With f crashed backups
// unanimity is impossible and every fast round demotes to the certified
// fallback after the adaptive abandon timeout — throughput survives and
// latency degrades by a bounded factor rather than collapsing. The
// committed BENCH_consensus.json at the repo root is validated by the
// bench_consensus_committed ctest (schema, fast-path win at 0 failures,
// bounded degradation at f) and re-run live by bench_consensus_replay
// (the fresh export must match it byte for byte).

#include "app/experiment_config.h"
#include "benchmark/benchmark.h"
#include "pbft/ordering.h"

namespace ziziphus::bench {
using namespace app;  // bench helpers live in app/experiment_config.h
namespace {

void BM_Consensus(benchmark::State& state) {
  auto ordering = static_cast<pbft::Ordering>(state.range(0));
  auto crashed = static_cast<std::size_t>(state.range(1));

  ExperimentConfig cfg;
  cfg.workload = BaseWorkload();
  cfg.workload.clients_per_zone = ClientsPerZone(200, 100);
  cfg.workload.mix.global_fraction = 0.05;
  cfg.WithProtocol(Protocol::kZiziphus)
      .WithOrdering(ordering)
      .WithCrashedBackups(crashed);

  ExperimentResult r;
  for (auto _ : state) {
    r = cfg.Run();
  }
  std::ostringstream name;
  name << "consensus/" << pbft::OrderingName(ordering)
       << "/failures:" << crashed;
  ReportResult(state, name.str(), r);
}

void RegisterAll() {
  for (pbft::Ordering o : {pbft::Ordering::kStable, pbft::Ordering::kFastPath}) {
    for (std::size_t crashed : {std::size_t{0}, std::size_t{1}}) {
      std::string name = std::string("Consensus/") + pbft::OrderingName(o) +
                         "/crashed:" + std::to_string(crashed);
      benchmark::RegisterBenchmark(name.c_str(), BM_Consensus)
          ->Args({static_cast<long>(o), static_cast<long>(crashed)})
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

[[maybe_unused]] const bool registered = (RegisterAll(), true);

}  // namespace
}  // namespace ziziphus::bench

ZIZIPHUS_BENCH_MAIN("consensus");
