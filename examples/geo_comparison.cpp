// Protocol comparison at a glance: runs the paper's four systems on the
// same three-zone geo deployment and workload, printing one row per
// protocol (a miniature of Figures 4/5; the bench/ binaries produce the
// full sweeps).
//
//   $ ./build/examples/geo_comparison [--clients=N] [--global=F]
//         [--zones=N] [--seed=N] [--trace]
//
// Exits 1 if the rows miss the expected shape printed at the end (ctest
// runs it with the defaults as example_geo_comparison).

#include <cstdio>

#include "app/experiment_config.h"

using namespace ziziphus;
using namespace ziziphus::app;

int main(int argc, char** argv) {
  ExperimentConfig cfg = ExperimentConfig::FromFlags(argc, argv)
                             .WithWarmup(Millis(600))
                             .WithMeasure(Seconds(1));
  if (argc <= 1) cfg.WithClients(200).WithGlobalFraction(0.1);

  std::printf(
      "%zu zones, %zu clients/zone, %.0f%% global transactions\n\n",
      cfg.zones, cfg.workload.clients_per_zone,
      cfg.workload.mix.global_fraction * 100);
  std::printf("%-16s %10s %10s %10s %12s %12s\n", "protocol", "ktps",
              "avg ms", "p99 ms", "local ms", "global ms");

  double ktps[4] = {};
  int row = 0;
  for (Protocol p : {Protocol::kZiziphus, Protocol::kTwoLevelPbft,
                     Protocol::kSteward, Protocol::kFlatPbft}) {
    ExperimentResult r = cfg.WithProtocol(p).Run();
    ktps[row++] = r.throughput_tps / 1000.0;
    std::printf("%-16s %10.1f %10.1f %10.1f %12.1f %12.1f\n",
                ProtocolName(p), r.throughput_tps / 1000.0, r.avg_latency_ms,
                r.p99_ms, r.local_avg_ms, r.global_avg_ms);
    if (r.traces_completed > 0) {
      std::printf("  traced %llu ops: %.2f ms = wan %.2f + lan %.2f + queue "
                  "%.2f + crypto %.2f + phases\n",
                  static_cast<unsigned long long>(r.traces_completed),
                  r.trace_total_ms, r.trace_wan_ms, r.trace_lan_ms,
                  r.trace_queue_ms, r.trace_crypto_ms);
    }
  }
  std::printf(
      "\nExpected shape (paper Fig. 4/5): ziziphus best, two-level-pbft\n"
      "close behind, steward and flat-pbft far below with geo-scale\n"
      "latencies on every transaction.\n");
  // Best, then close behind, then both flat protocols at under half the
  // two-level rate.
  const bool ok = ktps[0] > ktps[1] && 2 * ktps[2] < ktps[1] &&
                  2 * ktps[3] < ktps[1];
  if (!ok) std::printf("FAILED: the rows above miss that shape\n");
  return ok ? 0 : 1;
}
