// Scenario CLI: run a configurable Ziziphus (or baseline) deployment from
// the command line and print throughput/latency plus, when tracing is on,
// the critical-path decomposition of the traced operations — handy for
// exploring the design space beyond the fixed paper figures.
//
//   $ ./build/examples/scenario_cli --protocol=ziziphus --zones=5
//         --clients=200 --global=0.3 --clusters=1 --cross=0.0
//         --measure-ms=1500 --seed=7 --faults=1 --trace --json-out=obs.json
//
// Flags (all optional; the shared ExperimentConfig::FromFlags vocabulary):
//   --protocol=ziziphus|two-level-pbft|steward|flat-pbft
//   --zones=N           zones per cluster placement (paper regions)
//   --clusters=N        >1 switches to the clustered (Fig. 8) placement
//   --f=N               per-zone fault tolerance (zone size 3f+1)
//   --clients=N         closed-loop clients per zone
//   --global=F          fraction of global transactions (0..1)
//   --cross=F           fraction of globals that are cross-cluster (0..1)
//   --warmup-ms=N --measure-ms=N --seed=N
//   --faults=N          crashed backups per zone
//   --no-stable-leader  per-request leader election (Alg. 1 full form)
//   --ordering=stable|fast-path
//                       zone ordering: classic stable-primary PBFT (default)
//                       or the optimistic one-round FastVote path
//   --trace             causal tracing over the measurement window
//   --sample-every=N    trace every n-th client operation (default: all)
//   --json-out=PATH     write the Recorder's JSON export to PATH

#include <cstdio>
#include <cstring>

#include "app/experiment_config.h"

using namespace ziziphus;
using namespace ziziphus::app;

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::fprintf(stderr,
                   "usage: scenario_cli [--key=value ...] (see the header "
                   "comment for the flag vocabulary)\n");
      return 0;
    }
  }
  ExperimentConfig cfg = ExperimentConfig::FromFlags(argc, argv);
  std::printf("%s\n", cfg.ToString().c_str());

  ExperimentResult r = cfg.Run();

  std::printf("\n  %s\n", r.ToString().c_str());
  std::printf("  messages during measurement: %llu\n",
              static_cast<unsigned long long>(r.messages_sent));
  if (r.traces_completed > 0) {
    std::printf("\n  critical path over %llu traced ops (avg ms):\n",
                static_cast<unsigned long long>(r.traces_completed));
    std::printf("    total %.3f = wan %.3f + lan %.3f + queue %.3f + "
                "crypto %.3f\n",
                r.trace_total_ms, r.trace_wan_ms, r.trace_lan_ms,
                r.trace_queue_ms, r.trace_crypto_ms);
    for (const auto& [label, ms] : r.trace_phase_ms) {
      std::printf("      + %-22s %.3f\n", label.c_str(), ms);
    }
  }
  if (!cfg.obs.json_out.empty()) {
    std::printf("  observability export: %s\n", cfg.obs.json_out.c_str());
  }
  return 0;
}
