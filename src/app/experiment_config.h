#ifndef ZIZIPHUS_APP_EXPERIMENT_CONFIG_H_
#define ZIZIPHUS_APP_EXPERIMENT_CONFIG_H_

#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "app/chaos.h"
#include "app/experiment.h"
#include "obs/recorder.h"

namespace ziziphus::app {

/// One experiment cell — protocol, deployment shape, workload, faults,
/// chaos and observability knobs — as a single value shared by the bench/
/// and examples/ binaries. Build fluently:
///
///   ExperimentResult r = ExperimentConfig{}
///                            .WithProtocol(Protocol::kZiziphus)
///                            .WithZones(5)
///                            .WithGlobalFraction(0.3)
///                            .WithTracing()
///                            .Run();
///
/// or from the command line: FromFlags(argc, argv) understands the
/// `--key=value` vocabulary below and rejects flags it does not know;
/// bench binaries use ConsumeFlags, which leaves google-benchmark's
/// `--benchmark_*` flags in argv, so every binary shares one flag language.
struct ExperimentConfig {
  Protocol protocol = Protocol::kZiziphus;
  std::size_t zones = 3;     // zones (per cluster when clusters > 1)
  std::size_t clusters = 1;  // > 1 selects the Fig. 8 clustered placement
  std::size_t f = 1;         // per-zone fault tolerance (3f+1 nodes)
  bool stable_leader = true;  // Alg. 1 stable-leader optimization
  /// Zone ordering (stable | fast-path); fast-path also runs the
  /// EWMA-driven adaptive progress timer.
  pbft::Ordering ordering = pbft::Ordering::kStable;
  WorkloadSpec workload;
  FaultSpec faults;
  ChaosOptions chaos;  // chaos-schedule knobs (chaos binaries only)
  ObsSpec obs;

  // ---- Fluent builder --------------------------------------------------

  ExperimentConfig& WithProtocol(Protocol p) {
    protocol = p;
    return *this;
  }
  ExperimentConfig& WithZones(std::size_t z) {
    zones = z;
    return *this;
  }
  ExperimentConfig& WithOrdering(pbft::Ordering o) {
    ordering = o;
    chaos.ordering = o;  // one flag drives both harnesses
    return *this;
  }
  ExperimentConfig& WithClients(std::size_t per_zone) {
    workload.clients_per_zone = per_zone;
    return *this;
  }
  ExperimentConfig& WithGlobalFraction(double frac) {
    workload.mix.global_fraction = frac;
    return *this;
  }
  ExperimentConfig& WithWarmup(Duration d) {
    workload.warmup = d;
    return *this;
  }
  ExperimentConfig& WithMeasure(Duration d) {
    workload.measure = d;
    return *this;
  }
  ExperimentConfig& WithSeed(std::uint64_t seed) {
    workload.seed = seed;
    return *this;
  }
  ExperimentConfig& WithCrashedBackups(std::size_t per_zone) {
    faults.crashed_backups_per_zone = per_zone;
    return *this;
  }
  ExperimentConfig& WithTracing(bool on = true) {
    obs.trace = on;
    return *this;
  }
  ExperimentConfig& WithTraceSampling(std::uint64_t every) {
    obs.sample_every = every;
    return *this;
  }
  ExperimentConfig& WithJsonOut(std::string path) {
    obs.json_out = std::move(path);
    return *this;
  }

  // ---- Derived views ---------------------------------------------------

  /// The deployment implied by zones / clusters / f.
  DeploymentSpec Deployment() const;

  /// One-line human-readable description of the cell.
  std::string ToString() const;

  /// Runs this cell (RunExperimentWithConfig under the hood); trace
  /// aggregates are filled when `obs.trace` is set.
  ExperimentResult Run() const;

  /// Applies one `--key=value` argument to this config; returns false when
  /// the flag is not part of the shared vocabulary (caller decides whether
  /// to ignore, keep, or reject it).
  bool ApplyFlag(const char* arg);

  /// Parses `--key=value` flags: --protocol= --zones= --clusters= --f=
  /// --clients= --global= --cross= --reads= --verified-reads=0|1 --causal
  /// --warmup-ms= --measure-ms= --seed= --faults=
  /// --no-stable-leader --trace[=0|1] --sample-every= --json-out=
  /// --byzantine= --think-ms= --fault-window-ms= --crash-amnesia=N
  /// (amnesia crash/recover pairs in the chaos timeline)
  /// --ordering=stable|fast-path --byz-forge-reads[=0|1]
  /// --latency-flaps=N. An unknown flag prints "unknown flag: ..." and
  /// exits with status 2, so a typo never silently runs another cell.
  static ExperimentConfig FromFlags(int argc, char** argv);

  /// In-place variant for binaries whose flag framework rejects unknown
  /// arguments (google-benchmark's ReportUnrecognizedArguments): applies
  /// every recognized flag on top of the current values and compacts argv
  /// so only the unrecognized ones remain.
  ExperimentConfig& ConsumeFlags(int* argc, char** argv);
};

// ---- Bench support (formerly bench/bench_util.h) -----------------------
//
// Shared sweep-scaling, flag handling and machine-readable export for the
// bench/ binaries. Lives here so every binary shares one flag language and
// one "ziziphus.bench.v1" writer; the google-benchmark dependency is kept
// out of this header by templating the reporters on the State type.

/// Set ZIZIPHUS_BENCH_FULL=1 for the paper-scale sweeps (longer runs,
/// denser client counts); default keeps the whole suite under a few
/// minutes.
bool FullSweep();

/// Set ZIZIPHUS_BENCH_SMOKE=1 for the ctest `bench_smoke` suite: tiny
/// workloads so a filtered bench binary finishes in about a second while
/// still exercising the full run-and-export path.
bool SmokeSweep();

/// Shared experiment knobs for this bench binary: sweep-scaled defaults
/// overlaid with any `--key=value` flags (the ExperimentConfig vocabulary)
/// that ZIZIPHUS_BENCH_MAIN consumes out of argv before google-benchmark
/// rejects them as unknown.
ExperimentConfig& BenchConfig();

inline WorkloadSpec BaseWorkload() { return BenchConfig().workload; }

/// Sweep-scaled clients per zone (smoke mode clamps hard).
std::size_t ClientsPerZone(std::size_t full, std::size_t quick);

/// One completed cell: its identity string plus every published metric.
struct BenchCell {
  std::string name;
  std::map<std::string, double> metrics;  // ordered => deterministic JSON
};

std::vector<BenchCell>& CollectedCells();

/// Writes the collected cells as one deterministic JSON document to the
/// path in ZIZIPHUS_BENCH_JSON (no-op when unset). Schema:
///   {"schema":"ziziphus.bench.v1","bench":"<name>","cells":[
///     {"name":"...","metrics":{"lat_avg_ms":1.5,...}}, ...]}
void WriteBenchJson(const char* bench_name);

/// Publishes one experiment result both to google-benchmark's counters and
/// to the JSON collector. `State` is benchmark::State (templated so this
/// header stays benchmark-free).
template <class State>
void ReportResult(State& state, std::string name,
                  const ExperimentResult& r) {
  BenchCell cell;
  cell.name = std::move(name);
  auto put = [&](const char* key, double v) {
    state.counters[key] = v;
    cell.metrics[key] = v;
  };
  put("tput_ktps", r.throughput_tps / 1000.0);
  put("lat_avg_ms", r.avg_latency_ms);
  put("lat_p50_ms", r.p50_ms);
  put("lat_p99_ms", r.p99_ms);
  put("local_ms", r.local_avg_ms);
  put("global_ms", r.global_avg_ms);
  put("local_ops", static_cast<double>(r.local_ops));
  put("global_ops", static_cast<double>(r.global_ops));
  put("timeouts", static_cast<double>(r.timeouts));
  if (r.read_ops > 0) {
    put("read_ops", static_cast<double>(r.read_ops));
    put("read_ms", r.read_avg_ms);
    put("read_fallbacks", static_cast<double>(r.read_fallbacks));
    put("reads_served", static_cast<double>(r.reads_served));
    put("reads_cert_verified", static_cast<double>(r.reads_cert_verified));
    put("reads_cert_rejected", static_cast<double>(r.reads_cert_rejected));
    put("reads_redirects", static_cast<double>(r.reads_redirects));
    put("reads_session_violations",
        static_cast<double>(r.reads_session_violations));
  }
  if (r.fast_commits + r.fast_fallbacks > 0) {
    put("fast_commits", static_cast<double>(r.fast_commits));
    put("fast_fallbacks", static_cast<double>(r.fast_fallbacks));
  }
  if (r.traces_completed > 0) {
    put("traces", static_cast<double>(r.traces_completed));
    put("trace_total_ms", r.trace_total_ms);
    put("trace_wan_ms", r.trace_wan_ms);
    put("trace_lan_ms", r.trace_lan_ms);
    put("trace_queue_ms", r.trace_queue_ms);
    put("trace_crypto_ms", r.trace_crypto_ms);
    for (const auto& [label, ms] : r.trace_phase_ms) {
      cell.metrics["phase." + label] = ms;
    }
  }
  CollectedCells().push_back(std::move(cell));
}

/// Maps the simulator's message-type tags to critical-path phase labels
/// ("pbft.prepare", "sync.accept", "tl.commit", ...). The obs layer cannot
/// see protocol headers, so the app layer owns this mapping.
obs::Tracer::TypeLabeler PhaseLabeler();

/// Folds every completed causal trace into the result's trace_* aggregate
/// fields and writes Recorder::ExportJson to `spec.json_out` when set.
void FinishObservedRun(const obs::Recorder& recorder, const ObsSpec& spec,
                       ExperimentResult* result);

}  // namespace ziziphus::app

/// BENCHMARK_MAIN plus the ZIZIPHUS_BENCH_JSON export hook. Experiment
/// flags (--seed=, --zones=, ...) are consumed into BenchConfig() first so
/// only --benchmark_* flags reach google-benchmark's strict parser.
/// Expanded in bench binaries, which include benchmark/benchmark.h.
#define ZIZIPHUS_BENCH_MAIN(bench_name)                                  \
  int main(int argc, char** argv) {                                      \
    ::ziziphus::app::BenchConfig().ConsumeFlags(&argc, argv);            \
    ::benchmark::Initialize(&argc, argv);                                \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;  \
    ::benchmark::RunSpecifiedBenchmarks();                               \
    ::benchmark::Shutdown();                                             \
    ::ziziphus::app::WriteBenchJson(bench_name);                         \
    return 0;                                                            \
  }                                                                      \
  int zz_bench_main_anchor_ [[maybe_unused]] = 0

#endif  // ZIZIPHUS_APP_EXPERIMENT_CONFIG_H_
