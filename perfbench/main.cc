// The repo's benchmark driver. One process, one thread, one workload per
// invocation:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --selftest      fidelity / slicing / determinism checks
//   perfbench --layer-table   the message type -> layer table, one per line
//
// Both modes replay the workload with one seed back to back for --seconds
// (at least twice) and require every replay to reproduce the first's
// modeled metrics, counts and allocations exactly. --trace 0 prints the
// end-to-end metrics: the modeled ones (simulated-time throughput and
// latency) of the first replay, peak memory, and set-up time as a median.
// --trace 1 adds one traced replay and prints the per-layer metrics,
// events/s among them. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "app/experiment_config.h"
#include "layers.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace app = ziziphus::app;
namespace obs = ziziphus::obs;
using obs::CounterId;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Accumulates named metrics and failure reasons, then prints the report.
class Report {
 public:
  void Put(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void Fail(const std::string& why) { problems_.push_back(why); }
  bool correct() const { return problems_.empty(); }

  void Print(std::uint64_t attempted, std::uint64_t failed) const {
    for (const std::string& p : problems_) {
      std::fprintf(stderr, "perfbench: INCORRECT: %s\n", p.c_str());
    }
    for (const Metric& m : metrics_) {
      std::printf("%-28s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> problems_;
};

/// Warmup and window of a freshly set-up deployment, with the run loop's
/// events and allocations counted and the window's wall time taken.
RunResult RunRep(Deployment& d, WallProfile* profile = nullptr) {
  ziziphus::sim::Simulation& s = d.sys().sim();
  const std::uint64_t ev0 = s.events_dispatched();
  const std::uint64_t allocs0 = AllocCount();
  d.RunWarmup();
  const auto t0 = Clock::now();
  if (profile != nullptr) d.EnableTracer();
  d.RunWindow(profile);
  const double window_s = SecondsSince(t0);
  const std::uint64_t allocs = AllocCount() - allocs0;
  RunResult r = d.Collect();
  r.events = s.events_dispatched() - ev0;
  r.allocs = allocs;
  r.window_s = window_s;
  return r;
}

const ClassStats& Focus(const WorkloadSpec& spec, const RunResult& r) {
  switch (spec.focus) {
    case OpClass::kLocal:
      return r.local;
    case OpClass::kGlobal:
      return r.global;
    case OpClass::kRead:
      break;
  }
  return r.read;
}

/// Invariants and mechanism checks on a finished untraced repetition.
void CheckRun(Deployment& d, const RunResult& r, const WorkloadSpec& spec,
              Report* report) {
  for (const auto& v : d.CheckInvariants()) {
    report->Fail("invariant " + v.invariant + ": " + v.detail);
  }
  const std::string problem = d.MechanismProblem(r);
  if (!problem.empty()) report->Fail("mechanism: " + problem);
  const std::uint64_t focus_ops = Focus(spec, r).ops;
  if (focus_ops < kMinP99Samples) {
    report->Fail(std::string("only ") + std::to_string(focus_ops) + " " +
                 OpClassName(spec.focus) + " ops: too few for a p99");
  }
  if (r.read_rejects != 0) report->Fail("clients rejected read replies");
}

/// Back-to-back replays of one seed. Every replay's modeled metrics,
/// counts and allocations must equal the first's, and the first also gets
/// the invariant and mechanism checks.
struct Replays {
  std::vector<RunResult> runs;
  std::vector<double> setups;
  PrimitiveTimings primitives;  // on the first replay's final state
  double hold_events_per_s = 0;

  /// Every replay does the same work in each timing slice, so summing
  /// each slice's fastest replay filters out interference from other
  /// processes on the machine.
  double BestLoopSeconds() const {
    std::vector<double> best = runs.front().slice_s;
    for (const RunResult& r : runs) {
      for (std::size_t i = 0; i < best.size(); ++i) {
        best[i] = std::min(best[i], r.slice_s[i]);
      }
    }
    double sum = 0;
    for (double b : best) sum += b;
    return sum;
  }
};

/// Set-up takes milliseconds against seconds for a replay, so each replay
/// is followed by this many extra timed set-ups.
constexpr int kExtraSetups = 20;

/// Replays for `seconds` of wall time, and at least twice.
Replays RunReplays(const WorkloadSpec& spec, std::uint64_t seed,
                   double seconds, bool probe, Report* report) {
  Replays out;
  const auto start = Clock::now();
  for (;;) {
    {
      Deployment d(spec, seed);
      RunResult r = RunRep(d);
      if (out.runs.empty()) {
        CheckRun(d, r, spec, report);
        if (probe) {
          out.primitives = TimePrimitives(d.sys());
          out.hold_events_per_s = HoldEventsPerSecond(
              d.sys(), static_cast<std::size_t>(r.queue_depth_p50));
        }
      } else if (!r.SameModel(out.runs.front())) {
        report->Fail("replay " + std::to_string(out.runs.size()) +
                     " of one seed gave different modeled metrics");
      }
      out.setups.push_back(d.setup_s());
      out.runs.push_back(std::move(r));
    }
    for (int i = 0; i < kExtraSetups; ++i) {
      Deployment extra(spec, seed);
      out.setups.push_back(extra.setup_s());
    }
    const double n = static_cast<double>(out.runs.size());
    if (n >= 2 && SecondsSince(start) * (1.0 + 1.0 / n) > seconds) break;
  }
  std::fprintf(stderr, "perfbench: %s seed %llu: %zu replays, %zu set-ups, "
               "%.1f s\n", spec.name, static_cast<unsigned long long>(seed),
               out.runs.size(), out.setups.size(), SecondsSince(start));
  return out;
}

int RunEndToEnd(const WorkloadSpec& spec, std::uint64_t seed, double seconds) {
  Report report;
  const Replays replays = RunReplays(spec, seed, seconds, false, &report);
  const RunResult& r = replays.runs.front();
  const ClassStats& focus = Focus(spec, r);
  report.Put("tput_ktps", r.tput_ktps, "ktps");
  report.Put("local_p50_ms", r.local.p50_ms, "ms");
  report.Put("focus_p50_ms", focus.p50_ms, "ms");
  report.Put("focus_p99_ms", focus.p99_ms, "ms");
  report.Put("peak_rss_mb", PeakRssMb(), "MB");
  report.Put("setup_s", Median(replays.setups), "s");
  report.Print(r.completed + r.in_flight_at_end, r.read_rejects);
  return 0;
}

/// Sum of the mean critical-path phase times whose label starts with
/// `prefix` ("pbft.", "sync.", "endorse.").
double PhaseMs(const app::ExperimentResult& traced, const std::string& prefix) {
  double ms = 0;
  for (const auto& [label, v] : traced.trace_phase_ms) {
    if (label.rfind(prefix, 0) == 0) ms += v;
  }
  return ms;
}

int RunPerLayer(const WorkloadSpec& spec, std::uint64_t seed,
                double seconds) {
  Report report;
  const auto start = Clock::now();

  // Untraced replays: modeled metrics, counts, events/s and the wall
  // baseline for the tracing overhead.
  const Replays replays = RunReplays(spec, seed, seconds, true, &report);
  const RunResult& r = replays.runs.front();
  const PrimitiveTimings& prim = replays.primitives;
  double untraced_window_s = r.window_s;
  for (const RunResult& run : replays.runs) {
    untraced_window_s = std::min(untraced_window_s, run.window_s);
  }

  // Traced replay: per-step wall attribution plus the causal tracer.
  Deployment traced(spec, seed);
  WallProfile prof;
  const RunResult tr = RunRep(traced, &prof);
  app::ExperimentResult crit;
  app::FinishObservedRun(traced.sys().sim().recorder(), app::ObsSpec{},
                         &crit);

  const double attributed = Ratio(prof.total_seconds(), tr.window_s);
  if (attributed < 0.95 || attributed > 1.05) {
    report.Fail("per-layer wall sums to " + std::to_string(attributed) +
                " of the traced window");
  }
  if (!prof.unmapped.empty()) {
    std::fprintf(stderr, "perfbench: unmapped message types:");
    for (auto t : prof.unmapped) {
      std::fprintf(stderr, " %u", static_cast<unsigned>(t));
    }
    std::fprintf(stderr, "\n");
  }

  const double ops = static_cast<double>(r.completed);
  const double window_us = static_cast<double>(spec.window);
  const double total = prof.total_seconds();
  auto wall = [&](Layer layer) {
    const auto i = static_cast<std::size_t>(layer);
    const std::string base = std::string("wall.") + LayerName(layer);
    report.Put(base + ".share", Ratio(prof.seconds[i], total), "ratio");
    report.Put(base + ".us_per_event",
               Ratio(prof.seconds[i] * 1e6, static_cast<double>(prof.steps[i])),
               "us");
  };

  // sim
  report.Put("sim.events", static_cast<double>(r.events), "count");
  report.Put("sim.events_per_s",
             static_cast<double>(r.events) / replays.BestLoopSeconds(), "1/s");
  report.Put("sim.allocs_per_event",
             Ratio(static_cast<double>(r.allocs), static_cast<double>(r.events)),
             "count");
  report.Put("sim.queue_depth_p50", r.queue_depth_p50, "count");
  report.Put("sim.queue_depth_p99", r.queue_depth_p99, "count");
  report.Put("sim.hold_events_per_s", replays.hold_events_per_s, "1/s");
  report.Put("net.msgs_per_op",
             Ratio(static_cast<double>(r.Counter(CounterId::kNetMsgsSent)), ops),
             "count");
  report.Put("net.bytes_per_op",
             Ratio(static_cast<double>(r.Counter(CounterId::kNetBytesSent)),
                   ops),
             "B");
  wall(Layer::kTimer);
  // pbft
  wall(Layer::kPbft);
  report.Put("pbft.ops_per_batch",
             Ratio(static_cast<double>(r.local.ops + r.read_fallbacks),
                   static_cast<double>(
                       r.Counter(CounterId::kPbftBatchesProposed))),
             "count");
  report.Put("pbft.stable_checkpoints",
             static_cast<double>(r.Counter(CounterId::kPbftStableCheckpoints)),
             "count");
  report.Put("pbft.view_changes",
             static_cast<double>(r.Counter(CounterId::kPbftNewViewsEntered)),
             "count");
  report.Put("pbft.state_transfers",
             static_cast<double>(r.Counter(CounterId::kPbftStateTransfers)),
             "count");
  report.Put("cpu.busy_frac",
             Ratio(static_cast<double>(r.replica_cpu_busy_us),
                   static_cast<double>(r.replicas) * window_us),
             "ratio");
  report.Put("trace.pbft_ms", PhaseMs(crit, "pbft."), "ms");
  // core
  wall(Layer::kEndorse);
  wall(Layer::kSync);
  wall(Layer::kMig);
  wall(Layer::kLazy);
  report.Put("sync.ops_per_batch",
             Ratio(static_cast<double>(r.Counter(CounterId::kSyncRequestsLed)),
                   static_cast<double>(
                       r.Counter(CounterId::kSyncBatchesFormed))),
             "count");
  report.Put("sync.retries",
             static_cast<double>(r.Counter(CounterId::kSyncRetries)), "count");
  report.Put("sync.response_queries_sent",
             static_cast<double>(r.Counter(CounterId::kSyncResponseQueriesSent)),
             "count");
  report.Put("mig.chunks_sent",
             static_cast<double>(r.Counter(CounterId::kMigChunksSent)),
             "count");
  report.Put("lazy.checkpoints_shared",
             static_cast<double>(r.Counter(CounterId::kLazyCheckpointsShared)),
             "count");
  report.Put("trace.sync_ms", PhaseMs(crit, "sync."), "ms");
  report.Put("trace.endorse_ms", PhaseMs(crit, "endorse."), "ms");
  // crypto
  report.Put("crypto.cpu_share",
             Ratio(static_cast<double>(r.replica_cpu_crypto_us),
                   static_cast<double>(r.replica_cpu_busy_us)),
             "ratio");
  report.Put("trace.crypto_ms", crit.trace_crypto_ms, "ms");
  report.Put("crypto.merkle_build_us", prim.merkle_build_us, "us");
  report.Put("crypto.read_verify_us", prim.read_verify_us, "us");
  report.Put("crypto.sign_us", prim.sign_us, "us");
  report.Put("crypto.verify_us", prim.verify_us, "us");
  // storage
  report.Put("storage.kv_get_us", prim.kv_get_us, "us");
  report.Put("storage.kv_put_us", prim.kv_put_us, "us");
  report.Put("storage.snapshot_us", prim.snapshot_us, "us");
  // app (clients)
  wall(Layer::kClient);
  wall(Layer::kReadsServe);
  wall(Layer::kReadsVerify);
  report.Put("reads.fallback_frac",
             Ratio(static_cast<double>(r.read_fallbacks),
                   static_cast<double>(r.read.ops)),
             "ratio");
  report.Put("reads.redirect_frac",
             Ratio(static_cast<double>(r.read_redirects),
                   static_cast<double>(r.read.ops)),
             "ratio");
  const std::pair<const char*, const ClassStats*> classes[] = {
      {"local", &r.local}, {"global", &r.global}, {"read", &r.read}};
  for (const auto& [name, c] : classes) {
    const std::string base = std::string("client.") + name;
    report.Put("client.ops." + std::string(name), static_cast<double>(c->ops),
               "count");
    report.Put(base + "_p50_ms", c->p50_ms, "ms");
    report.Put(base + "_p99_ms", c->p99_ms, "ms");
  }
  report.Put("client.timeouts", static_cast<double>(r.timeouts), "count");
  const double fails = static_cast<double>(r.timeouts + r.read_rejects);
  report.Put("client.fail_frac", Ratio(fails, fails + ops), "ratio");
  // recovery
  report.Put("recovery.rejoins",
             static_cast<double>(r.Counter(CounterId::kRecoveryRejoins)),
             "count");
  report.Put("recovery.time_to_rejoin_ms", r.time_to_rejoin_ms, "ms");
  report.Put("recovery.failover_ms", r.failover_ms, "ms");
  report.Put("recovery.recovery_ms", r.recovery_ms, "ms");
  // obs
  report.Put("obs.trace_coverage",
             Ratio(static_cast<double>(crit.traces_completed),
                   static_cast<double>(tr.completed)),
             "ratio");
  report.Put("trace.wan_ms", crit.trace_wan_ms, "ms");
  report.Put("trace.lan_ms", crit.trace_lan_ms, "ms");
  report.Put("trace.queue_ms", crit.trace_queue_ms, "ms");
  report.Put("wall.trace_overhead", Ratio(tr.window_s, untraced_window_s),
             "ratio");
  wall(Layer::kOther);
  report.Put("wall.attributed_frac", attributed, "ratio");

  std::fprintf(stderr, "perfbench: %s seed %llu traced: %.1f s\n", spec.name,
               static_cast<unsigned long long>(seed), SecondsSince(start));
  report.Print(r.completed + r.in_flight_at_end, r.read_rejects);
  return 0;
}

// ---- Self-test ----------------------------------------------------------

/// A scaled-down copy of a workload, so the self-test runs in seconds.
WorkloadSpec Small(const WorkloadSpec& w, std::size_t clients,
                   Duration window) {
  WorkloadSpec s = w;
  s.clients_per_zone = clients;
  s.window = window;
  return s;
}

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++failures;
  };

  // Fidelity: the driver's deployment dispatches exactly what
  // app::RunExperiment does for the equivalent config.
  for (const WorkloadSpec& w : Workloads()) {
    if (w.faults) continue;
    const WorkloadSpec s = Small(w, 20, ziziphus::Millis(600));
    Deployment d(s, 7);
    const RunResult r = RunRep(d);
    const app::ExperimentResult e = app::RunExperimentWithConfig(
        app::Protocol::kZiziphus, app::PaperDeployment(s.zones),
        Deployment::AppWorkload(s, 7), Deployment::NodeConfigFor(s));
    expect(r.events == e.events_dispatched && r.local.ops == e.local_ops &&
               r.global.ops == e.global_ops && r.read.ops == e.read_ops &&
               r.timeouts == e.timeouts &&
               r.Counter(CounterId::kNetMsgsSent) == e.messages_sent &&
               r.local.mean_ms == e.local_avg_ms &&
               r.global.mean_ms == e.global_avg_ms,
           std::string("fidelity vs app::RunExperiment: ") + w.name);
  }

  // Slicing warmup and window into buckets leaves the observable export
  // byte-identical to one RunUntil over both (fault schedule included).
  {
    const WorkloadSpec s =
        Small(*FindWorkload("primary-crash"), 10, ziziphus::Seconds(5));
    Deployment sliced(s, 11);
    sliced.RunWarmup();
    sliced.RunWindow();
    Deployment whole(s, 11);
    whole.sys().sim().RunUntil(s.warmup + s.window);
    expect(sliced.sys().sim().recorder().ExportJson() ==
               whole.sys().sim().recorder().ExportJson(),
           "sliced window export is byte-identical to one RunUntil");
  }

  // Determinism: one seed repeats exactly, another seed differs.
  for (const WorkloadSpec& w : Workloads()) {
    const WorkloadSpec s = Small(w, 10, w.faults ? ziziphus::Seconds(5)
                                                 : ziziphus::Millis(600));
    Deployment a(s, 3), b(s, 3), c(s, 4);
    const RunResult ra = RunRep(a), rb = RunRep(b), rc = RunRep(c);
    expect(ra.SameModel(rb), std::string("same seed repeats: ") + w.name);
    expect(!ra.SameModel(rc) && ra.events != rc.events,
           std::string("another seed differs: ") + w.name);
  }
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

int PrintLayerTable() {
  for (const auto& [type, layer] : LayerTable()) {
    std::printf("%u %s\n", static_cast<unsigned>(type), LayerName(layer));
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n       perfbench --selftest | --layer-table\n"
               "workloads:");
  for (const WorkloadSpec& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return SelfTest();
    if (arg == "--layer-table") return PrintLayerTable();
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      seed = std::strtoull(v, &end, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(v, &end);
    } else if (arg == "--trace") {
      trace = static_cast<int>(std::strtol(v, &end, 10));
    } else {
      return Usage();
    }
    if (end != nullptr && (*end != '\0' || end == v)) return Usage();
  }
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage();
  }
  return trace == 1 ? RunPerLayer(*spec, seed, seconds)
                    : RunEndToEnd(*spec, seed, seconds);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
