#include "app/experiment_config.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "baselines/two_level.h"
#include "core/messages.h"
#include "pbft/messages.h"
#include "pbft/ordering.h"

namespace ziziphus::app {

DeploymentSpec ExperimentConfig::Deployment() const {
  return clusters > 1 ? ClusteredDeployment(clusters, zones, f)
                      : PaperDeployment(zones, f);
}

ChaosOptions ExperimentConfig::ChaosFor() const {
  ChaosOptions c = chaos;
  c.seed = workload.seed;
  c.zones = zones;
  c.f = f;
  return c;
}

std::string ExperimentConfig::ToString() const {
  std::ostringstream os;
  os << ProtocolName(protocol) << " zones=" << zones;
  if (clusters > 1) os << "x" << clusters << " clusters";
  os << " f=" << f << " clients/zone=" << workload.clients_per_zone
     << " global=" << workload.mix.global_fraction * 100 << "%";
  if (workload.mix.cross_cluster_fraction > 0) {
    os << " cross=" << workload.mix.cross_cluster_fraction * 100 << "%";
  }
  if (workload.mix.read_fraction > 0) {
    os << " reads=" << workload.mix.read_fraction * 100 << "%";
    if (!workload.verified_reads) os << " (txn-path)";
    if (workload.causal) os << " causal";
  }
  if (faults.crashed_backups_per_zone > 0) {
    os << " crashed/zone=" << faults.crashed_backups_per_zone;
  }
  if (ordering != pbft::Ordering::kStable) {
    os << " ordering=" << pbft::OrderingName(ordering);
  }
  if (!stable_leader) os << " no-stable-leader";
  if (obs.trace) os << " traced(1/" << obs.sample_every << ")";
  os << " seed=" << workload.seed;
  return os.str();
}

ExperimentResult ExperimentConfig::Run() const {
  core::NodeConfig node = DefaultNodeConfig();
  if (protocol == Protocol::kSteward) {
    node.lazy_sync = false;  // every transaction is already global
  }
  node.sync.stable_leader = stable_leader;
  node.pbft.ordering = ordering;
  return RunExperimentWithConfig(protocol, Deployment(), workload, node,
                                 faults, obs);
}

namespace {

/// `--name=value` match; returns the value through `out`.
bool FlagValue(const char* arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) != 0) return false;
  *out = arg + prefix.size();
  return true;
}

std::uint64_t ToU64(const std::string& v) {
  return std::strtoull(v.c_str(), nullptr, 10);
}

}  // namespace

bool ExperimentConfig::ApplyFlag(const char* arg) {
  std::string v;
  if (FlagValue(arg, "protocol", &v)) {
    if (v == "ziziphus") {
      protocol = Protocol::kZiziphus;
    } else if (v == "two-level-pbft" || v == "two-level" || v == "twolevel") {
      protocol = Protocol::kTwoLevelPbft;
    } else if (v == "steward") {
      protocol = Protocol::kSteward;
    } else if (v == "flat-pbft" || v == "flat") {
      protocol = Protocol::kFlatPbft;
    } else {
      std::fprintf(stderr,
                   "unknown --protocol=%s (want ziziphus | two-level-pbft | "
                   "steward | flat-pbft)\n",
                   v.c_str());
      std::exit(2);
    }
  } else if (FlagValue(arg, "zones", &v)) {
    zones = ToU64(v);
  } else if (FlagValue(arg, "clusters", &v)) {
    clusters = ToU64(v);
  } else if (FlagValue(arg, "f", &v)) {
    f = ToU64(v);
  } else if (FlagValue(arg, "clients", &v)) {
    workload.clients_per_zone = ToU64(v);
  } else if (FlagValue(arg, "global", &v)) {
    workload.mix.global_fraction = std::strtod(v.c_str(), nullptr);
  } else if (FlagValue(arg, "cross", &v)) {
    workload.mix.cross_cluster_fraction = std::strtod(v.c_str(), nullptr);
  } else if (FlagValue(arg, "reads", &v)) {
    workload.mix.read_fraction = std::strtod(v.c_str(), nullptr);
  } else if (FlagValue(arg, "verified-reads", &v)) {
    workload.verified_reads = v != "0" && v != "false";
  } else if (std::strcmp(arg, "--causal") == 0) {
    workload.causal = true;
  } else if (FlagValue(arg, "causal", &v)) {
    workload.causal = v != "0" && v != "false";
  } else if (FlagValue(arg, "warmup-ms", &v)) {
    workload.warmup = Millis(ToU64(v));
  } else if (FlagValue(arg, "measure-ms", &v)) {
    workload.measure = Millis(ToU64(v));
  } else if (FlagValue(arg, "seed", &v)) {
    workload.seed = ToU64(v);
  } else if (FlagValue(arg, "faults", &v)) {
    faults.crashed_backups_per_zone = ToU64(v);
  } else if (std::strcmp(arg, "--no-stable-leader") == 0) {
    stable_leader = false;
  } else if (std::strcmp(arg, "--trace") == 0) {
    obs.trace = true;
  } else if (FlagValue(arg, "trace", &v)) {
    obs.trace = v != "0" && v != "false";
  } else if (FlagValue(arg, "sample-every", &v)) {
    obs.sample_every = ToU64(v);
  } else if (FlagValue(arg, "json-out", &v)) {
    obs.json_out = v;
  } else if (FlagValue(arg, "byzantine", &v)) {
    chaos.byzantine_per_zone = ToU64(v);
  } else if (FlagValue(arg, "think-ms", &v)) {
    chaos.client_think = Millis(ToU64(v));
  } else if (FlagValue(arg, "fault-window-ms", &v)) {
    chaos.fault_window = Millis(ToU64(v));
  } else if (FlagValue(arg, "crash-amnesia", &v)) {
    chaos.amnesia_crashes = ToU64(v);
  } else if (FlagValue(arg, "ordering", &v)) {
    std::optional<pbft::Ordering> o = pbft::ParseOrdering(v);
    if (!o.has_value()) {
      std::fprintf(stderr,
                   "unknown --ordering=%s (want stable | fast-path)\n",
                   v.c_str());
      std::exit(2);
    }
    WithOrdering(*o);
  } else if (std::strcmp(arg, "--byz-forge-reads") == 0) {
    chaos.byz_forge_reads = true;
  } else if (FlagValue(arg, "byz-forge-reads", &v)) {
    chaos.byz_forge_reads = v != "0" && v != "false";
  } else if (FlagValue(arg, "latency-flaps", &v)) {
    chaos.latency_flaps = ToU64(v);
  } else {
    return false;
  }
  return true;
}

ExperimentConfig ExperimentConfig::FromFlags(int argc, char** argv) {
  ExperimentConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (!cfg.ApplyFlag(argv[i])) {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return cfg;
}

ExperimentConfig& ExperimentConfig::ConsumeFlags(int* argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    if (!ApplyFlag(argv[i])) argv[kept++] = argv[i];
  }
  *argc = kept;
  return *this;
}

obs::Tracer::TypeLabeler PhaseLabeler() {
  return [](std::uint64_t msg_type) -> std::string {
    switch (msg_type) {
      // Zone-level PBFT (pbft/messages.h).
      case pbft::kClientRequest:
        return "pbft.request";
      case pbft::kClientReply:
        return "pbft.reply";
      case pbft::kPrePrepare:
        return "pbft.pre-prepare";
      case pbft::kPrepare:
        return "pbft.prepare";
      case pbft::kCommit:
        return "pbft.commit";
      case pbft::kFastVote:
        return "pbft.fast-vote";
      case pbft::kCheckpoint:
        return "pbft.checkpoint";
      case pbft::kViewChange:
        return "pbft.view-change";
      case pbft::kNewView:
        return "pbft.new-view";
      case pbft::kStateRequest:
        return "pbft.state-request";
      case pbft::kStateResponse:
        return "pbft.state-response";
      case pbft::kReadRequest:
        return "read.request";
      case pbft::kReadReply:
        return "read.reply";
      // Data synchronization / migration (core/messages.h).
      case core::kMigrationRequest:
        return "sync.migration-request";
      case core::kMigrationReply:
        return "sync.migration-reply";
      case core::kMigrationDone:
        return "sync.migration-done";
      case core::kEndorsePrePrepare:
        return "endorse.pre-prepare";
      case core::kEndorsePrepare:
        return "endorse.prepare";
      case core::kEndorseVote:
        return "endorse.vote";
      case core::kPropose:
        return "sync.propose";
      case core::kPromise:
        return "sync.promise";
      case core::kAccept:
        return "sync.accept";
      case core::kAccepted:
        return "sync.accepted";
      case core::kGlobalCommit:
        return "sync.global-commit";
      case core::kStateTransfer:
        return "mig.state-transfer";
      case core::kResponseQuery:
        return "sync.response-query";
      case core::kCrossPropose:
        return "sync.cross-propose";
      case core::kPrepared:
        return "sync.prepared";
      // Two-level PBFT top layer (baselines/two_level.h).
      case baselines::kGPrePrepare:
        return "tl.pre-prepare";
      case baselines::kGPrepare:
        return "tl.prepare";
      case baselines::kGCommit:
        return "tl.commit";
      default:
        return "msg." + std::to_string(msg_type);
    }
  };
}

void FinishObservedRun(const obs::Recorder& recorder, const ObsSpec& spec,
                       ExperimentResult* result) {
  const obs::Tracer& tracer = recorder.tracer();
  obs::Tracer::TypeLabeler labeler = PhaseLabeler();
  Duration total = 0, wan = 0, lan = 0, queue = 0, crypto = 0;
  std::map<std::string, Duration> phases;
  std::uint64_t n = 0;
  for (obs::TraceId t : tracer.CompletedTraces()) {
    obs::Tracer::Breakdown b = tracer.CriticalPath(t, labeler);
    if (!b.complete) continue;
    ++n;
    total += b.total_us;
    wan += b.wan_us;
    lan += b.lan_us;
    queue += b.queue_us;
    crypto += b.crypto_us;
    for (const auto& [label, us] : b.phase_us) phases[label] += us;
  }
  result->traces_completed = n;
  if (n > 0) {
    double inv_ms = 1.0 / (1000.0 * static_cast<double>(n));
    result->trace_total_ms = static_cast<double>(total) * inv_ms;
    result->trace_wan_ms = static_cast<double>(wan) * inv_ms;
    result->trace_lan_ms = static_cast<double>(lan) * inv_ms;
    result->trace_queue_ms = static_cast<double>(queue) * inv_ms;
    result->trace_crypto_ms = static_cast<double>(crypto) * inv_ms;
    for (const auto& [label, us] : phases) {
      result->trace_phase_ms[label] = static_cast<double>(us) * inv_ms;
    }
  }
  if (!spec.json_out.empty()) {
    std::ofstream out(spec.json_out);
    out << recorder.ExportJson();
  }
}

// ---- Bench support (formerly bench/bench_util.h) -----------------------

bool FullSweep() {
  const char* env = std::getenv("ZIZIPHUS_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

bool SmokeSweep() {
  const char* env = std::getenv("ZIZIPHUS_BENCH_SMOKE");
  return env != nullptr && env[0] == '1';
}

ExperimentConfig& BenchConfig() {
  static ExperimentConfig cfg = [] {
    ExperimentConfig c;
    c.workload.warmup = FullSweep() ? Millis(800) : Millis(500);
    c.workload.measure = FullSweep() ? Seconds(2) : Millis(800);
    if (SmokeSweep()) {
      c.workload.warmup = Millis(200);
      c.workload.measure = Millis(250);
    }
    c.workload.seed = 42;
    return c;
  }();
  return cfg;
}

std::size_t ClientsPerZone(std::size_t full, std::size_t quick) {
  if (SmokeSweep()) return 10;
  return FullSweep() ? full : quick;
}

std::vector<BenchCell>& CollectedCells() {
  static std::vector<BenchCell> cells;
  return cells;
}

void WriteBenchJson(const char* bench_name) {
  const char* path = std::getenv("ZIZIPHUS_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') return;
  std::ofstream out(path);
  out << "{\"schema\":\"ziziphus.bench.v1\",\"bench\":\"" << bench_name
      << "\",\"cells\":[";
  bool first_cell = true;
  for (const BenchCell& cell : CollectedCells()) {
    out << (first_cell ? "" : ",") << "\n {\"name\":\"" << cell.name
        << "\",\"metrics\":{";
    first_cell = false;
    bool first = true;
    for (const auto& [key, value] : cell.metrics) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g",
                    std::isfinite(value) ? value : 0.0);
      out << (first ? "" : ",") << "\"" << key << "\":" << buf;
      first = false;
    }
    out << "}}";
  }
  out << "\n]}\n";
  std::fprintf(stderr, "bench json: %s (%zu cells)\n", path,
               CollectedCells().size());
}

}  // namespace ziziphus::app
