#ifndef ZIZIPHUS_APP_EXPERIMENT_H_
#define ZIZIPHUS_APP_EXPERIMENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "app/workload.h"
#include "baselines/two_level.h"
#include "common/types.h"
#include "core/system.h"
#include "sim/latency_model.h"

namespace ziziphus::app {

/// The four systems compared in the paper's evaluation (Section VII).
enum class Protocol {
  kZiziphus,
  kFlatPbft,
  kTwoLevelPbft,
  kSteward,
};

const char* ProtocolName(Protocol p);

/// Where zones live.
struct ZonePlacement {
  RegionId region = 0;
  ClusterId cluster = 0;
};

/// A deployment: zones (with placement), per-zone fault tolerance f.
struct DeploymentSpec {
  std::vector<ZonePlacement> zones;
  std::size_t f = 1;

  std::size_t nodes_per_zone() const { return 3 * f + 1; }
  std::size_t num_clusters() const;
};

/// The paper's zone placements (Section VII-A): 3 zones in CA/OH/QC,
/// 5 in CA/SYD/PAR/LDN/TY, 7 in all of them.
DeploymentSpec PaperDeployment(std::size_t num_zones, std::size_t f = 1);

/// Figure 8 placement: `clusters` zone clusters of `zones_per_cluster`
/// zones, clusters spread over CA/SYD/PAR/LDN/TY (at most 2 per region),
/// zones of a cluster inside one data center.
DeploymentSpec ClusteredDeployment(std::size_t clusters,
                                   std::size_t zones_per_cluster = 3,
                                   std::size_t f = 1);

/// Workload knobs (Section VII: 10/30/50% global transactions; Figure 8
/// adds the cross-cluster fraction; the read benches add read-heavy mixes).
struct WorkloadSpec {
  std::size_t clients_per_zone = 100;
  /// The operation mix, shared with chaos/soak/benches (see workload.h).
  WorkloadMix mix;
  /// Serve reads through the certified fast path (Ziziphus only); false
  /// forces every read through a full BAL transaction — the control arm.
  bool verified_reads = true;
  /// Causal sessions: writes carry the session floor vector as deps.
  bool causal = false;
  Duration warmup = Millis(800);
  Duration measure = Seconds(2);
  std::uint64_t seed = 42;
};

/// Failure injection (Figure 6: one crashed backup per zone).
struct FaultSpec {
  std::size_t crashed_backups_per_zone = 0;
};

/// Observability knobs for one run. Tracing turns on at the measurement
/// boundary (warmup traffic is never traced), so the cost model and the
/// event schedule of the warmup are identical with tracing on or off.
struct ObsSpec {
  bool trace = false;              // enable the causal tracer
  std::uint64_t sample_every = 1;  // trace every n-th client op (1 = all)
  std::string json_out;            // write Recorder::ExportJson here ("")
};

struct ExperimentResult {
  Protocol protocol = Protocol::kZiziphus;
  double throughput_tps = 0;
  double avg_latency_ms = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double local_avg_ms = 0;
  double global_avg_ms = 0;
  std::uint64_t local_ops = 0;
  std::uint64_t global_ops = 0;
  std::uint64_t timeouts = 0;

  // ---- Read fast path (populated when the mix issues reads) -------------
  std::uint64_t read_ops = 0;        // completed reads (fast or fallback)
  double read_avg_ms = 0;
  std::uint64_t read_fallbacks = 0;  // reads that became BAL transactions
  // System-wide reads.* counter deltas over the measurement window.
  std::uint64_t reads_served = 0;
  std::uint64_t reads_cert_verified = 0;
  std::uint64_t reads_cert_rejected = 0;
  std::uint64_t reads_redirects = 0;
  std::uint64_t reads_session_violations = 0;
  // ---- Fast-path counters (measurement-window deltas; zero under the
  // stable ordering) ------------------------------------------------------
  std::uint64_t fast_commits = 0;    // slots committed on the optimistic path
  std::uint64_t fast_fallbacks = 0;  // fast rounds demoted to prepare/commit
  std::uint64_t messages_sent = 0;
  /// Total simulator events dispatched over the whole run (warmup +
  /// measurement); the denominator for scheduler-throughput benchmarks.
  std::uint64_t events_dispatched = 0;

  // ---- Critical-path decomposition (filled when ObsSpec.trace) ----------
  // Means over traced operations whose causal chain resolved completely;
  // by the cost model's construction, for each trace
  //   total == wan + lan + queue + crypto + sum(phases).
  std::uint64_t traces_completed = 0;
  double trace_total_ms = 0;
  double trace_wan_ms = 0;     // inter-region wire time
  double trace_lan_ms = 0;     // intra-region wire time
  double trace_queue_ms = 0;   // waiting for a busy core
  double trace_crypto_ms = 0;  // critical-path sign/verify/digest
  /// Non-crypto handler time keyed by phase label ("pbft.prepare", ...).
  std::map<std::string, double> trace_phase_ms;

  std::string ToString() const;
};

/// Default node configuration calibrated for the benchmark suite (see
/// EXPERIMENTS.md for the cost-model rationale).
core::NodeConfig DefaultNodeConfig();

/// The node configuration RunExperiment gives Steward (Amir et al., TDSC
/// 2008), modelled exactly as the paper does: "Steward [is] similar to
/// Ziziphus with 100% global transactions (i.e., every single transaction
/// requires global synchronization across all zones)". A Steward
/// deployment is a core::ZiziphusSystem with a stable leader site whose
/// clients submit every operation as a global command transaction, with
/// client data replicated on every zone; so lazy checkpoint sharing is
/// off. Replicating everything everywhere buys tolerance of whole-zone
/// failures that Ziziphus lacks (Prop. 5.4), at the latency cost the
/// benchmarks show. There is intentionally no separate node class: the
/// reuse *is* the model.
core::NodeConfig StewardNodeConfig();

/// The node configuration RunExperiment gives the two-level PBFT
/// comparator: DefaultNodeConfig's PBFT, policy and cost table, except that
/// certificates are plain 2f+1 signature sets, not threshold signatures.
baselines::TwoLevelNode::Config TwoLevelNodeConfig();

/// Builds the deployment for `protocol`, runs the closed-loop workload, and
/// reports aggregate throughput and latency over the measurement window.
ExperimentResult RunExperiment(Protocol protocol, const DeploymentSpec& dep,
                               const WorkloadSpec& workload,
                               const FaultSpec& faults = {},
                               const ObsSpec& obs = {});

/// Variant with an explicit node configuration (ablation studies: stable
/// leader off, prepare-phase skip off, threshold signatures off, global
/// batching off, ...). Applies to Ziziphus/Steward deployments.
ExperimentResult RunExperimentWithConfig(Protocol protocol,
                                         const DeploymentSpec& dep,
                                         const WorkloadSpec& workload,
                                         const core::NodeConfig& node_config,
                                         const FaultSpec& faults = {},
                                         const ObsSpec& obs = {});

}  // namespace ziziphus::app

#endif  // ZIZIPHUS_APP_EXPERIMENT_H_
