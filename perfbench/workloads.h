#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "app/client.h"
#include "app/experiment.h"
#include "common/metrics.h"
#include "core/system.h"
#include "layers.h"
#include "sim/invariants.h"

namespace perfbench {

using ziziphus::Duration;
using ziziphus::SimTime;

enum class OpClass { kLocal, kGlobal, kRead };
const char* OpClassName(OpClass c);

/// One benchmark workload: Ziziphus, f = 1, closed-loop MobileClients on
/// the paper placement. README.md says why each one exists.
struct WorkloadSpec {
  const char* name;
  std::size_t zones;
  std::size_t clients_per_zone;
  double global_fraction;  // of non-read operations, as in WorkloadMix
  double read_fraction;
  std::uint64_t checkpoint_interval;  // 0 keeps DefaultNodeConfig's
  /// Crash zone 0's primary, and amnesia-crash then recover one zone-1
  /// backup, inside the window.
  bool faults;
  Duration warmup;
  Duration window;
  /// The op class whose latency is the workload's headline (focus_p50_ms).
  OpClass focus;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// Client-measured latency of one op class over the window.
struct ClassStats {
  std::uint64_t ops = 0;
  double p50_ms = 0;
  double p99_ms = 0;  // 0 when fewer than kMinP99Samples ops completed
  double mean_ms = 0;
};
inline constexpr std::uint64_t kMinP99Samples = 1000;

/// Slice length of the window; completions are sampled per slice.
inline constexpr Duration kBucket = 250'000;
/// Slice length of the run loop's wall-clock samples.
inline constexpr Duration kTimingSlice = 25'000;

/// What one run of a workload yields. The modeled fields and the counts
/// are deterministic per seed; the wall fields are not.
struct RunResult {
  // ---- Modeled (simulated time) ----
  double tput_ktps = 0;
  ClassStats local, global, read;
  std::uint64_t completed = 0;
  std::uint64_t in_flight_at_end = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t read_rejects = 0;
  std::uint64_t read_fallbacks = 0;
  std::uint64_t read_redirects = 0;
  /// primary-crash only (0 elsewhere), in simulated time from the crash:
  /// failover ends with the first bucket in which a replica entered a new
  /// view; recovery with the first bucket, after the post-crash dip, whose
  /// completions reach half the mean pre-crash bucket. Either is the window
  /// end when it never happens.
  double failover_ms = 0;
  double recovery_ms = 0;
  std::vector<std::uint64_t> bucket_completions;
  /// Root counter deltas over the window, indexed by obs::CounterId.
  std::vector<std::uint64_t> counters;
  std::uint64_t replica_cpu_busy_us = 0;
  std::uint64_t replica_cpu_crypto_us = 0;
  std::size_t replicas = 0;
  double queue_depth_p50 = 0;
  double queue_depth_p99 = 0;
  double time_to_rejoin_ms = 0;
  /// Events dispatched and operator-new calls over the run loop (warmup +
  /// window).
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;

  // ---- Wall clock ----
  double window_s = 0;
  /// Wall time of each kTimingSlice slice of the run loop (untraced runs).
  std::vector<double> slice_s;

  /// True when the modeled metrics and counts of two runs are identical.
  bool SameModel(const RunResult& o) const;
  std::uint64_t Counter(ziziphus::obs::CounterId id) const {
    return counters[static_cast<std::size_t>(id)];
  }
};

/// One assembled deployment. The constructor is the timed set-up: it builds
/// the system, registers and bootstraps the clients, starts them and
/// installs the fault schedule, mirroring RunZiziphusLike in
/// src/app/experiment.cc call for call so a fault-free workload dispatches
/// exactly the events app::RunExperiment would.
class Deployment {
 public:
  Deployment(const WorkloadSpec& spec, std::uint64_t seed);
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Runs the warmup, resets client stats and snapshots the counters.
  void RunWarmup();
  /// Turns the causal tracer on (call between warmup and window).
  void EnableTracer();
  /// Runs the window in kBucket slices, sampling completions at each
  /// boundary. Untraced, each slice is a series of timed RunUntil calls of
  /// kTimingSlice (warmup likewise). With `profile`, drives
  /// Simulation::Step() instead and charges each step's wall time to the
  /// layer that owns the message it delivered.
  void RunWindow(WallProfile* profile = nullptr);
  /// Modeled metrics and counter deltas over the window.
  RunResult Collect() const;
  /// Safety invariants over the final state; empty when all hold.
  std::vector<ziziphus::sim::InvariantViolation> CheckInvariants();
  /// Why the workload's mechanism did not engage ("" when it did).
  std::string MechanismProblem(const RunResult& r) const;

  ziziphus::core::ZiziphusSystem& sys() { return *sys_; }
  double setup_s() const { return setup_s_; }

  /// Equivalent app::RunExperiment inputs (fault-free workloads only).
  static ziziphus::app::WorkloadSpec AppWorkload(const WorkloadSpec& spec,
                                                 std::uint64_t seed);
  static ziziphus::core::NodeConfig NodeConfigFor(const WorkloadSpec& spec);

 private:
  std::uint64_t CompletedOps() const;
  void TimedRunUntil(SimTime t);
  double FailoverMs() const;
  double RecoveryMs() const;

  const WorkloadSpec& spec_;
  std::unique_ptr<ziziphus::core::ZiziphusSystem> sys_;
  std::vector<std::unique_ptr<ziziphus::app::MobileClient>> clients_;
  SimTime crash_at_ = 0;
  double setup_s_ = 0;
  ziziphus::CounterSet counters0_;
  std::vector<std::uint64_t> cpu_busy0_, cpu_crypto0_;
  std::vector<std::uint64_t> bucket_completions_;
  std::vector<std::uint64_t> bucket_new_views_;
  std::vector<double> slice_seconds_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
