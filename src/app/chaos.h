#ifndef ZIZIPHUS_APP_CHAOS_H_
#define ZIZIPHUS_APP_CHAOS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "app/workload.h"
#include "common/types.h"
#include "pbft/config.h"
#include "sim/invariants.h"

namespace ziziphus::app {

/// Knobs of one seeded chaos run. Every random decision — fault timeline,
/// Byzantine roster and behaviours, client activity — derives from `seed`,
/// so a run is exactly reproducible from its options.
struct ChaosOptions {
  std::uint64_t seed = 1;
  std::size_t zones = 3;
  std::size_t f = 1;

  /// Same-zone XFER pairs per zone; each pair is two clients transferring
  /// back and forth (a conservation-friendly local workload).
  std::size_t pairs_per_zone = 2;
  std::size_t xfers_per_client = 6;
  /// Migration-only clients hopping between zones (global transactions).
  std::size_t migrators = 2;
  std::size_t migrations_per_client = 2;
  /// Pause between a client's completed operation and its next one. Paces
  /// the workload across the fault window — with no think time the whole
  /// workload completes in the first few hundred milliseconds and most
  /// scheduled faults hit an idle system.
  Duration client_think = Millis(900);

  /// Shared operation-mix knobs. Chaos workloads are scripted, not drawn,
  /// so only `mix.read_fraction > 0` matters: it makes every pair client
  /// issue one verified fast-path read of its own account after each
  /// completed transfer (and tightens the checkpoint interval so anchors
  /// exist inside the run). The default 0 keeps pre-existing seeds
  /// byte-identical: no extra rng draws, no config change, and the
  /// Byzantine kind distribution stays exactly as before.
  WorkloadMix mix;

  /// Zone ordering under test. Fast-path also runs the fault-adaptive
  /// timers (the EWMA-driven progress and abandon timers) and widens the
  /// Byzantine roster draw; the stable default keeps every pre-existing
  /// seed byte-identical.
  pbft::Ordering ordering = pbft::Ordering::kStable;

  /// Byzantine replicas per zone. Clamped to f unless allow_over_budget —
  /// the misconfiguration demo sets f+1 liars to break safety on purpose.
  std::size_t byzantine_per_zone = 1;
  bool allow_over_budget = false;

  /// Folds the forging read responder into the Byzantine roster: each
  /// rostered replica flips a coin from an *appended* rng stream and, on
  /// heads, swaps its drawn behaviour for the read-reply forger. Off (the
  /// default) draws nothing from the extra stream, so existing seeds keep
  /// their exact roster and fingerprint.
  bool byz_forge_reads = false;

  /// Flapping-latency links appended to the fault timeline from an appended
  /// rng stream: each flap congests one link mid-window and heals it a few
  /// hundred milliseconds later, the pathological input for latency-tracking
  /// adaptive timeouts. 0 (default) leaves existing schedules untouched.
  std::size_t latency_flaps = 0;

  /// Amnesia crash/recover pairs appended to the fault timeline: each
  /// victim loses all volatile state (RAM) and rejoins from its durable
  /// store — WAL replay, checkpoint install, state-transfer catch-up.
  /// Drawn from the rng *after* the base timeline, so enabling this never
  /// perturbs a seed's base fault schedule. 0 disables (the default, which
  /// keeps pre-existing seeds byte-identical).
  std::size_t amnesia_crashes = 0;

  /// Randomized faults (crashes, partitions, loss, duplication, delays,
  /// CPU slowdown) are injected inside [500ms, fault_window] and all healed
  /// at fault_window; the run then drains and waits for client completion.
  Duration fault_window = Seconds(10);
  Duration drain = Seconds(15);
  /// Extra budget (in 1s probes) for slow seeds to finish all client ops.
  Duration completion_wait = Seconds(90);
};

struct ChaosReport {
  std::vector<sim::InvariantViolation> violations;
  /// "node 5: mute-primary" per adversarial replica.
  std::vector<std::string> byzantine_roster;
  std::uint64_t local_completed = 0;
  std::uint64_t global_completed = 0;
  std::uint64_t local_expected = 0;
  std::uint64_t global_expected = 0;
  /// Fast-path reads (mix.read_fraction > 0 only): verified accepts,
  /// replies rejected by certificate/inclusion/session checks, and reads
  /// abandoned after trying every zone replica without an acceptable
  /// answer. Abandonment is legal (reads are best-effort under faults);
  /// accepting a bad reply is not — that is what read-validity catches.
  std::uint64_t reads_ok = 0;
  std::uint64_t reads_rejected = 0;
  std::uint64_t reads_abandoned = 0;
  bool all_done = false;
  std::uint64_t events = 0;
  SimTime end_time = 0;
  /// Hash over the run's full counter set: two runs of one seed must
  /// produce identical fingerprints (determinism regression probe).
  std::uint64_t fingerprint = 0;
  /// Final snapshot of the simulation's counters ("faults.crashes",
  /// "byz.equivocations_emitted", "pbft.new_views_entered", ...).
  std::map<std::string, std::uint64_t> counters;
  /// Full Recorder::ExportJson of the run ("ziziphus.obs.v1"). Two runs of
  /// one seed must produce byte-identical exports — the recovery and
  /// consensus tests diff this directly.
  std::string obs_json;
  /// Per zone, the application state digest of the furthest-executed honest
  /// replica at run end. The two orderings batch and order differently,
  /// so cross-ordering tests compare converged state through this instead
  /// of commit-log digests.
  std::map<ZoneId, std::uint64_t> final_state_digests;

  bool ok() const { return violations.empty() && all_done; }
  std::string Summary() const;
};

/// Runs one seeded chaos schedule against a full Ziziphus deployment and
/// sweeps the InvariantChecker at the end.
ChaosReport RunZiziphusChaos(const ChaosOptions& options);

/// The same crash/partition/loss/duplication/delay chaos against the
/// two-level PBFT baseline (no Byzantine roster — the baseline shares the
/// local PBFT layer; this guards the comparator's robustness and keeps the
/// benchmark comparison honest). Checks zone commit-log agreement and load
/// balances inline.
ChaosReport RunTwoLevelChaos(const ChaosOptions& options);

}  // namespace ziziphus::app

#endif  // ZIZIPHUS_APP_CHAOS_H_
