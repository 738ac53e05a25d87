#ifndef ZIZIPHUS_APP_SOAK_H_
#define ZIZIPHUS_APP_SOAK_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/invariants.h"
#include "sim/soak.h"

namespace ziziphus::app {

/// Knobs of one seeded long-horizon soak run. Like ChaosOptions, every
/// random decision derives from `seed`; unlike chaos, the workload is
/// open-ended (clients submit until the horizon, paced by the schedule's
/// diurnal wave) and the run's subject is memory, not fault survival.
struct SoakOptions {
  std::uint64_t seed = 1;
  std::size_t zones = 3;
  std::size_t f = 1;
  sim::EventQueueKind queue = sim::EventQueueKind::kCalendar;

  /// Long-horizon schedule: diurnal wave, flash crowds, regional outages,
  /// amnesia crash/recover pairs.
  sim::SoakScheduleConfig schedule;

  /// Same-zone XFER pairs per zone, running until the horizon.
  std::size_t pairs_per_zone = 2;
  /// PUT writers per zone cycling over `writer_record_window` records, so
  /// application state stabilizes while the op stream keeps flowing.
  std::size_t writers_per_zone = 1;
  std::size_t writer_record_window = 64;
  /// Zone-hopping migrators; each is bootstrapped with
  /// `migrator_records` data records so migrations carry real state
  /// (exercising the chunked path when it exceeds chunk_records).
  std::size_t migrators = 2;
  std::size_t migrator_records = 200;
  std::size_t migrations_per_client = 6;
  /// Peak-load think time; the effective pause is base_think divided by
  /// the schedule's LoadFactor (so the trough is slower, crowds faster).
  Duration base_think = Millis(600);

  // ---- Retention arms (the soak's experiment variables) ----
  bool trim_at_checkpoint = true;
  bool delta_state_transfer = true;
  bool compact_sync = true;
  /// Tighter than the production default (32) so the soak's modest global
  /// load pushes decided ballot state past the window and compaction runs.
  std::size_t sync_keep_window = 8;
  /// Tight checkpoint interval so trimming is visible inside the horizon.
  SeqNum checkpoint_interval = 32;

  /// Footprint sampling cadence (one fleet-wide sample per period).
  Duration sample_period = Seconds(1);
  /// Post-horizon drain + completion budget.
  Duration drain = Seconds(15);
  Duration completion_wait = Seconds(60);
};

/// One fleet-wide memory sample (sums across every replica).
struct SoakMemSample {
  SimTime at = 0;
  /// Retention-bounded bytes: PBFT logs/proofs/caches + data-sync ballot
  /// state. This is the curve that must plateau with trimming on.
  std::uint64_t live_bytes = 0;
  std::uint64_t app_bytes = 0;
  std::uint64_t commit_log_bytes = 0;
  std::uint64_t wal_entries = 0;
  std::uint64_t prepared_proofs = 0;
  std::uint64_t reply_cache_entries = 0;
  std::uint64_t sync_requests = 0;
};

struct SoakReport {
  std::vector<sim::InvariantViolation> violations;
  std::uint64_t local_completed = 0;
  std::uint64_t global_completed = 0;
  /// All clients quiesced (no in-flight op) by the deadline.
  bool drained = false;
  std::uint64_t events = 0;
  SimTime end_time = 0;

  std::vector<SoakMemSample> samples;
  std::uint64_t high_water_live_bytes = 0;
  std::uint64_t final_live_bytes = 0;
  /// max(live_bytes) over the second half of the horizon divided by
  /// max(live_bytes) over the first half: ~1 when the curve plateaus,
  /// substantially above 1 when retention grows without bound.
  double PlateauRatio() const;

  std::uint64_t fingerprint = 0;
  std::map<std::string, std::uint64_t> counters;
  std::string obs_json;

  bool ok() const { return violations.empty() && drained; }
  std::string Summary() const;
};

/// Runs one seeded soak schedule against a full Ziziphus deployment,
/// sampling fleet memory footprints throughout and sweeping the
/// InvariantChecker at the end.
SoakReport RunZiziphusSoak(const SoakOptions& options);

/// One rejoin probe: a single zone carrying `records` bootstrapped data
/// records runs a light workload; one replica amnesia-crashes, misses the
/// ops submitted during its outage, then rejoins. Measures wall-clock (sim)
/// time from recovery until the victim has re-executed everything, under
/// delta or full-snapshot state transfer.
struct RejoinProbeOptions {
  std::uint64_t seed = 7;
  std::size_t records = 1024;
  bool delta_state_transfer = true;
  sim::EventQueueKind queue = sim::EventQueueKind::kCalendar;
  /// Light load runs from 0 to crash_at + outage (the victim's gap), then
  /// stops so the catch-up target is fixed.
  Duration warmup = Seconds(2);
  Duration outage = Seconds(2);
  Duration think = Millis(100);
};

struct RejoinProbeResult {
  std::size_t records = 0;
  bool delta_enabled = false;
  bool caught_up = false;
  /// Recovery instant -> victim fully re-executed.
  Duration time_to_rejoin = 0;
  std::uint64_t delta_transfers = 0;
  std::uint64_t full_transfers = 0;
  /// Wire-size estimate of the installed state response.
  std::uint64_t transfer_bytes = 0;
};

RejoinProbeResult RunRejoinProbe(const RejoinProbeOptions& options);

}  // namespace ziziphus::app

#endif  // ZIZIPHUS_APP_SOAK_H_
