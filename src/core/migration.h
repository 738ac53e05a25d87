#ifndef ZIZIPHUS_CORE_MIGRATION_H_
#define ZIZIPHUS_CORE_MIGRATION_H_

#include <functional>
#include <map>
#include <memory>
#include <unordered_map>

#include "common/costs.h"
#include "core/durable.h"
#include "core/endorsement.h"
#include "core/lock_table.h"
#include "core/messages.h"
#include "core/topology.h"
#include "sim/simulation.h"
#include "sim/timer_tag.h"

namespace ziziphus::core {

struct MigrationConfig {
  /// How long destination-zone nodes wait for the STATE message before
  /// probing the source zone with response-queries.
  Duration state_wait_timeout_us = Seconds(2);
  /// Records per chunk of a streamed STATE transfer. A client whose record
  /// set fits in one chunk ships as the classic single StateTransferMsg;
  /// larger states stream as a manifest plus per-chunk slices so one giant
  /// message never monopolizes the inter-zone link.
  std::size_t chunk_records = 64;
  NodeCosts costs;
};

/// The data migration protocol (Algorithm 2): once the data synchronization
/// protocol commits a migration, the source zone reaches consensus on the
/// client's records R(c), certifies them with 2f+1 signatures, and ships
/// them to the destination zone, which validates, appends, re-enables the
/// client (lock(c) = TRUE) and replies.
class MigrationEngine {
 public:
  /// Reads the client's records from the local application state.
  using StateProvider =
      std::function<storage::KvStore::Map(ClientId client)>;
  /// Installs migrated records into the local application state.
  /// `migration_ts` is the migration op's client timestamp: every write the
  /// client made before migrating carries a lower one, so the host can
  /// advance its read-your-writes coverage for the client with the install.
  using StateInstaller = std::function<void(
      ClientId client, const storage::KvStore::Map& records,
      RequestTimestamp migration_ts)>;
  /// Fired at destination-zone nodes when the append completes; the host
  /// sends the final reply to the client.
  using DoneCallback = std::function<void(const MigrationOp& op)>;
  /// Re-delivers the global commit for `request_id` to `zone` (wired to
  /// DataSyncEngine::ReshipCommit). Fired by a destination whose STATE
  /// probes keep going unanswered: the source zone may have missed the
  /// commit entirely (amnesiac primary), so no one there can generate the
  /// records until it is re-delivered.
  using CommitReshipper = std::function<void(std::uint64_t request_id,
                                             ZoneId zone)>;

  MigrationEngine(sim::Process* process, const crypto::KeyRegistry* keys,
                  const Topology* topology, ZoneId my_zone, LockTable* locks,
                  ZoneEndorser* endorser, MigrationConfig config);

  /// Kind byte for the single timer this engine arms (state-wait probe),
  /// carried in sim::TimerTag{kMigration, kStateWaitTimer, migration id}.
  enum TimerKind : std::uint8_t { kStateWaitTimer = 1 };

  /// Request-id namespace for migration-related response queries, so they
  /// do not collide with data-synchronization queries.
  static std::uint64_t QueryId(std::uint64_t request_id) {
    return Hasher(0x9167).Add(request_id).Finish();
  }

  /// Digest of a record map (order-insensitive).
  static std::uint64_t RecordsDigest(const storage::KvStore::Map& records);

  /// Called at every node of the source and destination zones when the
  /// first sub-transaction executes (commit of Algorithm 1). The source
  /// primary initiates record generation; destination nodes start waiting
  /// for the state.
  void OnGlobalExecuted(const MigrationOp& op, Ballot ballot);

  /// Routes kStateTransfer and migration-scoped kResponseQuery messages.
  bool HandleMessage(const sim::MessagePtr& msg);
  /// Feeds an expired timer the host routed here (tag.engine == kMigration).
  void HandleTimer(const sim::TimerTag& tag);

  /// Endorsement routing for kMigrationState / kMigrationAppend phases.
  bool ValidateEndorse(const EndorsePrePrepareMsg& pp);
  /// Whether migration `id` is finished here at or above `ballot`; with no
  /// state for it, whether `op` (null: nothing to go by) is superseded.
  bool Settled(std::uint64_t id, Ballot ballot, const MigrationOp* op) const;
  void OnEndorseQuorum(const EndorseKey& key, const EndorsePrePrepareMsg& pp,
                       const crypto::Certificate& cert);

  void set_state_provider(StateProvider p) { provider_ = std::move(p); }
  void set_state_installer(StateInstaller i) { installer_ = std::move(i); }
  void set_done_callback(DoneCallback cb) { done_ = std::move(cb); }
  void set_commit_reshipper(CommitReshipper r) { reship_ = std::move(r); }

  std::uint64_t migrations_completed() const { return completed_; }

  // ---- Durability (amnesia crash recovery) ----------------------------
  /// Attaches the durable write-through target for migration progress
  /// markers (Algorithm 2 sub-transactions in flight).
  void set_durable(MigrationDurableState* d) { durable_ = d; }
  /// Resumes in-flight migrations from durable markers: the destination
  /// re-arms its STATE-wait probe (or re-installs already-appended
  /// records into the rebuilt app); the source restores its certified
  /// STATE cache so response-queries keep getting answered.
  void RestoreFromDurable();

  /// Retention introspection: migrations with a working set (in flight),
  /// finished ones reduced to tombstones (at most one per client: its
  /// latest), how many record sets the working sets hold (records, a
  /// pending STATE, buffered chunks), how many tombstones keep a certified
  /// STATE for late probes, and the clients with an install watermark.
  struct RetentionStats {
    std::size_t live = 0;
    std::size_t tombstones = 0;
    std::size_t record_maps = 0;
    std::size_t state_caches = 0;
    std::size_t install_watermarks = 0;
    std::size_t approx_bytes = 0;
  };
  RetentionStats retention() const;

 private:
  /// Working set of a migration still in flight at this node.
  struct InFlight {
    MigrationOp op;
    RecordSet records;
    std::uint64_t records_digest = 0;
    std::uint64_t wait_timer = 0;
    int wait_rounds = 0;
    /// Trace spans (0 when untraced): source primary's record read ->
    /// STATE shipped, and destination primary's STATE received -> installed.
    obs::SpanId source_span = 0;
    obs::SpanId install_span = 0;
    /// Chunked-STATE reassembly (destination side). Chunks tolerate arrival
    /// before the manifest; digests are checked once both are present. Not
    /// durably mirrored — an amnesiac destination re-fetches via the probe
    /// path, which resends the cached full STATE.
    std::shared_ptr<const MigrationManifestMsg> manifest;
    std::map<std::uint32_t, storage::KvStore::Map> chunks;
  };
  /// One migration as this node sees it. `live` holds the working set and is
  /// dropped once the migration is finished here (destination: appended;
  /// source: STATE certified). What remains is a tombstone: the ballot and,
  /// at the source, the certified STATE late probes get. A client keeps only
  /// its latest tombstone; an older one is erased, and the destination's
  /// install watermark keeps late STATEs for it no-ops.
  struct MigState {
    Ballot ballot;
    /// The migrating client and the op's timestamp, once known.
    ClientId client = kInvalidClient;
    RequestTimestamp ts = 0;
    /// Source: the certified STATE (kept after finishing, for probes).
    /// Destination: the verified STATE, until the append.
    std::shared_ptr<const StateTransferMsg> state_msg;
    std::unique_ptr<InFlight> live;
  };

  /// The state for `id`, created (and indexed by its query id) if new.
  MigState& StateFor(std::uint64_t id);
  /// The working set of `st`, re-created if the state was a tombstone.
  static InFlight& Live(MigState& st);
  /// Drops the working set once the migration is finished at this node,
  /// cancelling a pending state-wait probe; an appended destination also
  /// drops its STATE and raises the client's install watermark. The
  /// client's older tombstone (or this one, if it is the older) is erased
  /// with its durable marker, so `st` may be gone on return.
  void Retire(std::uint64_t id, MigState& st, bool appended);
  /// Erases a finished migration and its durable marker.
  void Forget(std::uint64_t id);
  /// Whether a STATE for (client, ts) is late: the destination already
  /// installed that migration or a newer one of the client.
  bool Installed(ClientId client, RequestTimestamp ts) const;
  /// Whether a newly executed `op` with no state here is older than what
  /// this node already finished for its client (installed, or a newer
  /// tombstone): it has nothing left to do.
  bool Superseded(const MigrationOp& op) const;
  void ArmStateWait(std::uint64_t id, InFlight& live, Duration delay);
  void StartRecordGeneration(MigState& st);
  void ShipState(MigState& st);
  void HandleStateTransfer(
      const std::shared_ptr<const StateTransferMsg>& msg);
  void HandleManifest(
      const std::shared_ptr<const MigrationManifestMsg>& msg);
  void HandleChunk(const std::shared_ptr<const MigrationChunkMsg>& msg);
  void MaybeAssembleChunks(MigState& st);
  void HandleResponseQuery(const std::shared_ptr<const ResponseQueryMsg>& msg,
                           MigState& st);
  Status VerifyZoneCert(const crypto::Certificate& cert,
                        crypto::Digest expected, ZoneId zone) const {
    return VerifyZoneCertificateOn(*process_, config_.costs.crypto, *keys_,
                                   topology_->zone(zone), cert, expected);
  }

  sim::Process* process_;
  const crypto::KeyRegistry* keys_;
  const Topology* topology_;
  ZoneId my_zone_;
  LockTable* locks_;
  ZoneEndorser* endorser_;
  MigrationConfig config_;
  MigrationDurableState* durable_ = nullptr;
  StateProvider provider_;
  StateInstaller installer_;
  DoneCallback done_;
  CommitReshipper reship_;

  std::unordered_map<std::uint64_t, MigState> states_;
  /// Client -> id of its latest finished migration here (a tombstone).
  std::unordered_map<ClientId, std::uint64_t> finished_;
  /// Destination install watermark: client -> highest migration timestamp
  /// appended here.
  std::unordered_map<ClientId, RequestTimestamp> installed_;
  /// QueryId(id) -> id for every id in states_ that can still be asked
  /// about (all but appended destinations), so a response query is routed
  /// without scanning the migration history.
  std::unordered_map<std::uint64_t, std::uint64_t> query_ids_;
  std::uint64_t completed_ = 0;
};

}  // namespace ziziphus::core

#endif  // ZIZIPHUS_CORE_MIGRATION_H_
