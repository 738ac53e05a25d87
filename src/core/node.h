#ifndef ZIZIPHUS_CORE_NODE_H_
#define ZIZIPHUS_CORE_NODE_H_

#include <functional>
#include <memory>

#include "core/data_sync.h"
#include "core/durable.h"
#include "core/endorsement.h"
#include "core/lazy_sync.h"
#include "core/lock_table.h"
#include "core/messages.h"
#include "core/metadata.h"
#include "core/migration.h"
#include "core/topology.h"
#include "core/zone_app.h"
#include "pbft/engine.h"
#include "sim/simulation.h"

namespace ziziphus::core {

/// Builds the local PBFT engine for one replica. Lets chaos tests
/// substitute a Byzantine PbftEngine subclass on selected replicas: the
/// factory sees the host process and can key off process->id(). A null
/// factory means the stock engine.
using PbftEngineFactory = std::function<std::unique_ptr<pbft::PbftEngine>(
    sim::Process* process, const crypto::KeyRegistry* keys,
    pbft::PbftConfig config, pbft::StateMachine* state_machine)>;

/// Rebuilds a node's application state machine from scratch after an
/// amnesia crash (Finalize wires the system's AppFactory here). Null means
/// recovery keeps the pre-crash application object, modeling an app whose
/// own storage is durable.
using NodeAppFactory =
    std::function<std::unique_ptr<ZoneStateMachine>(ZoneId zone)>;

/// Configuration shared by all engines on one Ziziphus replica.
struct NodeConfig {
  pbft::PbftConfig pbft;     // members filled in by Init from the topology
  SyncConfig sync;
  MigrationConfig migration;
  PolicyConfig policy;
  /// Enables lazy checkpoint sharing across zones (Section V-B).
  bool lazy_sync = true;
  PbftEngineFactory pbft_factory;
  NodeAppFactory app_factory;
  /// System-wide ballot -> executed-request record (ZiziphusSystem's);
  /// null leaves executions unreported.
  ExecutionLedger* ledger = nullptr;
};

/// One Ziziphus edge replica: a single simulated core running
///   - a PBFT engine for the zone's local transactions,
///   - the intra-zone endorsement machinery,
///   - the data synchronization engine (global transactions),
///   - the data migration engine, and
///   - the lazy checkpoint synchronization engine.
///
/// The node routes delivered messages and timers into the right engine and
/// wires the cross-engine callbacks (commit → migration, suspicion → view
/// change, view change → re-lead, executed → client replies).
class ZiziphusNode : public sim::Process {
 public:
  ZiziphusNode() = default;

  /// Two-phase initialization: construct, register with the simulation
  /// (assigns the NodeId), then Init once the full topology is known.
  void Init(const crypto::KeyRegistry* keys, const Topology* topology,
            ZoneId zone, std::unique_ptr<ZoneStateMachine> app,
            NodeConfig config);

  // ---- Introspection ---------------------------------------------------
  ZoneId zone() const { return zone_; }
  pbft::PbftEngine& pbft() { return *pbft_; }
  DataSyncEngine& sync() { return *sync_; }
  MigrationEngine& migration() { return *migration_; }
  LazySyncEngine& lazy_sync() { return *lazy_; }
  ZoneEndorser& endorser() { return *endorser_; }
  LockTable& locks() { return locks_; }
  GlobalMetadata& metadata() { return *metadata_; }
  ZoneStateMachine& app() { return *app_; }

  /// Approximate retained bytes of protocol and application state on this
  /// replica, aggregated from the engines' retention introspection. The
  /// soak harness samples this on a coarse tick to draw heap high-water
  /// curves; it is an estimate with fixed per-entry constants, not an
  /// allocator measurement, so it is deterministic across runs. Global-op
  /// bookkeeping in it is O(zones + clients + in flight): watermarks, not
  /// histories (DESIGN.md §11). Durable state is not counted.
  struct MemoryFootprint {
    std::size_t pbft_bytes = 0;
    /// Undecided and recently decided requests, plus the client and chain
    /// watermarks that replace the executed-op history.
    std::size_t sync_bytes = 0;
    /// Endorsement instances in flight plus unretired tombstones.
    std::size_t endorse_bytes = 0;
    /// Migration working sets, each client's latest tombstone (with its
    /// STATE at a source) and the install watermarks.
    std::size_t migration_bytes = 0;
    std::size_t app_bytes = 0;
    std::size_t commit_log_bytes = 0;
    std::size_t wal_entries = 0;
    std::size_t prepared_proofs = 0;
    std::size_t reply_cache_entries = 0;
    std::size_t sync_requests = 0;
    /// The protocol state the soak's retention.live_bytes gauge sums.
    std::size_t live_bytes() const {
      return pbft_bytes + sync_bytes + endorse_bytes + migration_bytes;
    }
    std::size_t total_bytes() const { return live_bytes() + app_bytes; }
  };
  MemoryFootprint Footprint() const;

  /// Marks a client as homed (lock = TRUE) at bootstrap.
  void BootstrapClient(ClientId client) { locks_.SetLocked(client, true); }

  /// Installs a client's initial records and remembers them as durable
  /// provisioning: a node recovering from an amnesia crash re-installs them
  /// into its rebuilt application before replaying consensus state (they
  /// model data loaded from the deployment image, not from RAM).
  void InstallBootstrapRecords(ClientId client,
                               const storage::KvStore::Map& records);

  // ---- Crash recovery --------------------------------------------------
  /// How many amnesia recoveries this node has been through.
  std::uint64_t recoveries() const { return recoveries_; }
  /// The node's durable store (what survives an amnesia crash). Exposed so
  /// the invariant checker can compare live engine state against it.
  const DurableStore& durable() const { return durable_; }

 protected:
  void OnMessage(const sim::MessagePtr& msg) override;
  void OnTimer(const sim::TimerTag& tag) override;
  void OnAmnesiaRecover() override;

 private:
  /// (Re)constructs the PBFT / endorsement / data-sync / migration /
  /// lazy-sync engines and their cross-engine wiring. Called by Init and
  /// again by OnAmnesiaRecover, which discards the old engines first.
  void BuildEngines();
  void OnGlobalExecuted(const MigrationOp& op, Ballot ballot,
                        ZoneId initiator_zone, const std::string& result);

  const crypto::KeyRegistry* keys_ = nullptr;
  const Topology* topology_ = nullptr;
  ZoneId zone_ = kInvalidZone;
  NodeConfig config_;

  std::unique_ptr<ZoneStateMachine> app_;
  std::unique_ptr<GlobalMetadata> metadata_;
  LockTable locks_;
  DurableStore durable_;
  std::map<ClientId, storage::KvStore::Map> bootstrap_records_;
  std::uint64_t recoveries_ = 0;
  /// Sim time of the last OnAmnesiaRecover; zeroed once the first
  /// post-rejoin execution lands (feeds recovery.time_to_rejoin_us).
  SimTime rejoin_started_at_ = 0;
  std::unique_ptr<pbft::PbftEngine> pbft_;
  std::unique_ptr<ZoneEndorser> endorser_;
  std::unique_ptr<DataSyncEngine> sync_;
  std::unique_ptr<MigrationEngine> migration_;
  std::unique_ptr<LazySyncEngine> lazy_;
};

}  // namespace ziziphus::core

#endif  // ZIZIPHUS_CORE_NODE_H_
