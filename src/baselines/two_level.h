#ifndef ZIZIPHUS_BASELINES_TWO_LEVEL_H_
#define ZIZIPHUS_BASELINES_TWO_LEVEL_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "core/endorsement.h"
#include "core/lock_table.h"
#include "core/messages.h"
#include "core/metadata.h"
#include "core/migration.h"
#include "core/system.h"
#include "core/topology.h"
#include "core/zone_app.h"
#include "pbft/engine.h"
#include "sim/simulation.h"
#include "sim/timer_tag.h"

namespace ziziphus::baselines {

/// Two-level PBFT wire types occupy [80, 90).
enum TwoLevelMessageType : sim::MessageType {
  kGPrePrepare = 80,
  kGPrepare = 81,
  kGCommit = 82,
};

crypto::Digest GPrePrepareDigest(std::uint64_t request_id, SeqNum gseq,
                                 const std::vector<core::MigrationOp>& ops);
crypto::Digest GPrepareDigest(std::uint64_t request_id, SeqNum gseq,
                              ZoneId zone);
crypto::Digest GCommitDigest(std::uint64_t request_id, SeqNum gseq,
                             ZoneId zone);

/// Top-level PBFT pre-prepare: the global leader zone's certified proposal.
struct GPrePrepareMsg : sim::Message {
  GPrePrepareMsg() : Message(kGPrePrepare) {}
  std::uint64_t request_id = 0;
  SeqNum gseq = 0;
  /// Batched global operations (the global primary batches migration
  /// requests exactly as a local PBFT primary batches client requests).
  std::vector<core::MigrationOp> ops;
  ZoneId initiator_zone = kInvalidZone;
  crypto::Certificate cert;
  crypto::Digest ComputeDigest() const override {
    return GPrePrepareDigest(request_id, gseq, ops);
  }
  std::size_t WireSize() const override {
    return 112 + ops.size() * 32 + cert.size() * 16;
  }
};

/// Top-level prepare vote from one zone (multicast to every zone: the
/// quadratic phase of PBFT at the top level).
struct GPrepareMsg : sim::Message {
  GPrepareMsg() : Message(kGPrepare) {}
  std::uint64_t request_id = 0;
  SeqNum gseq = 0;
  ZoneId zone = kInvalidZone;
  crypto::Certificate cert;
  crypto::Digest ComputeDigest() const override {
    return GPrepareDigest(request_id, gseq, zone);
  }
  std::size_t WireSize() const override { return 112 + cert.size() * 16; }
};

/// Top-level commit vote from one zone.
struct GCommitMsg : sim::Message {
  GCommitMsg() : Message(kGCommit) {}
  std::uint64_t request_id = 0;
  SeqNum gseq = 0;
  ZoneId zone = kInvalidZone;
  crypto::Certificate cert;
  crypto::Digest ComputeDigest() const override {
    return GCommitDigest(request_id, gseq, zone);
  }
  std::size_t WireSize() const override { return 112 + cert.size() * 16; }
};

/// Zone that hosts the global primary (assigns global sequence numbers);
/// clients send their global requests there.
inline constexpr ZoneId kTwoLevelLeaderZone = 0;

struct TwoLevelConfig {
  NodeCosts costs;
};

/// The paper's "two-level PBFT" comparator: local transactions use zone
/// PBFT exactly like Ziziphus, but global transactions run PBFT (three
/// phases, 2F+1-of-3F+1 zone quorums, all-to-all zone communication) at the
/// top level instead of Ziziphus's linear Paxos-with-certificates. The top
/// level's participants are the topology's zones, so F = (zones - 1) / 3.
class TwoLevelGlobalEngine {
 public:
  using ExecutedCallback =
      std::function<void(const core::MigrationOp& op, ZoneId initiator_zone,
                         const std::string& result)>;
  using GlobalApplyCallback =
      std::function<std::string(const core::MigrationOp& op)>;

  TwoLevelGlobalEngine(sim::Process* process,
                       const crypto::KeyRegistry* keys,
                       const core::Topology* topology, ZoneId my_zone,
                       core::GlobalMetadata* metadata, core::LockTable* locks,
                       core::ZoneEndorser* endorser, TwoLevelConfig config);

  bool HandleMessage(const sim::MessagePtr& msg);
  /// The engine's one timer (the batch timer) fired.
  void HandleTimer();
  bool ValidateEndorse(const core::EndorsePrePrepareMsg& pp);
  void OnEndorseQuorum(const core::EndorseKey& key,
                       const crypto::Certificate& cert);

  void set_executed_callback(ExecutedCallback cb) {
    executed_callback_ = std::move(cb);
  }
  void set_global_apply_callback(GlobalApplyCallback cb) {
    global_apply_callback_ = std::move(cb);
  }

  std::uint64_t executed_count() const { return executed_count_; }

 private:
  struct TLRequest {
    std::uint64_t id = 0;
    std::vector<core::MigrationOp> ops;
    SeqNum gseq = 0;
    ZoneId initiator_zone = kInvalidZone;
    std::set<ZoneId> gprepares;
    std::set<ZoneId> gcommits;
    bool sent_gprepare = false;
    bool committed = false;
    bool executed = false;
  };

  // Timer kinds, carried in sim::TimerTag{kTwoLevel, kind} (timer_tag.h).
  enum TimerKind : std::uint8_t { kBatchTimer = 1 };
  // Global-request batching at the leader.
  static constexpr std::size_t kBatchMax = 64;
  static constexpr Duration kBatchTimeout = Millis(2);

  std::size_t ZoneQuorum() const {
    return 2 * ((topology_->num_zones() - 1) / 3) + 1;
  }
  std::vector<NodeId> AllNodes() const { return topology_->AllNodes(); }
  void FlushBatch();

  void HandleMigrationRequest(
      const std::shared_ptr<const core::MigrationRequestMsg>& msg);
  void HandleGPrePrepare(const std::shared_ptr<const GPrePrepareMsg>& msg);
  void HandleGPrepare(const std::shared_ptr<const GPrepareMsg>& msg);
  void HandleGCommit(const std::shared_ptr<const GCommitMsg>& msg);
  void TryPrepare(TLRequest& req);
  void TryCommit(TLRequest& req);
  void ExecuteReady();
  Status VerifyZoneCert(const crypto::Certificate& cert,
                        crypto::Digest expected, ZoneId zone) const;

  sim::Process* process_;
  const crypto::KeyRegistry* keys_;
  const core::Topology* topology_;
  ZoneId my_zone_;
  core::GlobalMetadata* metadata_;
  core::LockTable* locks_;
  core::ZoneEndorser* endorser_;
  TwoLevelConfig config_;
  ExecutedCallback executed_callback_;
  GlobalApplyCallback global_apply_callback_;

  std::unordered_map<std::uint64_t, TLRequest> requests_;
  std::vector<core::MigrationOp> pending_ops_;
  std::unordered_set<std::uint64_t> queued_op_ids_;
  std::unordered_set<std::uint64_t> executed_op_ids_;
  bool batch_timer_armed_ = false;
  std::map<SeqNum, std::uint64_t> by_seq_;
  SeqNum next_gseq_ = 0;       // leader side
  SeqNum last_exec_gseq_ = 0;  // execution watermark
  std::uint64_t executed_count_ = 0;
};

/// One replica of the two-level PBFT system: local PBFT + the top-level
/// PBFT engine + the same data migration protocol as Ziziphus (so the
/// comparison includes equivalent state shipping).
class TwoLevelNode : public sim::Process {
 public:
  struct Config {
    pbft::PbftConfig pbft;
    TwoLevelConfig two_level;
    core::MigrationConfig migration;
    core::PolicyConfig policy;
  };

  TwoLevelNode() = default;

  void Init(const crypto::KeyRegistry* keys, const core::Topology* topology,
            ZoneId zone, std::unique_ptr<core::ZoneStateMachine> app,
            Config config);

  ZoneId zone() const { return zone_; }
  pbft::PbftEngine& pbft() { return *pbft_; }
  TwoLevelGlobalEngine& global() { return *global_; }
  core::MigrationEngine& migration() { return *migration_; }
  core::ZoneEndorser& endorser() { return *endorser_; }
  core::GlobalMetadata& metadata() { return *metadata_; }
  core::LockTable& locks() { return locks_; }
  core::ZoneStateMachine& app() { return *app_; }
  void BootstrapClient(ClientId client) { locks_.SetLocked(client, true); }
  void InstallBootstrapRecords(ClientId client,
                               const storage::KvStore::Map& records) {
    app_->InstallClientRecords(client, records);
  }

 protected:
  void OnMessage(const sim::MessagePtr& msg) override;
  void OnTimer(const sim::TimerTag& tag) override;

 private:
  const crypto::KeyRegistry* keys_ = nullptr;
  const core::Topology* topology_ = nullptr;
  ZoneId zone_ = kInvalidZone;
  Config config_;
  std::unique_ptr<core::ZoneStateMachine> app_;
  std::unique_ptr<core::GlobalMetadata> metadata_;
  core::LockTable locks_;
  std::unique_ptr<pbft::PbftEngine> pbft_;
  std::unique_ptr<core::ZoneEndorser> endorser_;
  std::unique_ptr<TwoLevelGlobalEngine> global_;
  std::unique_ptr<core::MigrationEngine> migration_;
};

/// A two-level PBFT deployment. Finalize adds single-node (f = 0) witness
/// zones in California until the top level has 3F+1 participants,
/// F = (zones - 1) / 2 (the zone-failure tolerance of Ziziphus's majority
/// quorum). Witnesses are the paper's "additional nodes in the CA data
/// center that participate in global synchronization as zone leaders but
/// process no local transactions".
class TwoLevelSystem : public core::Deployment<TwoLevelNode> {
 public:
  using Deployment::Deployment;

  /// Adds the witness zones, then creates, registers and initializes every
  /// replica.
  void Finalize(const TwoLevelNode::Config& config,
                const AppFactory& app_factory);
};

}  // namespace ziziphus::baselines

#endif  // ZIZIPHUS_BASELINES_TWO_LEVEL_H_
