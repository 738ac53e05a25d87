#ifndef ZIZIPHUS_CORE_DATA_SYNC_H_
#define ZIZIPHUS_CORE_DATA_SYNC_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/costs.h"
#include "core/durable.h"
#include "core/endorsement.h"
#include "core/ledger.h"
#include "core/lock_table.h"
#include "core/messages.h"
#include "core/metadata.h"
#include "core/topology.h"
#include "crypto/certificate.h"
#include "sim/simulation.h"
#include "sim/timer_tag.h"

namespace ziziphus::core {

/// Configuration of the data synchronization protocol.
struct SyncConfig {
  /// Multi-Paxos style stable leader (Section IV-B1, last paragraph): the
  /// initiator zone is fixed per cluster and the propose/promise phases are
  /// skipped. The paper's throughput experiments run in this mode.
  bool stable_leader = true;

  /// Leader-side batching of concurrent global requests into one ballot
  /// (exactly as a PBFT primary batches client requests). Cross-cluster
  /// requests are never batched — each runs its own two-cluster instance.
  std::size_t batch_max = 64;
  Duration batch_timeout_us = Millis(2);

  /// Leader-side retransmission / re-proposal timeout for an uncommitted
  /// global request ("nodes use different timers for local and global
  /// transactions" — Section V-A).
  Duration retry_timeout_us = Seconds(2);

  /// Follower-side wait before multicasting RESPONSE-QUERY messages.
  Duration response_query_timeout_us = Seconds(1);

  /// Watchdog at initiator-zone backups: how long a relayed migration
  /// request may sit without the primary starting consensus on it.
  Duration relay_watch_timeout_us = Seconds(3);

  /// Ablation: run the full PBFT prepare round in *every* endorsement
  /// instead of skipping it where the ballot is already fixed (the paper's
  /// Section IV-B1 optimization). Benchmarked by bench_ablation.
  bool always_full_prepare = false;

  /// Retention of decided ballot state: once a request has executed and
  /// fallen `decided_keep_window` executions behind the newest one, its
  /// entry is erased (with its durable promise). Its ballot is at or below
  /// the chain's executed watermark and its ops at or below their clients'
  /// watermarks, so a late duplicate re-runs as a no-op. Recent decided
  /// requests stay whole so ReshipCommit and RESPONSE-QUERY handling can
  /// still resend their commit. Disabling keeps every decided instance
  /// forever (soak-bench control arm).
  bool compact_decided = true;
  std::size_t decided_keep_window = 32;

  NodeCosts costs;

  /// Test hook: called at `node` for every op an executing request carries,
  /// with whether it ran (false: the client watermark already held it).
  std::function<void(NodeId node, const MigrationOp& op, bool ran)>
      exec_observer;
};

/// The per-node engine for Ziziphus's global transactions: the data
/// synchronization protocol (Algorithm 1), its stable-leader variant with
/// request batching, the RESPONSE-QUERY failure handling (Section V-A),
/// and the cross-cluster data synchronization protocol (Section VI).
///
/// One engine instance runs on every replica; behaviour depends on the
/// node's role for each request (global primary, initiator-zone node,
/// follower-zone primary/node, source-zone proxy, ...).
class DataSyncEngine {
 public:
  /// Fired at every node per executed operation. `initiator_zone` is the
  /// zone whose nodes reply to the client; `result` the execution result.
  using ExecutedCallback =
      std::function<void(const MigrationOp& op, Ballot ballot,
                         ZoneId initiator_zone, const std::string& result)>;
  /// Fired when this node suspects its own zone primary (e.g., 2f+1
  /// response-queries from another zone); the host should trigger the local
  /// PBFT view change.
  using SuspectPrimaryCallback = std::function<void()>;
  /// Applies a non-migration global command (Steward baseline / cross-zone
  /// transactions) to the node's globally replicated application state.
  using GlobalApplyCallback =
      std::function<std::string(const MigrationOp& op)>;

  DataSyncEngine(sim::Process* process, const crypto::KeyRegistry* keys,
                 const Topology* topology, ZoneId my_zone,
                 GlobalMetadata* metadata, LockTable* locks,
                 ZoneEndorser* endorser, SyncConfig config);

  /// Routes top-level protocol messages; returns true if consumed.
  bool HandleMessage(const sim::MessagePtr& msg);
  /// Feeds an expired timer the host routed here (tag.engine ==
  /// kDataSync); `tag.key` is the request or op id it guards.
  void HandleTimer(const sim::TimerTag& tag);

  /// Endorsement routing: the host's ZoneEndorser calls these for data-sync
  /// phases (kPropose..kCommit, kCrossSource).
  bool ValidateEndorse(const EndorsePrePrepareMsg& msg);
  void OnEndorseQuorum(const EndorseKey& key, const EndorsePrePrepareMsg& pp,
                       const crypto::Certificate& cert);
  /// A vote that arrived after the instance's certificate completed.
  void OnLateEndorseVote(const EndorseKey& key, const crypto::Signature& sig);
  /// Whether request `request_id` is finished here at or above `ballot`:
  /// executed (a source leg: committed) at that ballot or a later one of
  /// the same chain. An erased request executed, but at an unknown ballot;
  /// it counts as settled iff `erased_settles`.
  bool Settled(std::uint64_t request_id, Ballot ballot,
               bool erased_settles) const;

  /// Local view changed (mirrors the zone's PBFT view). The new primary
  /// re-initiates pending uncommitted requests with fresh ballots.
  void OnViewChange(ViewId view);

  void set_executed_callback(ExecutedCallback cb) {
    executed_callback_ = std::move(cb);
  }
  void set_suspect_primary_callback(SuspectPrimaryCallback cb) {
    suspect_primary_callback_ = std::move(cb);
  }
  void set_global_apply_callback(GlobalApplyCallback cb) {
    global_apply_callback_ = std::move(cb);
  }

  /// Deterministic id for the source-cluster leg of a cross-cluster request.
  static std::uint64_t SourceLegId(std::uint64_t request_id) {
    return Hasher(0xc405).Add(request_id).Finish();
  }

  // ---- Introspection (tests / stats) ----------------------------------
  std::uint64_t committed_count() const { return committed_count_; }
  std::uint64_t executed_count() const { return executed_count_; }
  Ballot last_executed_ballot(ZoneId initiator) const;
  const GlobalMetadata& metadata() const { return *metadata_; }

  /// Where each execution's (ballot, request digest) is reported; the
  /// InvariantChecker compares them across nodes. Null disables reporting.
  void set_ledger(ExecutionLedger* ledger) { ledger_ = ledger; }

  // ---- Durability (amnesia crash recovery) ----------------------------
  /// Attaches the durable write-through target. Ballot promises, accepted
  /// ballots and execution bookkeeping are mirrored into `d` as they
  /// change, so a restarted replica can never double-vote a global ballot.
  void set_durable(SyncDurableState* d) { durable_ = d; }
  /// Rebuilds the forget-proof slice from durable state: scalar ballot
  /// bookkeeping plus promise bounds on (pre-created) request entries.
  void RestoreFromDurable();
  /// The live promise bound for a request (kNullBallot when none). The
  /// recovery invariant compares this against the durable promise: a
  /// recovered node must never report a lower bound than it persisted.
  Ballot PromiseBoundFor(std::uint64_t request_id) const {
    auto it = requests_.find(request_id);
    return it == requests_.end() ? kNullBallot : it->second.promised;
  }

  /// Re-multicasts the stored commit for `request_id` to `zone`'s members.
  /// Recovery aid: a zone that committed an op re-delivers the commit to a
  /// participant zone whose members missed it (e.g. an amnesiac primary
  /// that was down when the original commit broadcast went out). No-op if
  /// this node never saw the commit itself.
  void ReshipCommit(std::uint64_t request_id, ZoneId zone);

  /// Memory-footprint introspection for the soak harness: retained request
  /// instances and a size estimate of the per-instance protocol state, plus
  /// the execution bookkeeping that replaces a per-op history — one
  /// watermark per client and per chain, and the chain holes a skip left.
  /// None of it grows with the number of executed ops.
  struct RetentionStats {
    std::size_t requests = 0;
    std::size_t ops = 0;
    /// Clients with an op watermark, and chain holes below a watermark.
    std::size_t watermarked_clients = 0;
    std::size_t chain_holes = 0;
    std::size_t approx_bytes = 0;
  };
  RetentionStats retention() const;

 private:
  enum class Phase {
    kIdle,
    kProposing,
    kPromised,
    kAccepting,
    kAccepted,
    kCommitting,
    kCommitted,
  };
  enum TimerKind {
    kRetry = 1,
    kCommitWait = 2,
    kRelayWatch = 3,
    kChainSkip = 4,
    kBatch = 5,
  };

  /// One data-synchronization instance (a batch of global ops under one
  /// ballot, or a singleton cross-cluster request / source leg).
  struct RequestState {
    std::uint64_t id = 0;
    std::vector<MigrationOp> ops;
    Ballot ballot;
    Ballot prev;
    ZoneId initiator_zone = kInvalidZone;
    Phase phase = Phase::kIdle;
    bool i_am_leader = false;
    /// Per-instance Paxos promise bound (non-stable mode): a follower zone
    /// promises only ballots above this for this request.
    Ballot promised = kNullBallot;
    std::map<ZoneId, std::shared_ptr<const PromiseMsg>> promises;
    std::map<ZoneId, std::shared_ptr<const AcceptedMsg>> accepteds;
    std::shared_ptr<const GlobalCommitMsg> commit_msg;
    bool executed = false;
    int retries = 0;
    // Cross-cluster state (only singleton instances).
    bool cross = false;
    // Cross-zone transaction (Section IV-B3): singleton, participants are
    // the involved zones only.
    bool cross_zone = false;
    bool is_source_leg = false;
    std::uint64_t peer_request_id = 0;
    std::shared_ptr<const PreparedMsg> prepared;
    /// This zone's kAccepted certificate, grown by late votes, for
    /// re-sending ACCEPTED on a duplicate ACCEPT.
    crypto::Certificate accepted_cert;
    crypto::Certificate commit_cert;
    bool commit_cert_ready = false;
    // Execution chain coordinates.
    Ballot exec_ballot;
    Ballot exec_prev;
    // Cached top-level messages for leader retransmission.
    std::shared_ptr<const ProposeMsg> sent_propose;
    std::shared_ptr<const AcceptMsg> sent_accept;
    bool saw_endorse = false;
    // Failure handling. RESPONSE-QUERY senders tallied toward suspecting
    // the primary of `response_query_view` only: probes sent while an
    // earlier primary stalled are no evidence against its successor (see
    // HandleResponseQuery).
    std::set<NodeId> response_queries;
    ViewId response_query_view = 0;
    std::uint64_t commit_wait_timer = 0;
    std::uint64_t retry_timer = 0;
    int commit_wait_rounds = 0;
    // Causal trace of the client operation that started this request,
    // bridged across batch timers, retries, and view-change re-leads.
    obs::TraceContext trace;
    // Open ballot-round span on the leader (0 when untraced / not leader).
    obs::SpanId ballot_span = 0;

    const MigrationOp& op0() const { return ops.front(); }
  };

  const ZoneInfo& my_zone_info() const { return topology_->zone(my_zone_); }
  bool IsZonePrimary() const { return endorser_->IsPrimary(); }
  std::size_t ZoneMajorityFor(ClusterId cluster) const {
    return topology_->ZoneMajority(cluster);
  }
  std::vector<NodeId> ParticipantNodes(ClusterId cluster) const {
    return topology_->AllNodesInCluster(cluster);
  }
  std::vector<NodeId> ProxyNodes(const ZoneInfo& zone, ViewId view) const;
  bool IAmProxy() const;

  // Message handlers.
  void HandleMigrationRequest(
      const std::shared_ptr<const MigrationRequestMsg>& msg);
  void HandlePropose(const std::shared_ptr<const ProposeMsg>& msg);
  void HandlePromise(const std::shared_ptr<const PromiseMsg>& msg);
  void HandleAccept(const std::shared_ptr<const AcceptMsg>& msg);
  void HandleAccepted(const std::shared_ptr<const AcceptedMsg>& msg);
  void HandleGlobalCommit(const std::shared_ptr<const GlobalCommitMsg>& msg);
  void HandleResponseQuery(
      const std::shared_ptr<const ResponseQueryMsg>& msg);
  void HandleCrossPropose(const std::shared_ptr<const CrossProposeMsg>& msg);
  void HandlePrepared(const std::shared_ptr<const PreparedMsg>& msg);

  // Leader actions.
  void QueueOrLead(const MigrationOp& op);
  void FlushBatch();
  void LeadRequest(RequestState& req);
  void StartAcceptPhase(RequestState& req);
  void SendAccept(RequestState& req, const crypto::Certificate& cert);
  void StartCommitPhase(RequestState& req);
  void SendCommit(RequestState& req);
  void RetryRequest(std::uint64_t request_id);

  // Execution.
  void MaybeExecute(std::uint64_t request_id);
  void ExecuteCommit(RequestState& req);
  void FlushWaiters(Ballot ballot);
  void CompactDecided(std::uint64_t request_id);
  /// Whether `ballot` ran here: at or below its chain's watermark and not a
  /// hole a chain skip stepped over.
  bool BallotExecuted(Ballot ballot) const;

  Status VerifyZoneCert(const crypto::Certificate& cert,
                        crypto::Digest expected, ZoneId zone) const {
    return VerifyZoneCertificateOn(*process_, config_.costs.crypto, *keys_,
                                   topology_->zone(zone), cert, expected);
  }

  Ballot NextBallot(ZoneId chain_zone);
  /// Arms an engine timer keyed by the request (or op) id it guards.
  std::uint64_t ArmTimer(std::uint64_t request_id, TimerKind kind,
                         Duration delay);
  /// The request's state, created (and its id added to request_order_)
  /// if new.
  RequestState& Track(std::uint64_t id);
  /// Cancels a timer ArmTimer set and zeroes its id.
  void DisarmTimer(std::uint64_t& timer);

  sim::Process* process_;
  const crypto::KeyRegistry* keys_;
  const Topology* topology_;
  ZoneId my_zone_;
  GlobalMetadata* metadata_;
  LockTable* locks_;
  ZoneEndorser* endorser_;
  SyncConfig config_;
  SyncDurableState* durable_ = nullptr;
  ExecutionLedger* ledger_ = nullptr;
  ExecutedCallback executed_callback_;
  SuspectPrimaryCallback suspect_primary_callback_;
  GlobalApplyCallback global_apply_callback_;

  std::unordered_map<std::uint64_t, RequestState> requests_;
  /// Every request id this engine ever tracked, in the hash order the view
  /// change re-leads and ReshipCommit search in. Executed requests leave
  /// requests_, but that order depends on every id inserted since start,
  /// so it is kept here (16 bytes an id) to keep same-seed runs identical.
  std::unordered_set<std::uint64_t> request_order_;
  /// Leader-side batching queue.
  std::vector<MigrationOp> pending_ops_;
  std::unordered_set<std::uint64_t> queued_op_ids_;
  // Trace contexts parked while their operation waits in `pending_ops_`
  // (the batch timer, not the request handler, often forms the batch).
  std::unordered_map<std::uint64_t, obs::TraceContext> pending_traces_;
  bool batch_timer_armed_ = false;
  /// Per-operation execution dedup (re-led instances, chain skips, client
  /// retransmissions): one watermark per client.
  ExecutedOps executed_ops_;
  /// Execution order of decided requests, oldest first; the compaction
  /// window slides over it.
  std::deque<std::uint64_t> decided_order_;

  std::uint64_t highest_n_seen_ = 0;
  Ballot my_last_ballot_ = kNullBallot;
  /// Cross-cluster requests chain separately (virtual chain id
  /// my_zone + num_zones), so a slow two-cluster commit never stalls the
  /// intra-cluster pipeline behind it. Global operations commute across
  /// chains; per-client ordering is enforced by the migration lock.
  Ballot my_last_cross_ballot_ = kNullBallot;
  /// Latest migration ballot accepted by this zone (the <l, z_l> carried in
  /// promise messages).
  Ballot last_accepted_ballot_ = kNullBallot;
  /// Per-chain execution watermark: the highest ballot executed.
  std::map<ZoneId, Ballot> chain_executed_;
  /// Ballots below the watermark that never ran here: predecessors a chain
  /// skip stepped over, until their own commit executes (usually empty).
  std::map<ZoneId, std::set<Ballot>> chain_holes_;
  std::map<Ballot, std::vector<std::uint64_t>> waiting_on_;
  /// Relayed op id -> its watch timer id.
  std::map<std::uint64_t, std::uint64_t> relay_watch_;
  /// When this node installed its current view (0 for view 0): RESPONSE-
  /// QUERY suspicion holds off for one probe period after it.
  SimTime view_since_ = 0;
  /// Chain-skip guards, request id -> timer id. Cancelled when the request
  /// executes, so a guard that can no longer fire into anything does not
  /// sit in the event queue for its whole timeout.
  std::unordered_multimap<std::uint64_t, std::uint64_t> chain_skips_;

  std::uint64_t committed_count_ = 0;
  std::uint64_t executed_count_ = 0;
};

}  // namespace ziziphus::core

#endif  // ZIZIPHUS_CORE_DATA_SYNC_H_
