#ifndef ZIZIPHUS_PBFT_ENGINE_H_
#define ZIZIPHUS_PBFT_ENGINE_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crypto/certificate.h"
#include "crypto/signature.h"
#include "pbft/batcher.h"
#include "pbft/config.h"
#include "pbft/durable.h"
#include "pbft/messages.h"
#include "pbft/ordering.h"
#include "pbft/state_machine.h"
#include "sim/simulation.h"
#include "sim/timer_tag.h"
#include "storage/checkpoint.h"
#include "storage/log.h"

namespace ziziphus::pbft {

/// A full PBFT replica engine: normal-case three-phase ordering with
/// request batching, reply caching with exactly-once client semantics,
/// periodic checkpointing with log garbage collection, and the view-change /
/// new-view routine for primary failure.
///
/// The engine runs inside a host sim::Process: the host feeds it messages
/// and timers (HandleMessage / HandleTimer) and the engine sends, charges
/// CPU and arms timers through that process. This allows a Ziziphus node
/// to run a PBFT engine for local transactions next to the global protocol
/// engines on one core, and allows the flat-PBFT baseline to reuse the
/// identical implementation.
class PbftEngine final {
 public:
  /// Called after an operation executes, with its global slot and result.
  using ExecutedCallback =
      std::function<void(SeqNum seq, const Operation& op,
                         const std::string& result)>;
  /// Called when a checkpoint becomes stable (2f+1 matching signatures).
  using StableCheckpointCallback =
      std::function<void(const storage::Checkpoint& cp)>;
  /// Called whenever the view changes: active=false when this replica
  /// starts a view change, active=true when the new view is installed.
  using ViewCallback = std::function<void(ViewId view, bool active)>;

  PbftEngine(sim::Process* process, const crypto::KeyRegistry* keys,
             PbftConfig config, StateMachine* state_machine);

  PbftEngine(const PbftEngine&) = delete;
  PbftEngine& operator=(const PbftEngine&) = delete;

  /// Feeds a delivered message. Returns true if it was a PBFT message
  /// (consumed), false if the host should route it elsewhere.
  bool HandleMessage(const sim::MessagePtr& msg);

  /// Feeds an expired timer the host routed here (tag.engine == kPbft).
  void HandleTimer(const sim::TimerTag& tag);

  /// Directly submits an operation at this replica, as if a valid client
  /// request arrived (used by engines layered on top of PBFT).
  void Submit(const Operation& op);

  // ---- Introspection --------------------------------------------------

  ViewId view() const { return view_; }
  bool view_active() const { return view_active_; }
  NodeId primary() const { return PrimaryOf(view_); }
  bool IsPrimary() const { return primary() == process_->id(); }
  SeqNum last_executed() const { return last_executed_; }
  SeqNum stable_seq() const { return stable_seq_; }
  const PbftConfig& config() const { return config_; }
  const storage::CommitLog& commit_log() const { return commit_log_; }
  StateMachine* state_machine() const { return state_machine_; }

  /// Slots this replica committed through the optimistic fast path, with
  /// the unanimously voted batch digest (the fast certificate). Trimmed
  /// with the slot map at stable checkpoints; the chaos invariant checker
  /// cross-checks surviving entries against the honest commit logs.
  const std::map<SeqNum, crypto::Digest>& fast_certified() const {
    return fast_certified_;
  }

  /// Commit-latency EWMA driving the fault-adaptive timers (introspection
  /// for tests; 0 until the first commit is observed).
  Duration commit_latency_ewma() const { return commit_ewma_.value(); }

  /// Last stable checkpoint with its 2f+1 certificate (lazy sync source).
  const storage::Checkpoint& last_stable_checkpoint() const {
    return last_stable_checkpoint_;
  }

  void set_executed_callback(ExecutedCallback cb) {
    executed_callback_ = std::move(cb);
  }
  void set_stable_checkpoint_callback(StableCheckpointCallback cb) {
    stable_checkpoint_callback_ = std::move(cb);
  }
  void set_view_callback(ViewCallback cb) { view_callback_ = std::move(cb); }

  /// External suspicion trigger (e.g., 2f+1 response-queries from another
  /// zone — Section V-A): starts a view change immediately. A no-op while a
  /// view change is already pending: suspicion only ever asks for view+1,
  /// and escalating past it is the view-change timer's job (or the f+1
  /// VIEW-CHANGE rule's). Otherwise every stuck request whose probes
  /// complete a quorum bumps the demanded view again, and the zone's live
  /// replicas run away from each other.
  void SuspectPrimary() {
    if (view_active_) StartViewChange(view_ + 1);
  }

  /// View-change retransmission delay for the given attempt: exponential
  /// doubling capped at kViewChangeBackoffCap, plus a deterministic
  /// per-(replica, view) jitter of up to 1/8 of the backoff. Exposed as a
  /// pure function so the cap and jitter bounds are unit testable.
  static Duration ViewChangeBackoff(const PbftConfig& config,
                                    std::uint64_t attempt, NodeId replica,
                                    ViewId view);

  /// State-transfer retry delay for the given attempt: same shape as
  /// ViewChangeBackoff (doubling capped at kStateTransferBackoffCap,
  /// deterministic per-(replica, seq) jitter of up to 1/8 of the backoff),
  /// exposed for unit tests.
  static Duration StateTransferBackoff(const PbftConfig& config,
                                       std::uint64_t attempt, NodeId replica,
                                       SeqNum seq);

  /// Attaches the durable slice of this replica (not owned; may be null =
  /// nothing persists). Write-through: the engine mirrors its stable
  /// checkpoint (with the client table as of it), WAL, prepared proofs,
  /// fast votes and formed view into it as they change.
  void set_durable(DurableState* durable) { durable_ = durable; }

  /// Rebuilds volatile state from the attached durable slice after an
  /// amnesia crash: installs the stable checkpoint, replays the WAL
  /// (re-applying each entry's batch from its prepared proof, which
  /// rebuilds the client table forward from the checkpoint's) and restores
  /// the view. The host then arms timers and starts catch-up
  /// via state transfer. No-op without a durable slice.
  void RestoreFromDurable();

  /// Starts catch-up toward `seq` with an unknown digest (multicast
  /// request, f+1 matching responses to install). Used by the rejoin
  /// protocol; retries with backoff and peer rotation are automatic.
  void StartCatchUp(SeqNum seq) { RequestStateTransfer(seq, 0, kInvalidNode); }

  /// The host calls this whenever application state changes outside the
  /// PBFT op stream (e.g. a migration installing or evicting a client's
  /// records). Deltas replay only the op stream, so a responder must not
  /// serve one across such a mutation: requesters anchored at or below the
  /// current head would replay to a digest that can never match. Requests
  /// anchored strictly above the head at mutation time are still safe.
  void NoteOutOfBandMutation() { oob_mutation_seq_ = last_executed_ + 1; }

  /// The host calls this when a migration installs `client`'s records:
  /// every write the client issued before the migration (all carry
  /// timestamps below the migration op's `ts`) is reflected in the
  /// installed state, so read-your-writes coverage for the client jumps to
  /// `ts` once a stable checkpoint includes the install.
  void NoteClientRecordInstall(ClientId client, RequestTimestamp ts) {
    RequestTimestamp& covered = read_covered_ts_[client];
    covered = std::max(covered, ts);
  }

  /// Live sizes of everything checkpoint-anchored retention bounds. The
  /// soak harness samples these per node and publishes fleet totals as
  /// retention.* gauges.
  struct RetentionStats {
    std::size_t commit_log_entries = 0;
    std::size_t commit_log_bytes = 0;
    std::size_t prepared_proofs = 0;
    std::size_t prepared_proof_bytes = 0;
    std::size_t slots = 0;
    std::size_t reply_cache_entries = 0;
    std::size_t client_table_entries = 0;
    std::size_t wal_entries = 0;  // durable WAL (0 when nothing persists)

    /// Rough retained-bytes estimate with fixed per-entry overheads; only
    /// the curve shape matters, not the absolute calibration.
    /// `prepared_proof_bytes` prices each proof at its batch's wire size,
    /// not its heap cost: proofs share the pre-prepare's batch, so the
    /// heap holds one copy per proposal however many proofs point at it.
    /// The golden soak pins read the sum (`retention.live_bytes`), so the
    /// formula stays.
    std::size_t ApproxBytes() const {
      return commit_log_bytes + prepared_proof_bytes + slots * 256 +
             reply_cache_entries * 96 + client_table_entries * 24 +
             wal_entries * 48;
    }
  };
  RetentionStats retention() const;

 private:
  struct Slot {
    std::shared_ptr<const PrePrepareMsg> pre_prepare;
    // Prepare and commit voters, one bit per member index (MemberBit).
    std::uint64_t prepares = 0;
    std::uint64_t commits = 0;
    bool prepared = false;
    bool committed = false;
    bool executed = false;
    // Fast-path state (fast-path ordering only). fast_votes records each
    // replica's vote digest so conflicting re-votes are detectable;
    // fast_eligible marks slots proposed on the fast path in this view —
    // slots adopted through a view change run the classic flow. The
    // eligible/fallback pair gates exactly one Commit broadcast per slot:
    // the fast commit sends it as a laggard rescue off the critical path,
    // the fallback sends it the moment the slot is (or becomes) prepared.
    std::map<NodeId, crypto::Digest> fast_votes;
    bool fast_eligible = false;
    bool fast_conflict = false;
    bool fast_fallback = false;
    bool fast_committed = false;
    // Progress-timeout grace already spent on this slot: a fallen-back head
    // slot buys exactly one timer cycle before view-change escalation
    // resumes (see the kProgressTimer handler).
    bool fast_grace_spent = false;
    std::uint64_t fast_abandon_timer = 0;
    // Pre-prepare accept time; commit latency observed into the EWMA.
    SimTime proposed_at = 0;
    // Phase spans for the causal trace (0 when the slot is untraced):
    // consensus covers pre-prepare accept -> execution, the others one
    // protocol phase each. Closed from whichever handler flips the flag.
    obs::SpanId consensus_span = 0;
    obs::SpanId prepare_span = 0;
    obs::SpanId commit_span = 0;
  };
  struct ClientState {
    RequestTimestamp last_executed_ts = 0;
    std::shared_ptr<ClientReplyMsg> last_reply;
    /// Slot whose execution produced `last_reply`; once a stable checkpoint
    /// covers it the cached reply is evicted (the checkpointed client table
    /// keeps the timestamp, so duplicate detection still works and a replay
    /// gets a synthesized reply instead of a cached one).
    SeqNum last_reply_seq = 0;
  };

  // Timer kinds, carried in sim::TimerTag{kPbft, kind, key} (timer_tag.h).
  enum TimerKind : std::uint8_t {
    kBatchTimer = 1,
    kProgressTimer = 2,
    kViewChangeTimer = 3,
    kStateTransferTimer = 4,
    kFastAbandonTimer = 5,  // key carries the sequence number
  };

  NodeId PrimaryOf(ViewId v) const {
    return config_.members[v % config_.members.size()];
  }
  bool IsMember(NodeId n) const;
  // The vote-mask bit of member `n` (its index in config_.members); 0 for a
  // non-member.
  std::uint64_t MemberBit(NodeId n) const;
  std::size_t Quorum() const { return config_.quorum(); }

  // The real signature check on a received message; this replica's own
  // loopback copies pass unchecked (sim::Process::loopback).
  bool Authentic(const crypto::Signature& sig, crypto::Digest digest) const {
    return process_->loopback() || keys_->Verify(sig, digest);
  }

  void HandleClientRequest(const std::shared_ptr<const ClientRequestMsg>& msg);
  void HandleReadRequest(const std::shared_ptr<const ReadRequestMsg>& msg);
  void HandlePrePrepare(const std::shared_ptr<const PrePrepareMsg>& msg);
  void HandlePrepare(const std::shared_ptr<const PrepareMsg>& msg);
  void HandleFastVote(const std::shared_ptr<const FastVoteMsg>& msg);
  void HandleCommit(const std::shared_ptr<const CommitMsg>& msg);
  void HandleCheckpoint(const std::shared_ptr<const CheckpointMsg>& msg);
  void HandleViewChange(const std::shared_ptr<const ViewChangeMsg>& msg);
  void HandleNewView(const std::shared_ptr<const NewViewMsg>& msg);
  void HandleStateRequest(const std::shared_ptr<const StateRequestMsg>& msg);
  void HandleStateResponse(const std::shared_ptr<const StateResponseMsg>& msg);
  void RequestStateTransfer(SeqNum seq, std::uint64_t digest, NodeId peer);
  void InstallStateResponse(const StateResponseMsg& msg);
  bool ApplyDelta(const StateResponseMsg& msg);
  void SendStateRequest();
  void ArmStateTransferRetry();
  void CancelStateTransferRetry();
  void OnStateTransferTimer();

  void EnqueueOp(const Operation& op);
  void MaybeProposeBatch(bool timer_fired);
  void TryPrepare(SeqNum seq);
  void TryCommit(SeqNum seq);
  // Fast path: unanimity check, certified fallback to prepare/commit, and
  // the per-slot abandon timer that bounds how long unanimity is awaited.
  void TryFastCommit(SeqNum seq);
  void TriggerFastFallback(SeqNum seq);
  void ArmFastAbandon(SeqNum seq);
  void CancelFastAbandon(Slot& slot);
  void ExecuteReady();
  void ExecuteOp(SeqNum seq, const Operation& op);
  // Drops an executed op's dedup entry and, if it is still queued, its
  // backlog copy.
  void ForgetExecuted(crypto::Digest digest);
  // Checkpoint materials frozen when this replica cast its vote at `seq`:
  // the snapshot, coverage table and read tree the voted
  // (state_digest, read_root) pair was computed from. AdvanceStable installs
  // from here rather than re-reading live state, so ops executed between
  // vote and quorum (e.g. read-only BALs that move coverage but not the
  // state digest) can never divorce the stored checkpoint from its
  // certificate.
  struct PendingCheckpoint {
    SeqNum seq = 0;
    std::uint64_t state_digest = 0;
    storage::KvStore::Map snapshot;
    std::map<ClientId, RequestTimestamp> coverage;
    crypto::MerkleTree tree;
  };

  void MaybeCheckpoint();
  void AdvanceStable(SeqNum seq, const crypto::Certificate& cert,
                     PendingCheckpoint&& materials);

  void ArmProgressTimer();
  void DisarmProgressTimer();
  void StartViewChange(ViewId new_view);
  void MaybeSendNewView(ViewId v);
  void EnterNewView(const std::shared_ptr<const NewViewMsg>& msg);

  sim::Process* process_;
  const crypto::KeyRegistry* keys_;
  PbftConfig config_;
  StateMachine* state_machine_;
  ExecutedCallback executed_callback_;
  StableCheckpointCallback stable_checkpoint_callback_;
  ViewCallback view_callback_;

  ViewId view_ = 0;
  bool view_active_ = true;
  SeqNum next_seq_ = 0;        // last assigned by this primary
  SeqNum last_executed_ = 0;
  SeqNum stable_seq_ = 0;

  std::map<SeqNum, Slot> slots_;
  // Accepted, unproposed ops by digest: the primary's batch queue, or a
  // backup's backlog forwarded to the next primary on a view change.
  Batcher<Operation> batcher_;
  // Every op accepted and not yet executed, by digest: queued in batcher_
  // or sitting in a slot.
  std::unordered_set<std::uint64_t> seen_ops_;
  std::unordered_map<ClientId, ClientState> clients_;
  // Start of the in-progress view change (0 = none); feeds the
  // span.view_change_us histogram when the new view is installed.
  SimTime view_change_started_at_ = 0;

  // Checkpointing.
  std::map<SeqNum, std::map<NodeId, std::shared_ptr<const CheckpointMsg>>>
      checkpoint_votes_;
  storage::Checkpoint last_stable_checkpoint_;
  storage::CommitLog commit_log_;
  // Vote-time frozen materials per checkpoint seq (see PendingCheckpoint);
  // entries at or below the stable point are erased on advance.
  std::map<SeqNum, PendingCheckpoint> pending_checkpoints_;
  // Read tree of last_stable_checkpoint_, used to cut Merkle paths when
  // serving fast-path reads. Rebuilt on restore; HandleReadRequest refuses
  // (behind) if its root ever disagrees with the certified one.
  crypto::MerkleTree read_tree_;

  // Read fast path. read_covered_ts_ tracks, per client, the highest
  // timestamp whose effects are in the live state — fed by ExecuteOp and by
  // migration installs (NoteClientRecordInstall), which the PBFT client
  // table alone cannot see. checkpoint_client_ts_ is its snapshot as of the
  // last stable checkpoint: the read-your-writes coverage a read reply may
  // truthfully claim. merged_deps_/checkpoint_deps_ are the causal-session
  // dependency vector (max-merged writer floors), live and as-of-checkpoint.
  std::map<ClientId, RequestTimestamp> read_covered_ts_;
  std::map<ClientId, RequestTimestamp> checkpoint_client_ts_;
  std::map<ZoneId, SeqNum> merged_deps_;
  std::map<ZoneId, SeqNum> checkpoint_deps_;

  // View change.
  std::map<ViewId, std::map<NodeId, std::shared_ptr<const ViewChangeMsg>>>
      view_change_votes_;
  // Prepared certificates that must survive view changes: once a slot
  // prepares in some view, its proof stays eligible for inclusion in
  // view-change messages until the slot is covered by a stable checkpoint.
  // Slot state alone cannot serve this role — entering a new view resets
  // `Slot::prepared` so the slot can re-run the prepare phase, and a second
  // view change arriving before re-preparation completes would otherwise
  // lose the certificate and let the new primary no-op-fill a sequence
  // number that another replica already committed.
  std::map<SeqNum, PreparedProof> prepared_proofs_;
  // Fast votes this replica cast, keyed by slot (latest view wins). Like
  // prepared_proofs_ these must outlive slot state: a fast-committed slot
  // leaves no prepared certificate at 2f+1 replicas, so the unanimous votes
  // themselves are what view-change messages carry to make the commit
  // recoverable (>= f+1 of any 2f+1 quorum reports the committed digest).
  // Trimmed at stable checkpoints, persisted write-through when durable.
  std::map<SeqNum, PreparedProof> fast_voted_;
  std::uint64_t progress_timer_ = 0;
  std::uint64_t view_change_timer_ = 0;
  std::uint64_t view_change_attempts_ = 0;

  // Fast-path timer input and certificates. Fallback grace is per-slot
  // (Slot::fast_grace_spent). fast_certified_ is documented at its accessor.
  CommitLatencyEwma commit_ewma_;
  std::map<SeqNum, crypto::Digest> fast_certified_;
  // Consecutive fast-path fallbacks with no intervening fast commit. Once
  // it reaches kFastDisableAfter, FastArmAllowed suppresses the optimistic
  // round except on re-probe slots; a unanimous probe (or a new view)
  // resets it. See kFastDisableAfter (pbft/ordering.h) for why.
  std::uint64_t fast_fallback_streak_ = 0;

  // In-flight state transfer target (0 = none). When the target digest is
  // known (from 2f+1 checkpoint votes) one matching response suffices;
  // otherwise (view-change catch-up) f+1 matching responses are required.
  SeqNum pending_transfer_seq_ = 0;
  std::uint64_t pending_transfer_digest_ = 0;
  std::map<std::pair<SeqNum, std::uint64_t>,
           std::pair<std::set<NodeId>, std::shared_ptr<const StateResponseMsg>>>
      transfer_votes_;
  // Retry state for the in-flight transfer: a kStateTransferTimer re-sends
  // the request to the next member (rotation skips self) with capped
  // backoff, so one crashed or Byzantine peer cannot wedge catch-up.
  std::uint64_t state_transfer_timer_ = 0;
  std::uint64_t state_transfer_attempts_ = 0;
  std::size_t state_transfer_peer_idx_ = 0;
  // Set when a transfer burned all its attempts (no peer could serve the
  // sequence yet). The next progress timeout then spends one of the retry
  // cycles on a fresh catch-up instead of escalating to a view change —
  // a rejoining laggard's stall is its own lag, not the primary's fault.
  // A successful install refills the budget.
  static constexpr int kCatchUpRetryCycles = 2;
  bool catch_up_abandoned_ = false;
  int catch_up_retry_budget_ = kCatchUpRetryCycles;
  // Delta soundness guards. oob_mutation_seq_: lowest anchor this replica
  // may serve a delta from (see NoteOutOfBandMutation). force_full_: set
  // after a delta failed to replay to the agreed digest here — the next
  // request advertises have_seq=0 to demand a snapshot, so one unsound
  // delta (out-of-band divergence below the anchor) cannot wedge catch-up.
  SeqNum oob_mutation_seq_ = 0;
  bool force_full_ = false;

  // The NewView this replica installed for its current view; re-sent to
  // replicas still demanding an older view (recovered laggards) so they
  // can adopt the view without waiting for the next view change.
  std::shared_ptr<const NewViewMsg> last_new_view_;

  // Durable slice (see pbft/durable.h); null = nothing persists.
  DurableState* durable_ = nullptr;
};

}  // namespace ziziphus::pbft

#endif  // ZIZIPHUS_PBFT_ENGINE_H_
