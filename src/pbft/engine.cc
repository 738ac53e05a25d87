#include "pbft/engine.h"

#include <algorithm>
#include <bit>

#include "common/hash.h"
#include "common/logging.h"
#include "crypto/read_certificate.h"

namespace ziziphus::pbft {

namespace {
crypto::Digest EmptyBatchDigest() { return Batch{}.ComputeDigest(); }

// A proof over `pp` that shares its batch instead of copying the ops: the
// aliasing pointer keeps the pre-prepare alive for as long as the proof.
PreparedProof ProofOf(const std::shared_ptr<const PrePrepareMsg>& pp) {
  return PreparedProof{pp->view, pp->seq, pp->batch_digest,
                       std::shared_ptr<const Batch>(pp, &pp->batch)};
}
}  // namespace

PbftEngine::PbftEngine(sim::Process* process,
                       const crypto::KeyRegistry* keys, PbftConfig config,
                       StateMachine* state_machine)
    : process_(process),
      keys_(keys),
      config_(std::move(config)),
      state_machine_(state_machine) {
  ZCHECK(config_.members.size() >= 3 * config_.f + 1);
  ZCHECK(config_.members.size() <= 64);  // Slot vote masks are 64-bit
  ZCHECK(state_machine_ != nullptr);
}

bool PbftEngine::IsMember(NodeId n) const {
  return std::find(config_.members.begin(), config_.members.end(), n) !=
         config_.members.end();
}

std::uint64_t PbftEngine::MemberBit(NodeId n) const {
  auto it = std::find(config_.members.begin(), config_.members.end(), n);
  if (it == config_.members.end()) return 0;
  return std::uint64_t{1} << (it - config_.members.begin());
}

// --------------------------------------------------------------- dispatch

bool PbftEngine::HandleMessage(const sim::MessagePtr& msg) {
  const NodeCosts& costs = process_->costs();
  switch (msg->type()) {
    case kClientRequest:
      process_->ChargeCpu(costs.base_handle_us);
      process_->ChargeAuth(costs.mac_us);
      HandleClientRequest(
          std::static_pointer_cast<const ClientRequestMsg>(msg));
      return true;
    case kPrePrepare: {
      auto m = std::static_pointer_cast<const PrePrepareMsg>(msg);
      // Verify the primary's signature plus the client MACs in the batch.
      // The primary's own pre-prepare comes back as a loopback copy and
      // pays neither: it checked those MACs as the requests arrived.
      process_->ChargeCpu(costs.base_handle_us);
      process_->ChargeAuth(costs.crypto.verify_us +
                           costs.mac_us * m->batch.ops.size());
      HandlePrePrepare(m);
      return true;
    }
    case kPrepare:
      process_->ChargeCpu(costs.base_handle_us);
      process_->ChargeAuth(costs.crypto.verify_us);
      HandlePrepare(std::static_pointer_cast<const PrepareMsg>(msg));
      return true;
    case kFastVote:
      process_->ChargeCpu(costs.base_handle_us);
      process_->ChargeAuth(costs.crypto.verify_us);
      HandleFastVote(std::static_pointer_cast<const FastVoteMsg>(msg));
      return true;
    case kCommit:
      process_->ChargeCpu(costs.base_handle_us);
      process_->ChargeAuth(costs.crypto.verify_us);
      HandleCommit(std::static_pointer_cast<const CommitMsg>(msg));
      return true;
    case kCheckpoint:
      process_->ChargeCpu(costs.base_handle_us);
      process_->ChargeAuth(costs.crypto.verify_us);
      HandleCheckpoint(std::static_pointer_cast<const CheckpointMsg>(msg));
      return true;
    case kViewChange:
      process_->ChargeCpu(costs.base_handle_us);
      process_->ChargeAuth(costs.crypto.verify_us);
      HandleViewChange(std::static_pointer_cast<const ViewChangeMsg>(msg));
      return true;
    case kNewView:
      process_->ChargeCpu(costs.base_handle_us);
      process_->ChargeAuth(costs.crypto.verify_us);
      HandleNewView(std::static_pointer_cast<const NewViewMsg>(msg));
      return true;
    case kStateRequest:
      process_->ChargeCpu(costs.base_handle_us);
      HandleStateRequest(std::static_pointer_cast<const StateRequestMsg>(msg));
      return true;
    case kStateResponse:
      process_->ChargeCpu(costs.base_handle_us);
      process_->ChargeCrypto(costs.crypto.digest_us);
      HandleStateResponse(
          std::static_pointer_cast<const StateResponseMsg>(msg));
      return true;
    case kReadRequest:
      process_->ChargeCpu(costs.base_handle_us);
      process_->ChargeAuth(costs.mac_us);
      HandleReadRequest(std::static_pointer_cast<const ReadRequestMsg>(msg));
      return true;
    default:
      return false;
  }
}

void PbftEngine::HandleTimer(const sim::TimerTag& tag) {
  switch (tag.kind) {
    case kBatchTimer:
      batcher_.Disarm();
      MaybeProposeBatch(/*timer_fired=*/true);
      break;
    case kProgressTimer:
      progress_timer_ = 0;
      process_->scoped_counters().Inc(obs::CounterId::kPbftProgressTimeout);
      if (pending_transfer_seq_ != 0) {
        // A state transfer is in flight: the stall is our own lag, not
        // the primary's fault. Escalating to a view change here runs the
        // view number away from the zone (nobody joins a laggard's solo
        // view change) — keep watching instead.
        ArmProgressTimer();
      } else if (catch_up_abandoned_ && catch_up_retry_budget_ > 0) {
        // The last catch-up burned all its attempts (peers could not
        // serve the sequence yet). Spend a retry cycle before blaming
        // the primary: the zone may only now have advanced far enough.
        --catch_up_retry_budget_;
        catch_up_abandoned_ = false;
        StartCatchUp(last_executed_ + 1);
        ArmProgressTimer();
      } else {
        // Fast-path fallback grace, scoped to the slot actually stalling
        // execution: if the next slot to execute fell back, the fallback
        // is the remedy for this stall (the classic rounds are making
        // progress) and demanding a view change on top would amplify one
        // missing fast vote into a primary replacement. Each slot buys at
        // most one grace cycle, and fallbacks on *other* slots buy
        // nothing — a stream of fallback-provoking pre-prepares from a
        // faulty primary cannot keep renewing grace for an unrelated
        // wedge.
        auto hit = slots_.find(last_executed_ + 1);
        if (hit != slots_.end() && hit->second.fast_fallback &&
            !hit->second.committed && !hit->second.fast_grace_spent) {
          hit->second.fast_grace_spent = true;
          process_->scoped_counters().Inc(
              obs::CounterId::kPbftFallbackGraces);
          ArmProgressTimer();
        } else {
          StartViewChange(view_ + 1);
        }
      }
      break;
    case kViewChangeTimer:
      view_change_timer_ = 0;
      if (!view_active_) StartViewChange(view_ + 1);
      break;
    case kStateTransferTimer:
      state_transfer_timer_ = 0;
      OnStateTransferTimer();
      break;
    case kFastAbandonTimer: {
      // Unanimity did not arrive in time for this slot (crashed or
      // withholding replica, or plain latency): fall back to the classic
      // prepare/commit rounds. The slot may already be gone (committed and
      // trimmed, or erased by a view change) — the trigger no-ops then.
      SeqNum seq = tag.key;
      auto it = slots_.find(seq);
      if (it != slots_.end()) it->second.fast_abandon_timer = 0;
      TriggerFastFallback(seq);
      break;
    }
    default:
      break;
  }
}

// ------------------------------------------------------------ normal case

void PbftEngine::Submit(const Operation& op) { EnqueueOp(op); }

void PbftEngine::HandleClientRequest(
    const std::shared_ptr<const ClientRequestMsg>& msg) {
  // Authenticate the client. The signed digest covers the dependency vector
  // too, so a relaying backup cannot strip or lower the writer's causal
  // floors in transit.
  if (!Authentic(msg->client_sig, msg->ComputeDigest())) {
    process_->scoped_counters().Inc(obs::CounterId::kPbftBadClientSig);
    return;
  }
  auto it = clients_.find(msg->op.client);
  if (it != clients_.end() &&
      msg->op.timestamp <= it->second.last_executed_ts) {
    // Replay: resend the cached reply (exactly-once semantics).
    if (msg->op.timestamp == it->second.last_executed_ts) {
      std::shared_ptr<ClientReplyMsg> reply = it->second.last_reply;
      if (reply == nullptr) {
        // The cached reply was evicted at a stable checkpoint. The client
        // table still proves execution, so synthesize an acknowledgement
        // with the executed timestamp; clients match replies by timestamp
        // and replica, never by payload, so the empty result is enough to
        // complete an f+1 vote.
        auto synth = std::make_shared<ClientReplyMsg>();
        synth->view = view_;
        synth->timestamp = msg->op.timestamp;
        synth->client = msg->op.client;
        synth->replica = process_->id();
        reply = synth;
      }
      process_->ChargeCpu(process_->costs().send_us);
      process_->Send(msg->op.client, reply);
    }
    return;
  }
  // Causal sessions: fold the writer's observed floors into the dependency
  // vector this replica's read replies advertise. Advisory freshness only —
  // merging at request receipt (pre-consensus) is deliberately per-replica.
  for (const auto& [zone, seq] : msg->deps) {
    SeqNum& floor = merged_deps_[zone];
    floor = std::max(floor, seq);
  }
  if (!IsPrimary()) {
    // Relay to the primary, remember the request (so a future primary can
    // propose it after a view change), and watch for progress.
    process_->ChargeCpu(process_->costs().send_us);
    process_->Send(primary(), msg);
  }
  EnqueueOp(msg->op);
}

void PbftEngine::HandleReadRequest(
    const std::shared_ptr<const ReadRequestMsg>& msg) {
  if (!Authentic(msg->client_sig, msg->ComputeDigest())) {
    process_->scoped_counters().Inc(obs::CounterId::kPbftBadClientSig);
    return;
  }
  auto reply = std::make_shared<ReadReplyMsg>();
  reply->client = msg->client;
  reply->nonce = msg->nonce;
  reply->replica = process_->id();
  reply->key = msg->key;
  const storage::Checkpoint& cp = last_stable_checkpoint_;
  RequestTimestamp covered = 0;
  if (auto it = checkpoint_client_ts_.find(msg->client);
      it != checkpoint_client_ts_.end()) {
    covered = it->second;
  }
  // A read is served only from a certified stable checkpoint that satisfies
  // both session watermarks and whose read tree is intact (the root guard
  // covers restore paths where the tree could not be rebuilt to match the
  // certificate); anything else redirects rather than risking a stale or
  // unprovable answer.
  if (cp.seq == 0 || cp.certificate.empty() ||
      read_tree_.root() != cp.read_root ||
      cp.seq < msg->min_stable_seq || covered < msg->min_write_ts) {
    reply->behind = true;
    process_->scoped_counters().Inc(obs::CounterId::kReadsRedirects);
    process_->ChargeCpu(process_->costs().send_us);
    process_->Send(msg->client, reply);
    return;
  }
  obs::SpanId span = process_->BeginSpan(obs::SpanKind::kReadServe);
  auto vit = cp.snapshot.find(msg->key);
  reply->found = vit != cp.snapshot.end();
  if (reply->found) reply->value = vit->second;
  reply->proof.anchor_seq = cp.seq;
  reply->proof.state_digest = cp.state_digest;
  reply->proof.read_root = cp.read_root;
  reply->proof.key_proof =
      read_tree_.Prove(crypto::ReadDataLeafKey(msg->key));
  reply->proof.coverage_proof =
      read_tree_.Prove(crypto::ReadCoverageLeafKey(msg->client));
  reply->proof.certificate = cp.certificate;
  reply->covered_write_ts = covered;
  reply->deps = checkpoint_deps_;
  process_->ChargeCrypto(process_->costs().crypto.digest_us +
                         process_->costs().mac_us);
  process_->ChargeCpu(process_->costs().send_us);
  process_->scoped_counters().Inc(obs::CounterId::kReadsServed);
  process_->EndSpan(span);
  process_->Send(msg->client, reply);
}

void PbftEngine::EnqueueOp(const Operation& op) {
  std::uint64_t d = op.ComputeDigest();
  if (seen_ops_.count(d) > 0) {
    // Queued or sitting in an unexecuted slot. A client retransmission is
    // evidence the op is stuck, so backups keep the suspicion timer running
    // rather than silently swallowing the duplicate — otherwise a slot
    // wedged after a view change can never trigger another one.
    if (!IsPrimary() && progress_timer_ == 0) ArmProgressTimer();
    return;
  }
  auto it = clients_.find(op.client);
  if (it != clients_.end() && op.timestamp <= it->second.last_executed_ts) {
    return;
  }
  seen_ops_.insert(d);
  batcher_.Push(d, op, process_->trace_context());
  if (IsPrimary() && view_active_) {
    MaybeProposeBatch(/*timer_fired=*/false);
  } else {
    ArmProgressTimer();
  }
}

void PbftEngine::MaybeProposeBatch(bool timer_fired) {
  if (!IsPrimary() || !view_active_) return;
  // Cut only inside the watermark window, so nothing is ever requeued: ops
  // past it wait for AdvanceStable to re-offer them.
  while (!batcher_.empty() && next_seq_ < stable_seq_ + kWatermarkWindow &&
         (timer_fired || batcher_.size() >= config_.batch_max)) {
    Batcher<Operation>::Cut cut = batcher_.TakeUpTo(config_.batch_max);
    next_seq_ = std::max(next_seq_, stable_seq_) + 1;
    // Bridge the causal trace across the batching boundary: a proposal the
    // batch timer triggers continues the batch's first parked trace.
    if (!process_->trace_context().active() && cut.trace.active()) {
      process_->set_trace_context(cut.trace);
    }
    auto msg = std::make_shared<PrePrepareMsg>();
    msg->view = view_;
    msg->seq = next_seq_;
    msg->batch.ops = std::move(cut.ops);
    msg->batch_digest = msg->batch.ComputeDigest();
    msg->sig = keys_->Sign(process_->id(), msg->digest());
    process_->ChargeCrypto(process_->costs().crypto.sign_us);
    process_->ChargeCpu(process_->costs().send_us * config_.members.size());
    process_->scoped_counters().Inc(obs::CounterId::kPbftBatchesProposed);
    process_->Multicast(config_.members, msg);
  }
  if (!timer_fired && !batcher_.empty() && batcher_.Arm()) {
    process_->SetTimer(kBatchTimeout,
                       sim::TimerTag{sim::TimerEngine::kPbft, kBatchTimer});
  }
}

void PbftEngine::HandlePrePrepare(
    const std::shared_ptr<const PrePrepareMsg>& msg) {
  if (!view_active_ || msg->view != view_) return;
  if (msg->from() != primary()) return;
  if (!Authentic(msg->sig, msg->digest())) {
    process_->scoped_counters().Inc(obs::CounterId::kPbftBadSig);
    return;
  }
  if (msg->batch_digest != msg->batch.ComputeDigest()) {
    process_->scoped_counters().Inc(obs::CounterId::kPbftBadBatchDigest);
    return;
  }
  if (msg->seq <= stable_seq_ ||
      msg->seq > stable_seq_ + kWatermarkWindow) {
    process_->scoped_counters().Inc(obs::CounterId::kPbftOutOfWindow);
    return;
  }
  Slot& slot = slots_[msg->seq];
  if (slot.pre_prepare != nullptr) {
    if (slot.pre_prepare->batch_digest != msg->batch_digest) {
      // Equivocating primary: keep the first, suspect the primary.
      process_->scoped_counters().Inc(
          obs::CounterId::kPbftEquivocationDetected);
      StartViewChange(view_ + 1);
    }
    return;
  }
  slot.pre_prepare = msg;
  slot.proposed_at = process_->Now();
  slot.consensus_span = process_->BeginSpan(obs::SpanKind::kPbftConsensus);
  slot.prepare_span = process_->BeginSpan(obs::SpanKind::kPbftPreparePhase);
  ArmProgressTimer();

  const bool fast = config_.ordering == Ordering::kFastPath;
  if (fast && !FastArmAllowed(fast_fallback_streak_, msg->seq)) {
    // Hysteresis: unanimity has failed kFastDisableAfter times in a row,
    // so this slot votes a classic Prepare immediately instead of paying
    // the abandon wait again (re-probe slots exempted — see FastArmAllowed).
    process_->scoped_counters().Inc(obs::CounterId::kPbftFastSuppressed);
  } else if (fast) {
    // Optimistic fast path: vote with a FastVote instead of a Prepare. Fast
    // votes double as prepares at every receiver, so if unanimity does not
    // materialize the classic 2f+1 machinery is already fed — the fallback
    // only has to release the held-back Commit round. The abandon timer
    // bounds how long unanimity is awaited.
    slot.fast_eligible = true;
    // Record the vote where view changes can find it (and durably — see
    // DurableState::fast_votes): if the zone fast-commits this digest, the
    // f+1-of-quorum reporting rule in MaybeSendNewView is what keeps the
    // committed slot from being no-op-filled in the next view.
    fast_voted_[msg->seq] = ProofOf(msg);
    if (durable_ != nullptr) {
      durable_->fast_votes[msg->seq] = fast_voted_[msg->seq];
    }
    auto vote = std::make_shared<FastVoteMsg>();
    vote->view = msg->view;
    vote->seq = msg->seq;
    vote->batch_digest = msg->batch_digest;
    vote->replica = process_->id();
    vote->sig = keys_->Sign(process_->id(), vote->digest());
    process_->ChargeCrypto(process_->costs().crypto.sign_us);
    process_->ChargeCpu(process_->costs().send_us * config_.members.size());
    process_->Multicast(config_.members, vote);
    ArmFastAbandon(msg->seq);
    TryPrepare(msg->seq);
    TryFastCommit(msg->seq);
    return;
  }

  auto prep = std::make_shared<PrepareMsg>();
  prep->view = msg->view;
  prep->seq = msg->seq;
  prep->batch_digest = msg->batch_digest;
  prep->replica = process_->id();
  prep->sig = keys_->Sign(process_->id(), prep->digest());
  process_->ChargeCrypto(process_->costs().crypto.sign_us);
  process_->ChargeCpu(process_->costs().send_us * config_.members.size());
  process_->Multicast(config_.members, prep);
  TryPrepare(msg->seq);
}

void PbftEngine::HandlePrepare(const std::shared_ptr<const PrepareMsg>& msg) {
  if (!view_active_ || msg->view != view_) return;
  if (!IsMember(msg->replica) || msg->replica != msg->from()) return;
  if (!Authentic(msg->sig, msg->digest())) {
    process_->scoped_counters().Inc(obs::CounterId::kPbftBadSig);
    return;
  }
  Slot& slot = slots_[msg->seq];
  if (slot.pre_prepare != nullptr &&
      slot.pre_prepare->batch_digest != msg->batch_digest) {
    return;
  }
  slot.prepares |= MemberBit(msg->replica);
  TryPrepare(msg->seq);
}

void PbftEngine::HandleFastVote(
    const std::shared_ptr<const FastVoteMsg>& msg) {
  if (!view_active_ || msg->view != view_) return;
  if (!IsMember(msg->replica) || msg->replica != msg->from()) return;
  if (!Authentic(msg->sig, msg->digest())) {
    process_->scoped_counters().Inc(obs::CounterId::kPbftBadSig);
    return;
  }
  if (msg->seq <= stable_seq_) return;
  Slot& slot = slots_[msg->seq];
  // Record the voted digest for conflict detection. A replica that re-votes
  // a different digest for the same slot is equivocating on the fast path:
  // unanimity is unattainable, so certify the slot classically instead.
  auto [vit, inserted] = slot.fast_votes.emplace(msg->replica,
                                                 msg->batch_digest);
  if (!inserted && vit->second != msg->batch_digest) {
    if (!slot.fast_conflict) {
      slot.fast_conflict = true;
      process_->scoped_counters().Inc(obs::CounterId::kPbftFastConflicts);
    }
    TriggerFastFallback(msg->seq);
    return;
  }
  // Fast votes double as prepares, under the same digest laxity as
  // HandlePrepare: count the vote unless it contradicts a known pre-prepare.
  if (slot.pre_prepare == nullptr ||
      slot.pre_prepare->batch_digest == msg->batch_digest) {
    slot.prepares |= MemberBit(msg->replica);
  }
  TryPrepare(msg->seq);
  TryFastCommit(msg->seq);
}

void PbftEngine::TryPrepare(SeqNum seq) {
  auto it = slots_.find(seq);
  if (it == slots_.end()) return;
  Slot& slot = it->second;
  if (slot.prepared || slot.pre_prepare == nullptr) return;
  // `prepared` requires the pre-prepare plus 2f prepares from distinct
  // replicas. The pre-prepare stands for its sender's vote, so it counts
  // when that sender's prepare has not been recorded. The primary does
  // multicast a PREPARE too (it handles its own loopback pre-prepare like
  // any replica); once recorded, the primary counts once, not twice.
  std::size_t votes = std::popcount(slot.prepares);
  if ((slot.prepares & MemberBit(slot.pre_prepare->from())) == 0) votes += 1;
  if (votes < Quorum()) return;
  slot.prepared = true;
  process_->EndSpan(slot.prepare_span);
  slot.prepare_span = 0;
  slot.commit_span = process_->BeginSpan(obs::SpanKind::kPbftCommitPhase);
  prepared_proofs_[seq] = ProofOf(slot.pre_prepare);
  if (durable_ != nullptr) {
    durable_->prepared_proofs[seq] = prepared_proofs_[seq];
  }
  if (slot.fast_eligible && !slot.fast_fallback) {
    // Fast path in flight: the slot is prepared (durable proof recorded,
    // view-change safety identical to the classic path) but the Commit
    // round is held back — unanimity (TryFastCommit) supersedes it, or the
    // fallback releases it. Exactly one Commit broadcast per slot.
    return;
  }

  auto commit = std::make_shared<CommitMsg>();
  commit->view = slot.pre_prepare->view;
  commit->seq = seq;
  commit->batch_digest = slot.pre_prepare->batch_digest;
  commit->replica = process_->id();
  commit->sig = keys_->Sign(process_->id(), commit->digest());
  process_->ChargeCrypto(process_->costs().crypto.sign_us);
  process_->ChargeCpu(process_->costs().send_us * config_.members.size());
  process_->Multicast(config_.members, commit);
  TryCommit(seq);
}

void PbftEngine::HandleCommit(const std::shared_ptr<const CommitMsg>& msg) {
  if (msg->view > view_ || (!view_active_ && msg->view == view_)) return;
  if (!IsMember(msg->replica) || msg->replica != msg->from()) return;
  if (!Authentic(msg->sig, msg->digest())) {
    process_->scoped_counters().Inc(obs::CounterId::kPbftBadSig);
    return;
  }
  if (msg->seq <= stable_seq_) return;
  Slot& slot = slots_[msg->seq];
  if (slot.pre_prepare != nullptr &&
      slot.pre_prepare->batch_digest != msg->batch_digest) {
    return;
  }
  slot.commits |= MemberBit(msg->replica);
  TryCommit(msg->seq);
}

void PbftEngine::TryCommit(SeqNum seq) {
  auto it = slots_.find(seq);
  if (it == slots_.end()) return;
  Slot& slot = it->second;
  if (slot.committed || !slot.prepared) return;
  if (static_cast<std::size_t>(std::popcount(slot.commits)) < Quorum()) {
    return;
  }
  slot.committed = true;
  CancelFastAbandon(slot);
  process_->EndSpan(slot.commit_span);
  slot.commit_span = 0;
  // Fallback slots are excluded from the latency EWMA: their commit time
  // is dominated by the abandon wait itself, and feeding it back would
  // make the next abandon timeout learn its own delay (each paid wait
  // quadruples the following one until it hits the cap).
  if (slot.proposed_at != 0 && !slot.fast_fallback) {
    commit_ewma_.Observe(process_->Now() - slot.proposed_at);
  }
  process_->scoped_counters().Inc(obs::CounterId::kPbftBatchesCommitted);
  ExecuteReady();
}

void PbftEngine::TryFastCommit(SeqNum seq) {
  auto it = slots_.find(seq);
  if (it == slots_.end()) return;
  Slot& slot = it->second;
  if (!slot.fast_eligible || slot.committed || slot.fast_fallback ||
      slot.fast_conflict || slot.pre_prepare == nullptr) {
    return;
  }
  // Unanimity check: every member's vote must match the pre-prepare digest.
  // Any dissenting vote makes unanimity unattainable for good — certify the
  // slot through the classic rounds instead of waiting for the timer.
  std::size_t votes = 0;
  for (const auto& [node, digest] : slot.fast_votes) {
    if (digest == slot.pre_prepare->batch_digest) {
      ++votes;
      continue;
    }
    slot.fast_conflict = true;
    process_->scoped_counters().Inc(obs::CounterId::kPbftFastConflicts);
    TriggerFastFallback(seq);
    return;
  }
  // The pre-prepare is its sender's signed vote for the digest; count it
  // implicitly if the explicit fast vote has not arrived yet.
  if (!slot.fast_votes.count(slot.pre_prepare->from())) votes += 1;
  if (votes < config_.members.size()) return;
  // All 3f+1 replicas voted one digest: commit without the commit round.
  // Safety needs two legs. Within a view, unanimity contains every honest
  // replica, so no conflicting certificate of either kind can form. Across
  // view changes the commit must also be *recoverable*: other honest
  // replicas may not hold a prepared certificate yet (their vote copies
  // delayed), so every honest voter carries its fast vote in its
  // view-change message, and any 2f+1 quorum therefore contains >= f+1
  // reporters of this digest — enough for MaybeSendNewView to repropose it
  // instead of a no-op filler (the classic Zyzzyva view-change pitfall).
  slot.fast_committed = true;
  slot.committed = true;
  fast_fallback_streak_ = 0;
  CancelFastAbandon(slot);
  process_->EndSpan(slot.commit_span);
  slot.commit_span = 0;
  fast_certified_[seq] = slot.pre_prepare->batch_digest;
  if (slot.proposed_at != 0) {
    commit_ewma_.Observe(process_->Now() - slot.proposed_at);
  }
  process_->scoped_counters().Inc(obs::CounterId::kPbftFastCommits);
  process_->scoped_counters().Inc(obs::CounterId::kPbftBatchesCommitted);
  // Still announce a Commit — off the critical path — so a replica whose
  // fast votes were lost can assemble a classic commit quorum instead of
  // wedging until the next checkpoint rescues it by state transfer.
  auto commit = std::make_shared<CommitMsg>();
  commit->view = slot.pre_prepare->view;
  commit->seq = seq;
  commit->batch_digest = slot.pre_prepare->batch_digest;
  commit->replica = process_->id();
  commit->sig = keys_->Sign(process_->id(), commit->digest());
  process_->ChargeCrypto(process_->costs().crypto.sign_us);
  process_->ChargeCpu(process_->costs().send_us * config_.members.size());
  process_->Multicast(config_.members, commit);
  ExecuteReady();
}

void PbftEngine::TriggerFastFallback(SeqNum seq) {
  if (!view_active_ || seq <= stable_seq_) return;
  auto it = slots_.find(seq);
  if (it == slots_.end()) return;
  Slot& slot = it->second;
  // Idempotent and safe mid-slot: a second trigger (timer raced a
  // conflicting vote), an already-committed slot, or a slot from an older
  // view (fast_eligible is only set in the proposing view) all no-op.
  if (!slot.fast_eligible || slot.committed || slot.fast_fallback) return;
  slot.fast_fallback = true;
  ++fast_fallback_streak_;
  process_->scoped_counters().Inc(obs::CounterId::kPbftFastFallbacks);
  // The fast_fallback flag doubles as the progress-timer grace marker: if
  // this slot is the one stalling execution when the timer fires, it buys
  // one cycle before view-change escalation (see the kProgressTimer
  // handler) — the fallback, not a primary replacement, is the remedy.
  if (slot.prepared) {
    // The prepare quorum already landed while the Commit round was held
    // back; release it now.
    auto commit = std::make_shared<CommitMsg>();
    commit->view = slot.pre_prepare->view;
    commit->seq = seq;
    commit->batch_digest = slot.pre_prepare->batch_digest;
    commit->replica = process_->id();
    commit->sig = keys_->Sign(process_->id(), commit->digest());
    process_->ChargeCrypto(process_->costs().crypto.sign_us);
    process_->ChargeCpu(process_->costs().send_us * config_.members.size());
    process_->Multicast(config_.members, commit);
    TryCommit(seq);
  }
  // Not prepared yet: the TryPrepare gate is off now, so the Commit goes
  // out the moment the prepare quorum completes.
}

void PbftEngine::ArmFastAbandon(SeqNum seq) {
  auto it = slots_.find(seq);
  if (it == slots_.end()) return;
  Slot& slot = it->second;
  if (slot.fast_abandon_timer != 0) {
    process_->CancelTimer(slot.fast_abandon_timer);
  }
  slot.fast_abandon_timer = process_->SetTimer(
      FastPathAbandonTimeout(config_, commit_ewma_.value(), process_->id(),
                             seq),
      sim::TimerTag{sim::TimerEngine::kPbft, kFastAbandonTimer, seq});
}

void PbftEngine::CancelFastAbandon(Slot& slot) {
  if (slot.fast_abandon_timer != 0) {
    process_->CancelTimer(slot.fast_abandon_timer);
    slot.fast_abandon_timer = 0;
  }
}

void PbftEngine::ExecuteReady() {
  bool progressed = false;
  for (;;) {
    auto it = slots_.find(last_executed_ + 1);
    if (it == slots_.end() || !it->second.committed || it->second.executed) {
      break;
    }
    Slot& slot = it->second;
    slot.executed = true;
    SeqNum seq = it->first;
    obs::SpanId exec_span = process_->BeginSpan(obs::SpanKind::kPbftExecute);
    for (const auto& op : slot.pre_prepare->batch.ops) {
      ExecuteOp(seq, op);
    }
    process_->EndSpan(exec_span);
    process_->EndSpan(slot.consensus_span);
    slot.consensus_span = 0;
    storage::LogEntry entry{
        seq, slot.pre_prepare->batch_digest,
        "batch:" + std::to_string(slot.pre_prepare->batch.ops.size())};
    if (durable_ != nullptr && durable_->wal.last_seq() < seq) {
      durable_->wal.Append(entry);
    }
    commit_log_.Append(std::move(entry));
    last_executed_ = seq;
    progressed = true;
    MaybeCheckpoint();
  }
  if (progressed) {
    // Progress was made; reset or clear the suspicion timer.
    bool outstanding = !batcher_.empty();
    for (const auto& [seq, slot] : slots_) {
      if (seq > last_executed_ && slot.pre_prepare != nullptr &&
          !slot.executed) {
        outstanding = true;
        break;
      }
    }
    if (outstanding) {
      ArmProgressTimer();
    } else {
      DisarmProgressTimer();
    }
  }
}

void PbftEngine::ForgetExecuted(crypto::Digest digest) {
  // Also drop the request from the backlog kept for view changes (a backup,
  // or an op executed before this replica's own proposal of it).
  if (seen_ops_.erase(digest) > 0) batcher_.Remove(digest);
}

void PbftEngine::ExecuteOp(SeqNum seq, const Operation& op) {
  ForgetExecuted(op.ComputeDigest());
  ClientState& cs = clients_[op.client];
  if (op.client != kInvalidClient && op.timestamp <= cs.last_executed_ts) {
    return;  // duplicate delivery of an already-executed request
  }
  process_->ChargeCpu(process_->costs().apply_us);
  std::string result = state_machine_->Apply(op);
  cs.last_executed_ts = op.timestamp;
  if (op.client != kInvalidClient) {
    RequestTimestamp& covered = read_covered_ts_[op.client];
    covered = std::max(covered, op.timestamp);
  }
  if (op.client != kInvalidClient) {
    auto reply = std::make_shared<ClientReplyMsg>();
    reply->view = view_;
    reply->timestamp = op.timestamp;
    reply->client = op.client;
    reply->replica = process_->id();
    reply->result = result;
    cs.last_reply = reply;
    cs.last_reply_seq = seq;
    process_->ChargeCrypto(process_->costs().mac_us);
    process_->ChargeCpu(process_->costs().send_us);
    process_->Send(op.client, reply);
  }
  if (executed_callback_) executed_callback_(seq, op, result);
}

// ------------------------------------------------------------ checkpoints

void PbftEngine::MaybeCheckpoint() {
  if (config_.checkpoint_interval == 0 ||
      last_executed_ % config_.checkpoint_interval != 0) {
    return;
  }
  // Freeze the checkpoint materials now, at vote time: the vote signs
  // H(seq, state_digest, read_root), and read-only ops executed before the
  // quorum lands can move the coverage table (hence the read root) without
  // moving the state digest. Installing anything but these exact frozen
  // materials at quorum would divorce the stored checkpoint from its
  // certificate.
  PendingCheckpoint pending;
  pending.seq = last_executed_;
  pending.state_digest = state_machine_->StateDigest();
  pending.snapshot = state_machine_->Snapshot();
  pending.coverage = read_covered_ts_;
  pending.tree = crypto::BuildReadTree(pending.snapshot, pending.coverage);

  auto msg = std::make_shared<CheckpointMsg>();
  msg->seq = pending.seq;
  msg->state_digest = pending.state_digest;
  msg->read_root = pending.tree.root();
  msg->replica = process_->id();
  msg->sig = keys_->Sign(process_->id(), msg->digest());
  pending_checkpoints_[pending.seq] = std::move(pending);
  process_->ChargeCrypto(process_->costs().crypto.sign_us);
  process_->ChargeCpu(process_->costs().send_us * config_.members.size());
  process_->Multicast(config_.members, msg);
}

void PbftEngine::HandleCheckpoint(
    const std::shared_ptr<const CheckpointMsg>& msg) {
  if (!IsMember(msg->replica) || msg->replica != msg->from()) return;
  if (!Authentic(msg->sig, msg->digest())) {
    process_->scoped_counters().Inc(obs::CounterId::kPbftBadSig);
    return;
  }
  if (msg->seq <= stable_seq_) return;
  auto& votes = checkpoint_votes_[msg->seq];
  votes[msg->replica] = msg;
  // Count votes that agree on one (state_digest, read_root) pair — both are
  // under the vote signature, so a quorum certifies the read tree along
  // with the application state.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> by_digest;
  for (const auto& [node, cp] : votes) {
    by_digest[{cp->state_digest, cp->read_root}]++;
  }
  for (const auto& [pair, count] : by_digest) {
    if (count < Quorum()) continue;
    const std::uint64_t digest = pair.first;
    const std::uint64_t root = pair.second;
    crypto::CertificateBuilder builder(
        crypto::CheckpointCertDigest(msg->seq, digest, root), Quorum());
    for (const auto& [node, cp] : votes) {
      if (cp->state_digest == digest && cp->read_root == root) {
        builder.Add(cp->sig, cp->digest());
      }
    }
    // Prefer the materials frozen when we voted: they are what the quorum
    // certified, regardless of what executed since.
    if (auto pit = pending_checkpoints_.find(msg->seq);
        pit != pending_checkpoints_.end() &&
        pit->second.state_digest == digest &&
        pit->second.tree.root() == root) {
      PendingCheckpoint materials = std::move(pit->second);
      AdvanceStable(msg->seq, builder.certificate(), std::move(materials));
      return;
    }
    if (last_executed_ < msg->seq || state_machine_->StateDigest() != digest) {
      // We are behind (or diverged): fetch the snapshot from a voter.
      NodeId peer = votes.begin()->first;
      if (peer == process_->id() && votes.size() > 1) {
        peer = std::next(votes.begin())->first;
      }
      RequestStateTransfer(msg->seq, digest, peer);
      return;
    }
    // State matches but we never froze a vote at this seq (e.g. we landed
    // here via state transfer). Rebuild from live state and adopt only if
    // it reproduces the certified root; a coverage mismatch means our
    // client-timestamp table diverged from the quorum's, which only state
    // transfer can reconcile.
    PendingCheckpoint rebuilt;
    rebuilt.seq = msg->seq;
    rebuilt.state_digest = digest;
    rebuilt.snapshot = state_machine_->Snapshot();
    rebuilt.coverage = read_covered_ts_;
    rebuilt.tree = crypto::BuildReadTree(rebuilt.snapshot, rebuilt.coverage);
    if (rebuilt.tree.root() == root) {
      AdvanceStable(msg->seq, builder.certificate(), std::move(rebuilt));
      return;
    }
    NodeId peer = votes.begin()->first;
    if (peer == process_->id() && votes.size() > 1) {
      peer = std::next(votes.begin())->first;
    }
    RequestStateTransfer(msg->seq, digest, peer);
    return;
  }
}

void PbftEngine::AdvanceStable(SeqNum seq, const crypto::Certificate& cert,
                               PendingCheckpoint&& materials) {
  if (seq <= stable_seq_) return;
  stable_seq_ = seq;
  last_stable_checkpoint_.seq = seq;
  last_stable_checkpoint_.state_digest = materials.state_digest;
  last_stable_checkpoint_.snapshot = std::move(materials.snapshot);
  last_stable_checkpoint_.read_root = materials.tree.root();
  last_stable_checkpoint_.coverage = materials.coverage;
  last_stable_checkpoint_.certificate = cert;
  read_tree_ = std::move(materials.tree);
  pending_checkpoints_.erase(pending_checkpoints_.begin(),
                             pending_checkpoints_.upper_bound(seq));
  // The read fast path may now truthfully advertise exactly the coverage
  // and causal dependency vector bound into the certified checkpoint.
  checkpoint_client_ts_ = std::move(materials.coverage);
  checkpoint_deps_ = merged_deps_;
  // Garbage-collect the log below the low-water mark, and evict cached
  // replies superseded by the checkpointed client table. Gated so the soak
  // benchmark can run a no-trim control arm; the durable checkpoint and
  // client table always advance regardless (correctness, not retention).
  if (config_.trim_at_checkpoint) {
    for (auto sit = slots_.begin();
         sit != slots_.end() && sit->first <= seq; ++sit) {
      CancelFastAbandon(sit->second);
    }
    slots_.erase(slots_.begin(), slots_.upper_bound(seq));
    fast_certified_.erase(fast_certified_.begin(),
                          fast_certified_.upper_bound(seq));
    prepared_proofs_.erase(prepared_proofs_.begin(),
                           prepared_proofs_.upper_bound(seq));
    fast_voted_.erase(fast_voted_.begin(), fast_voted_.upper_bound(seq));
    checkpoint_votes_.erase(checkpoint_votes_.begin(),
                            checkpoint_votes_.upper_bound(seq));
    commit_log_.TruncatePrefix(seq);
    for (auto& [client, cs] : clients_) {
      if (cs.last_reply != nullptr && cs.last_reply_seq <= seq) {
        cs.last_reply.reset();
        process_->scoped_counters().Inc(
            obs::CounterId::kPbftReplyCacheEvictions);
      }
    }
    process_->scoped_counters().Inc(obs::CounterId::kPbftLogTrims);
  }
  if (durable_ != nullptr) {
    durable_->stable_checkpoint = last_stable_checkpoint_;
    if (config_.trim_at_checkpoint) {
      durable_->wal.TruncatePrefix(seq);
      durable_->prepared_proofs.erase(
          durable_->prepared_proofs.begin(),
          durable_->prepared_proofs.upper_bound(seq));
      durable_->fast_votes.erase(durable_->fast_votes.begin(),
                                 durable_->fast_votes.upper_bound(seq));
    }
    durable_->checkpoint_client_ts.clear();
    for (const auto& [client, cs] : clients_) {
      if (client != kInvalidClient) {
        durable_->checkpoint_client_ts[client] = cs.last_executed_ts;
      }
    }
  }
  process_->scoped_counters().Inc(obs::CounterId::kPbftStableCheckpoints);
  if (stable_checkpoint_callback_) {
    stable_checkpoint_callback_(last_stable_checkpoint_);
  }
  // The window moved: re-offer ops held back at its edge.
  MaybeProposeBatch(/*timer_fired=*/false);
}

void PbftEngine::RequestStateTransfer(SeqNum seq, std::uint64_t digest,
                                      NodeId peer) {
  if (pending_transfer_seq_ >= seq) return;
  pending_transfer_seq_ = seq;
  pending_transfer_digest_ = digest;
  transfer_votes_.clear();
  state_transfer_attempts_ = 0;
  state_transfer_peer_idx_ = 0;
  if (digest != 0) {
    for (std::size_t i = 0; i < config_.members.size(); ++i) {
      if (config_.members[i] == peer) {
        state_transfer_peer_idx_ = i;
        break;
      }
    }
  }
  SendStateRequest();
  ArmStateTransferRetry();
}

void PbftEngine::SendStateRequest() {
  auto req = std::make_shared<StateRequestMsg>();
  req->seq = pending_transfer_seq_;
  req->replica = process_->id();
  // Advertise the delta anchor: everything up to last_executed_ is already
  // applied locally, so a responder that still holds the batches above it
  // can ship just those instead of the full snapshot.
  req->have_seq =
      config_.delta_state_transfer && !force_full_ ? last_executed_ : 0;
  if (pending_transfer_digest_ != 0) {
    process_->ChargeCpu(process_->costs().send_us);
    process_->Send(config_.members[state_transfer_peer_idx_], req);
  } else {
    // Digest unknown: ask everyone, install on f+1 matching responses.
    process_->ChargeCpu(process_->costs().send_us * config_.members.size());
    process_->Multicast(config_.members, req);
  }
}

void PbftEngine::ArmStateTransferRetry() {
  if (state_transfer_timer_ != 0) {
    process_->CancelTimer(state_transfer_timer_);
  }
  state_transfer_timer_ = process_->SetTimer(
      StateTransferBackoff(config_, state_transfer_attempts_,
                           process_->id(), pending_transfer_seq_),
      sim::TimerTag{sim::TimerEngine::kPbft, kStateTransferTimer});
}

void PbftEngine::CancelStateTransferRetry() {
  if (state_transfer_timer_ != 0) {
    process_->CancelTimer(state_transfer_timer_);
    state_transfer_timer_ = 0;
  }
  state_transfer_attempts_ = 0;
}

void PbftEngine::OnStateTransferTimer() {
  if (pending_transfer_seq_ == 0) return;
  if (++state_transfer_attempts_ > kStateTransferMaxAttempts) {
    // Abandon the target so the pending_transfer_seq_ guard cannot wedge a
    // later transfer toward a newer stable point. The flag lets the next
    // progress timeout spend a retry cycle instead of a view change.
    pending_transfer_seq_ = 0;
    pending_transfer_digest_ = 0;
    transfer_votes_.clear();
    catch_up_abandoned_ = true;
    return;
  }
  process_->scoped_counters().Inc(
      obs::CounterId::kRecoveryStateTransferRetries);
  if (pending_transfer_digest_ != 0 && config_.members.size() > 1) {
    // Rotate away from an unresponsive (crashed/Byzantine) peer.
    do {
      state_transfer_peer_idx_ =
          (state_transfer_peer_idx_ + 1) % config_.members.size();
    } while (config_.members[state_transfer_peer_idx_] == process_->id());
  }
  SendStateRequest();
  ArmStateTransferRetry();
}

Duration PbftEngine::StateTransferBackoff(const PbftConfig& config,
                                          std::uint64_t attempt,
                                          NodeId replica, SeqNum seq) {
  const Duration base = config.request_timeout_us;
  const Duration cap = std::max<Duration>(kStateTransferBackoffCap, base);
  Duration backoff = base;
  for (; attempt > 0 && backoff < cap; --attempt) backoff *= 2;
  backoff = std::min(backoff, cap);
  Duration jitter_span = backoff / 8;
  Duration jitter =
      jitter_span == 0
          ? 0
          : Hasher(0x57a7).Add(replica).Add(seq).Finish() % (jitter_span + 1);
  return backoff + jitter;
}

void PbftEngine::HandleStateRequest(
    const std::shared_ptr<const StateRequestMsg>& msg) {
  if (!IsMember(msg->replica)) return;
  // A replica requesting state has been away (crash, amnesia rejoin,
  // partition) and may also have missed view changes. Piggyback the
  // installed NewView so it re-enters the zone's view right away instead
  // of stalling in an old view until the next view change finds it.
  if (view_active_ && last_new_view_ != nullptr &&
      last_new_view_->new_view == view_ &&
      msg->replica != process_->id()) {
    process_->ChargeCpu(process_->costs().send_us);
    process_->Send(msg->replica, last_new_view_);
  }
  if (last_executed_ < msg->seq) return;  // cannot help
  auto resp = std::make_shared<StateResponseMsg>();
  resp->seq = last_executed_;
  resp->state_digest = state_machine_->StateDigest();
  // Prefer a delta when the requester's anchor is above our low-water mark
  // and we still hold a prepared proof (with a commit-log-matching digest)
  // for every batch it is missing; otherwise fall back to the snapshot —
  // which is also the path taken when the anchor has been trimmed away.
  bool delta_ok = config_.delta_state_transfer && msg->have_seq > 0 &&
                  msg->have_seq >= stable_seq_ &&
                  msg->have_seq >= oob_mutation_seq_ &&
                  msg->have_seq <= last_executed_;
  if (delta_ok) {
    for (SeqNum s = msg->have_seq + 1; s <= last_executed_; ++s) {
      auto pit = prepared_proofs_.find(s);
      std::optional<storage::LogEntry> logged = commit_log_.Find(s);
      if (pit == prepared_proofs_.end() || !logged.has_value() ||
          pit->second.batch_digest != logged->digest) {
        delta_ok = false;
        resp->delta.clear();
        break;
      }
      resp->delta.push_back({s, pit->second.batch_digest, pit->second.batch});
    }
  }
  if (delta_ok) {
    resp->is_delta = true;
    resp->base_seq = msg->have_seq;
    process_->scoped_counters().Inc(obs::CounterId::kPbftDeltaTransfers);
  } else {
    resp->snapshot = state_machine_->Snapshot();
    process_->scoped_counters().Inc(obs::CounterId::kPbftFullTransfers);
  }
  for (const auto& [client, cs] : clients_) {
    if (client != kInvalidClient) resp->client_ts[client] = cs.last_executed_ts;
  }
  process_->ChargeCrypto(process_->costs().crypto.digest_us);
  process_->ChargeCpu(process_->costs().send_us);
  process_->Send(msg->replica, resp);
}

void PbftEngine::HandleStateResponse(
    const std::shared_ptr<const StateResponseMsg>& msg) {
  if (pending_transfer_seq_ == 0) return;
  if (msg->seq < pending_transfer_seq_) return;
  if (!IsMember(msg->from())) return;

  bool install = false;
  if (pending_transfer_digest_ != 0 && msg->seq == pending_transfer_seq_) {
    // Digest certified by 2f+1 checkpoint votes: one matching copy suffices.
    if (msg->state_digest != pending_transfer_digest_) {
      process_->scoped_counters().Inc(obs::CounterId::kPbftBadStateTransfer);
      return;
    }
    install = true;
  } else {
    // Unknown target digest: collect f+1 matching (seq, digest) responses.
    auto& slot = transfer_votes_[{msg->seq, msg->state_digest}];
    slot.first.insert(msg->from());
    slot.second = msg;
    install = slot.first.size() >= config_.f + 1;
  }
  if (!install) return;
  InstallStateResponse(*msg);
}

void PbftEngine::InstallStateResponse(const StateResponseMsg& msg) {
  if (msg.is_delta) {
    if (!ApplyDelta(msg)) {
      // Replaying the delta did not reproduce the agreed digest. That can
      // be a wrong/malicious delta, but also an honest one when this
      // replica's base state diverged out-of-band (it missed a migration
      // install that peers applied below the anchor) — in which case every
      // responder's delta fails identically. Demand a snapshot next so one
      // bad base cannot wedge catch-up forever.
      process_->scoped_counters().Inc(obs::CounterId::kPbftBadStateTransfer);
      force_full_ = true;
      SendStateRequest();
      return;
    }
    // A delta carries no checkpoint certificate, so stable_seq_ is left
    // alone; the checkpoint votes exchanged during replay advance it.
  } else {
    state_machine_->Restore(msg.snapshot);
    if (state_machine_->StateDigest() != msg.state_digest) {
      // Snapshot does not hash to the claimed digest: reject, keep waiting.
      process_->scoped_counters().Inc(obs::CounterId::kPbftBadStateTransfer);
      return;
    }
    last_executed_ = std::max(last_executed_, msg.seq);
    stable_seq_ = std::max(stable_seq_, msg.seq);
    for (auto sit = slots_.begin();
         sit != slots_.end() && sit->first <= stable_seq_; ++sit) {
      CancelFastAbandon(sit->second);
    }
    slots_.erase(slots_.begin(), slots_.upper_bound(stable_seq_));
    fast_certified_.erase(fast_certified_.begin(),
                          fast_certified_.upper_bound(stable_seq_));
    prepared_proofs_.erase(prepared_proofs_.begin(),
                           prepared_proofs_.upper_bound(stable_seq_));
    fast_voted_.erase(fast_voted_.begin(),
                      fast_voted_.upper_bound(stable_seq_));
  }
  // Adopt the responder's client table (max-merge) so a recovered replica
  // does not re-apply requests executed during its outage.
  for (const auto& [client, ts] : msg.client_ts) {
    ClientState& cs = clients_[client];
    if (ts > cs.last_executed_ts) cs.last_executed_ts = ts;
    RequestTimestamp& covered = read_covered_ts_[client];
    covered = std::max(covered, ts);
  }
  pending_transfer_seq_ = 0;
  pending_transfer_digest_ = 0;
  transfer_votes_.clear();
  CancelStateTransferRetry();
  force_full_ = false;
  catch_up_abandoned_ = false;
  catch_up_retry_budget_ = kCatchUpRetryCycles;
  process_->scoped_counters().Inc(obs::CounterId::kPbftStateTransfers);
  ExecuteReady();
}

bool PbftEngine::ApplyDelta(const StateResponseMsg& msg) {
  if (msg.base_seq > last_executed_) return false;  // gap below the delta
  storage::KvStore::Map saved = state_machine_->Snapshot();
  // Phase 1: replay onto the state machine only, staging all bookkeeping.
  // Nothing outside the (snapshot-restorable) application state mutates
  // until the replayed state hashes to the agreed digest, so a bad delta
  // cannot poison the client table or the logs.
  struct StagedBatch {
    SeqNum seq = 0;
    const DeltaEntry* entry = nullptr;
    std::vector<std::pair<const Operation*, std::string>> executed;
  };
  std::vector<StagedBatch> staged;
  std::map<ClientId, RequestTimestamp> staged_ts;
  SeqNum next = last_executed_ + 1;
  for (const auto& e : msg.delta) {
    if (e.seq <= last_executed_) continue;  // already executed locally
    if (e.seq != next || e.batch->ComputeDigest() != e.batch_digest) {
      state_machine_->Restore(saved);
      return false;
    }
    StagedBatch st{e.seq, &e, {}};
    for (const auto& op : e.batch->ops) {
      if (op.client != kInvalidClient) {
        RequestTimestamp seen = 0;
        auto cit = clients_.find(op.client);
        if (cit != clients_.end()) seen = cit->second.last_executed_ts;
        auto sit = staged_ts.find(op.client);
        if (sit != staged_ts.end()) seen = std::max(seen, sit->second);
        if (op.timestamp <= seen) continue;  // duplicate of executed request
        staged_ts[op.client] = op.timestamp;
      }
      process_->ChargeCpu(process_->costs().apply_us);
      std::string result = state_machine_->Apply(op);
      st.executed.emplace_back(&op, std::move(result));
    }
    staged.push_back(std::move(st));
    ++next;
  }
  if (next != msg.seq + 1 ||
      state_machine_->StateDigest() != msg.state_digest) {
    state_machine_->Restore(saved);
    return false;
  }
  // Phase 2: the replayed state checks out — commit the bookkeeping that
  // ExecuteReady/ExecuteOp would have done had these batches arrived live.
  for (StagedBatch& st : staged) {
    for (auto& [op, result] : st.executed) {
      ForgetExecuted(op->ComputeDigest());
      ClientState& cs = clients_[op->client];
      cs.last_executed_ts = std::max(cs.last_executed_ts, op->timestamp);
      if (op->client != kInvalidClient) {
        auto reply = std::make_shared<ClientReplyMsg>();
        reply->view = view_;
        reply->timestamp = op->timestamp;
        reply->client = op->client;
        reply->replica = process_->id();
        reply->result = result;
        cs.last_reply = reply;
        cs.last_reply_seq = st.seq;
        process_->ChargeCrypto(process_->costs().mac_us);
        process_->ChargeCpu(process_->costs().send_us);
        process_->Send(op->client, reply);
      }
      if (executed_callback_) executed_callback_(st.seq, *op, result);
    }
    storage::LogEntry entry{
        st.seq, st.entry->batch_digest,
        "batch:" + std::to_string(st.entry->batch->ops.size())};
    if (durable_ != nullptr && durable_->wal.last_seq() < st.seq) {
      durable_->wal.Append(entry);
    }
    commit_log_.Append(std::move(entry));
    last_executed_ = st.seq;
    auto sit = slots_.find(st.seq);
    if (sit != slots_.end()) sit->second.executed = true;
    MaybeCheckpoint();
  }
  return true;
}

// ------------------------------------------------------------ view change

void PbftEngine::ArmProgressTimer() {
  if (progress_timer_ != 0) process_->CancelTimer(progress_timer_);
  // The fast-path ordering tracks the observed commit latency instead of
  // the fixed configured timeout: suspicion fires sooner on a healthy zone and
  // relaxes (up to the cap) when latency genuinely degrades, so a flapping
  // link does not trigger spurious view changes.
  const Duration timeout =
      config_.ordering == Ordering::kFastPath
          ? AdaptiveProgressTimeout(config_, commit_ewma_.value(),
                                    process_->id(), view_)
          : config_.request_timeout_us;
  progress_timer_ = process_->SetTimer(
      timeout, sim::TimerTag{sim::TimerEngine::kPbft, kProgressTimer});
}

void PbftEngine::DisarmProgressTimer() {
  if (progress_timer_ != 0) {
    process_->CancelTimer(progress_timer_);
    progress_timer_ = 0;
  }
}

void PbftEngine::StartViewChange(ViewId new_view) {
  if (new_view <= view_) return;
  view_ = new_view;
  // Deliberately NOT persisted: the durable view tracks *formed* views
  // (EnterNewView) only. Persisting a demanded view would make an amnesia
  // rejoiner restore into a view the zone never installed, where its solo
  // view changes outrun the zone and nothing can sync it back.
  view_active_ = false;
  DisarmProgressTimer();
  if (view_change_started_at_ == 0) {
    view_change_started_at_ = process_->Now();
  }
  process_->scoped_counters().Inc(obs::CounterId::kPbftViewChangesStarted);
  if (view_callback_) view_callback_(view_, false);

  auto msg = std::make_shared<ViewChangeMsg>();
  msg->new_view = new_view;
  msg->stable_seq = stable_seq_;
  for (const auto& [seq, proof] : prepared_proofs_) {
    if (seq <= stable_seq_) continue;
    msg->prepared.push_back(proof);
  }
  // Carry every fast vote cast above the stable checkpoint: if any replica
  // fast-committed one of these slots, all honest replicas voted its digest
  // and >= f+1 of them land in whatever quorum forms the next view, which
  // is what lets the new primary repropose the committed batch.
  for (const auto& [seq, vote] : fast_voted_) {
    if (seq <= stable_seq_) continue;
    msg->fast_votes.push_back(vote);
  }
  msg->replica = process_->id();
  msg->sig = keys_->Sign(process_->id(), msg->digest());
  process_->ChargeCrypto(process_->costs().crypto.sign_us);
  process_->ChargeCpu(process_->costs().send_us * config_.members.size());
  process_->Multicast(config_.members, msg);

  if (view_change_timer_ != 0) process_->CancelTimer(view_change_timer_);
  // Exponential backoff (classic PBFT liveness argument: timeouts grow
  // until correct replicas overlap in one view long enough to agree),
  // capped and jittered so a lossy zone cannot grow timeouts unboundedly
  // and concurrent view changes de-synchronize.
  view_change_timer_ = process_->SetTimer(
      ViewChangeBackoff(config_, view_change_attempts_++, process_->id(),
                        new_view),
      sim::TimerTag{sim::TimerEngine::kPbft, kViewChangeTimer});
}

Duration PbftEngine::ViewChangeBackoff(const PbftConfig& config,
                                       std::uint64_t attempt, NodeId replica,
                                       ViewId view) {
  const Duration base = config.request_timeout_us * 2;
  const Duration cap = std::max<Duration>(kViewChangeBackoffCap, base);
  Duration backoff = base;
  for (; attempt > 0 && backoff < cap; --attempt) backoff *= 2;
  backoff = std::min(backoff, cap);
  Duration jitter_span = backoff / 8;
  Duration jitter =
      jitter_span == 0
          ? 0
          : Hasher(0x7a17).Add(replica).Add(view).Finish() % (jitter_span + 1);
  return backoff + jitter;
}

void PbftEngine::HandleViewChange(
    const std::shared_ptr<const ViewChangeMsg>& msg) {
  if (!IsMember(msg->replica) || msg->replica != msg->from()) return;
  if (!Authentic(msg->sig, msg->digest())) {
    process_->scoped_counters().Inc(obs::CounterId::kPbftBadSig);
    return;
  }
  if (msg->new_view < view_ || (msg->new_view == view_ && view_active_)) {
    // The sender is demanding a view at or below the one we installed: it
    // missed the NewView (crashed, partitioned, or recovering). Resend our
    // installed NewView so the laggard adopts the view without forcing a
    // fresh view change; the message authenticates via the primary's
    // signature regardless of who relays it.
    if (view_active_ && last_new_view_ != nullptr &&
        last_new_view_->new_view == view_ &&
        msg->replica != process_->id()) {
      process_->ChargeCpu(process_->costs().send_us);
      process_->Send(msg->replica, last_new_view_);
    }
    return;
  }
  auto& votes = view_change_votes_[msg->new_view];
  votes[msg->replica] = msg;

  // A demand far ahead of our installed view (gap >= 2) marks a runaway:
  // a replica that kept escalating solo — typically after crash recovery —
  // and can no longer hear this view's traffic, while its solo demands can
  // never gather f+1 here. Resend the installed NewView; an inactive
  // runaway adopts the zone's formed view (see HandleNewView) and stops
  // escalating. The gap guard keeps ordinary next-view demands (new_view
  // == view_ + 1 during a genuine view change) from being yanked back.
  if (view_active_ && msg->new_view > view_ + 1 &&
      last_new_view_ != nullptr && last_new_view_->new_view == view_ &&
      msg->replica != process_->id()) {
    process_->ChargeCpu(process_->costs().send_us);
    process_->Send(msg->replica, last_new_view_);
  }

  // Liveness rule: join a view change once f+1 replicas demand it.
  if (votes.size() >= config_.f + 1 && msg->new_view > view_) {
    StartViewChange(msg->new_view);
  }
  MaybeSendNewView(msg->new_view);
}

void PbftEngine::MaybeSendNewView(ViewId v) {
  if (PrimaryOf(v) != process_->id()) return;
  if (view_active_ && view_ >= v) return;
  auto it = view_change_votes_.find(v);
  if (it == view_change_votes_.end() || it->second.size() < Quorum()) return;

  auto msg = std::make_shared<NewViewMsg>();
  msg->new_view = v;
  SeqNum max_stable = stable_seq_;
  SeqNum max_seq = 0;
  std::map<SeqNum, const PreparedProof*> best;
  // Fast-vote tally: seq -> (vote view, digest) -> distinct reporters plus
  // one carried copy of the batch.
  std::map<SeqNum, std::map<std::pair<ViewId, crypto::Digest>,
                            std::pair<std::set<NodeId>, const PreparedProof*>>>
      fast_tally;
  for (const auto& [node, vc] : it->second) {
    msg->view_change_sources.push_back(node);
    max_stable = std::max(max_stable, vc->stable_seq);
    for (const auto& proof : vc->prepared) {
      max_seq = std::max(max_seq, proof.seq);
      auto bit = best.find(proof.seq);
      if (bit == best.end() || bit->second->view < proof.view) {
        best[proof.seq] = &proof;
      }
    }
    for (const auto& vote : vc->fast_votes) {
      auto& cell = fast_tally[vote.seq][{vote.view, vote.batch_digest}];
      cell.first.insert(node);
      cell.second = &vote;
    }
  }
  // A fast commit leaves no prepared certificate behind at the other
  // replicas — only the 3f+1 unanimous votes. Since every honest member
  // voted the committed digest, >= f+1 members of THIS quorum report it
  // (and no conflicting digest can reach f+1 reports at the same view:
  // two such candidates would need 2f+2 distinct reporters). An f+1-backed
  // candidate is therefore safe to repropose, and must be, or a committed
  // slot gets no-op-filled. At most f Byzantine reports can conjure no
  // candidate; a reproposed batch nobody committed re-runs the classic
  // rounds harmlessly.
  std::map<SeqNum, const PreparedProof*> fast_best;
  for (const auto& [seq, by_vote] : fast_tally) {
    for (const auto& [key, cell] : by_vote) {
      if (cell.first.size() < config_.f + 1) continue;
      auto fit = fast_best.find(seq);
      if (fit == fast_best.end() || fit->second->view < key.first) {
        fast_best[seq] = cell.second;
        max_seq = std::max(max_seq, seq);
      }
    }
  }
  msg->stable_seq = max_stable;
  for (SeqNum s = max_stable + 1; s <= max_seq; ++s) {
    // Pick per slot: the higher-view candidate wins; on a view tie the
    // prepared certificate wins (with an equivocating primary, f Byzantine
    // reporters plus one misled honest voter can back a digest that never
    // fast-committed, while 2f+1 prepares certify the other — and a fast
    // commit at that view would have made a conflicting prepared
    // certificate impossible).
    const PreparedProof* pick = nullptr;
    if (auto bit = best.find(s); bit != best.end()) pick = bit->second;
    if (auto fit = fast_best.find(s);
        fit != fast_best.end() &&
        (pick == nullptr || pick->view < fit->second->view)) {
      pick = fit->second;
    }
    if (pick != nullptr) {
      PreparedProof p = *pick;
      p.view = v;
      msg->reproposals.push_back(std::move(p));
    } else {
      // Fill the gap with a no-op batch.
      msg->reproposals.push_back(PreparedProof{
          v, s, EmptyBatchDigest(), std::make_shared<const Batch>()});
    }
  }
  msg->sig = keys_->Sign(process_->id(), msg->digest());
  process_->ChargeCrypto(process_->costs().crypto.sign_us);
  process_->ChargeCpu(process_->costs().send_us * config_.members.size());
  process_->scoped_counters().Inc(obs::CounterId::kPbftNewViewsSent);
  process_->Multicast(config_.members, msg);
}

void PbftEngine::HandleNewView(const std::shared_ptr<const NewViewMsg>& msg) {
  // Authenticate by the signature's signer, not the wire sender: a NewView
  // relayed by a peer (laggard catch-up) is exactly as trustworthy as one
  // received from the primary directly.
  if (msg->sig.signer != PrimaryOf(msg->new_view)) return;
  if (!Authentic(msg->sig, msg->digest())) return;
  // An active replica ignores views at or below its own. An inactive
  // replica adopts any formed view, even a lower-numbered one: its own
  // higher demand never formed (solo view-change runaway, e.g. after a
  // crash recovery), and a NewView carrying a quorum certificate is the
  // zone's authoritative view regardless of its number.
  if (view_active_ && msg->new_view <= view_) return;
  if (msg->view_change_sources.size() < Quorum()) return;
  EnterNewView(msg);
}

void PbftEngine::EnterNewView(const std::shared_ptr<const NewViewMsg>& msg) {
  view_ = msg->new_view;
  view_active_ = true;
  view_change_attempts_ = 0;
  if (durable_ != nullptr) durable_->view = view_;
  last_new_view_ = msg;
  if (view_change_started_at_ != 0) {
    process_->recorder().Record(
        obs::HistogramId::kSpanViewChangeUs,
        static_cast<double>(process_->Now() - view_change_started_at_));
    view_change_started_at_ = 0;
  }
  process_->scoped_counters().Inc(obs::CounterId::kPbftNewViewsEntered);
  if (view_callback_) view_callback_(view_, true);
  if (view_change_timer_ != 0) {
    process_->CancelTimer(view_change_timer_);
    view_change_timer_ = 0;
  }
  view_change_votes_.erase(view_change_votes_.begin(),
                           view_change_votes_.upper_bound(msg->new_view));

  // Uncommitted slot state from earlier views is obsolete: anything safety
  // relevant (prepared certificates) traveled in the view-change messages
  // and comes back as a reproposal below. Keeping stale pre-prepares would
  // also poison sequence numbers above the reproposal range — next_seq_
  // rolls back to the reproposal max, and when this view's primary reuses a
  // freed seq, a leftover same-digest pre-prepare makes HandlePrePrepare
  // drop the fresh one without ever re-preparing it in this view.
  for (auto it = slots_.begin(); it != slots_.end();) {
    if (!it->second.committed) {
      CancelFastAbandon(it->second);
      it = slots_.erase(it);
    } else {
      ++it;
    }
  }
  // Reproposed slots run the classic flow in the new view (fast_eligible is
  // only ever set when a live pre-prepare is accepted). The fallback streak
  // resets — the stall may have been the old primary's fault, so the new
  // view gets a fresh optimistic chance. Per-slot grace needs no reset:
  // fast_grace_spent lives on the slot and dies with it.
  fast_fallback_streak_ = 0;

  SeqNum max_seq = msg->stable_seq;
  for (const auto& proof : msg->reproposals) {
    max_seq = std::max(max_seq, proof.seq);
    if (proof.seq <= stable_seq_) continue;
    Slot& slot = slots_[proof.seq];
    if (!slot.committed) {
      // Adopt the reproposal; prepare and commit votes are re-collected in
      // the new view.
      auto pp = std::make_shared<PrePrepareMsg>();
      pp->view = msg->new_view;
      pp->seq = proof.seq;
      pp->batch_digest = proof.batch_digest;
      pp->batch = *proof.batch;
      // Attribute the synthetic pre-prepare to the new primary (not the
      // wire sender — a relayed NewView arrives from a peer).
      NodeId new_primary = PrimaryOf(msg->new_view);
      pp->sig = keys_->Sign(new_primary, pp->digest());
      pp->set_from(new_primary);
      slot.pre_prepare = pp;
      slot.prepares = 0;
      slot.commits = 0;
      slot.prepared = false;
    }
    // Every replica re-affirms its prepare for every reproposal — including
    // slots it already committed. Skipping committed slots starves replicas
    // that missed the commit: with only the laggards re-preparing, a gap
    // slot can never reach 2f prepares again and the laggard stays wedged
    // until a checkpoint (possibly never) rescues it via state transfer.
    auto prep = std::make_shared<PrepareMsg>();
    prep->view = msg->new_view;
    prep->seq = proof.seq;
    prep->batch_digest = slot.committed ? slot.pre_prepare->batch_digest
                                        : proof.batch_digest;
    prep->replica = process_->id();
    prep->sig = keys_->Sign(process_->id(), prep->digest());
    process_->ChargeCrypto(process_->costs().crypto.sign_us);
    process_->ChargeCpu(process_->costs().send_us * config_.members.size());
    process_->Multicast(config_.members, prep);
    if (slot.committed) {
      // Re-announce the commit in the new view so laggards can assemble a
      // fresh commit quorum for the slot they missed.
      auto commit = std::make_shared<CommitMsg>();
      commit->view = msg->new_view;
      commit->seq = proof.seq;
      commit->batch_digest = slot.pre_prepare->batch_digest;
      commit->replica = process_->id();
      commit->sig = keys_->Sign(process_->id(), commit->digest());
      process_->ChargeCrypto(process_->costs().crypto.sign_us);
      process_->ChargeCpu(process_->costs().send_us * config_.members.size());
      process_->Multicast(config_.members, commit);
    }
  }
  next_seq_ = std::max(max_seq, stable_seq_);
  if (msg->stable_seq > last_executed_) {
    // We missed executions below the new stable point; catch up by state
    // transfer (digest learned from f+1 matching responses).
    RequestStateTransfer(msg->stable_seq, 0, kInvalidNode);
  }

  // Requests that were pending before the view change get re-submitted.
  if (IsPrimary()) {
    MaybeProposeBatch(/*timer_fired=*/true);
  } else if (!batcher_.empty()) {
    // Forward pending requests to the new primary as client requests are
    // already deduplicated there via seen_ops_/client table.
    for (const auto& [digest, op, trace] : batcher_.queued()) {
      auto req = std::make_shared<ClientRequestMsg>();
      req->op = op;
      req->client_sig = keys_->Sign(op.client, req->ComputeDigest());
      process_->ChargeCpu(process_->costs().send_us);
      process_->Send(primary(), req);
    }
    ArmProgressTimer();
  }
  ExecuteReady();
}

// ---------------------------------------------------------------- recovery

void PbftEngine::RestoreFromDurable() {
  if (durable_ == nullptr) return;
  view_ = durable_->view;
  // Treat the restored view as active: if it was never installed anywhere
  // the progress timer (re-armed by the host) escalates to a view change;
  // if it was, the laggard-resend path delivers the NewView on demand.
  view_active_ = true;
  const storage::Checkpoint& cp = durable_->stable_checkpoint;
  if (cp.seq > 0) {
    state_machine_->Restore(cp.snapshot);
    stable_seq_ = cp.seq;
    last_executed_ = cp.seq;
    last_stable_checkpoint_ = cp;
  }
  prepared_proofs_ = durable_->prepared_proofs;
  // Restore cast fast votes: an amnesiac that forgot a vote could drop a
  // fast-committed digest below the f+1 view-change reporting threshold.
  fast_voted_ = durable_->fast_votes;
  // Seed the client table as of the checkpoint; replay rebuilds it forward
  // so per-op duplicate decisions replay exactly as they first ran.
  clients_.clear();
  read_covered_ts_.clear();
  checkpoint_client_ts_.clear();
  for (const auto& [client, ts] : durable_->checkpoint_client_ts) {
    clients_[client].last_executed_ts = ts;
    read_covered_ts_[client] = ts;
  }
  if (cp.seq > 0) {
    // The restored checkpoint is the one the read path serves from: its
    // coverage claims restart from the coverage table bound into the
    // certificate, and the read tree is rebuilt so Merkle paths can be cut.
    // If the rebuilt root disagrees with the certified one (corrupt durable
    // state), HandleReadRequest's root guard answers `behind` rather than
    // serving unprovable replies.
    checkpoint_client_ts_ = cp.coverage;
    for (const auto& [client, ts] : cp.coverage) {
      RequestTimestamp& covered = read_covered_ts_[client];
      covered = std::max(covered, ts);
    }
    read_tree_ = crypto::BuildReadTree(cp.snapshot, cp.coverage);
  }
  // Replay the WAL above the checkpoint: each entry's batch comes from its
  // prepared proof (digest-checked), is re-applied to the state machine and
  // re-recorded in the commit log. Replay stops at the first gap or
  // mismatch; everything beyond comes back via state transfer.
  for (const auto& entry : durable_->wal.entries()) {
    if (entry.seq <= last_executed_) continue;
    if (entry.seq != last_executed_ + 1) break;
    auto pit = durable_->prepared_proofs.find(entry.seq);
    if (pit == durable_->prepared_proofs.end() ||
        pit->second.batch_digest != entry.digest) {
      break;
    }
    for (const auto& op : pit->second.batch->ops) {
      ClientState& cs = clients_[op.client];
      if (op.client != kInvalidClient &&
          op.timestamp <= cs.last_executed_ts) {
        continue;  // was a duplicate at first execution; stays one at replay
      }
      process_->ChargeCpu(process_->costs().apply_us);
      state_machine_->Apply(op);
      cs.last_executed_ts = op.timestamp;
      if (op.client != kInvalidClient) {
        RequestTimestamp& covered = read_covered_ts_[op.client];
        covered = std::max(covered, op.timestamp);
      }
    }
    commit_log_.Append(entry);
    last_executed_ = entry.seq;
  }
  next_seq_ = std::max(stable_seq_, last_executed_);
}

// --------------------------------------------------------------- retention

PbftEngine::RetentionStats PbftEngine::retention() const {
  RetentionStats r;
  r.commit_log_entries = commit_log_.size();
  for (const auto& e : commit_log_.entries()) {
    r.commit_log_bytes += 24 + e.description.size();
  }
  r.prepared_proofs = prepared_proofs_.size();
  for (const auto& [seq, proof] : prepared_proofs_) {
    r.prepared_proof_bytes += 32 + proof.batch->WireSizeBytes();
  }
  r.slots = slots_.size();
  r.client_table_entries = clients_.size();
  for (const auto& [client, cs] : clients_) {
    if (cs.last_reply != nullptr) ++r.reply_cache_entries;
  }
  r.wal_entries = durable_ != nullptr ? durable_->wal.size() : 0;
  return r;
}

}  // namespace ziziphus::pbft
