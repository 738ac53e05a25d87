#include "app/client_core.h"

#include <algorithm>
#include <memory>

#include "app/bank.h"
#include "sim/timer_tag.h"

namespace ziziphus::app {

void ClientCore::BeginOp(ClientOp op) {
  busy_ = true;
  op_ = op;
  cur_ts_ = 0;
  attempt_ = 0;
  issued_at_ = Now();
  const std::uint64_t attr =
      op == ClientOp::kTransfer ? 0 : op == ClientOp::kMigrate ? 1 : 2;
  root_ctx_ = simulation()->recorder().tracer().StartTrace(id(), Now(), attr);
}

void ClientCore::SendWrite(std::shared_ptr<pbft::ClientRequestMsg> req,
                           const Route& route) {
  req->client_sig = keys_->Sign(id(), req->ComputeDigest());
  const RequestTimestamp ts = req->op.timestamp;
  Launch(std::move(req), ts, /*global=*/false, /*command=*/false, route);
}

void ClientCore::SendWrite(std::shared_ptr<core::MigrationRequestMsg> req,
                           const Route& route) {
  req->client_sig = keys_->Sign(id(), req->digest());
  const RequestTimestamp ts = req->op.timestamp;
  const bool command = !req->op.command.empty();
  Launch(std::move(req), ts, /*global=*/true, command, route);
}

void ClientCore::Launch(sim::MessagePtr req, RequestTimestamp ts, bool global,
                        bool command, const Route& route) {
  reading_ = false;
  cur_ts_ = ts;
  global_ = global;
  command_ = command;
  route_ = route;
  request_ = std::move(req);
  replies_.clear();
  rejects_.clear();
  set_trace_context(root_ctx_);
  Send(route_.target, request_);
  ArmRetry();
}

void ClientCore::Tally(std::set<NodeId>& votes, NodeId replica,
                       std::size_t quorum, Outcome outcome) {
  votes.insert(replica);
  if (votes.size() >= quorum) Finish(outcome);
}

void ClientCore::Finish(Outcome outcome) {
  const Duration latency = Now() - issued_at_;
  if (outcome == Outcome::kCommitted && attempt_ == 0) {
    latency_[static_cast<std::size_t>(op_)].Observe(latency);
  }
  if (outcome != Outcome::kAbandoned) {
    switch (op_) {
      case ClientOp::kTransfer:
        stats_.local_latency_us.Record(latency);
        stats_.local_completed++;
        break;
      case ClientOp::kMigrate:
        stats_.global_latency_us.Record(latency);
        stats_.global_completed++;
        break;
      case ClientOp::kRead:
        stats_.read_latency_us.Record(latency);
        stats_.reads_completed++;
        break;
    }
  }
  // A committed write raises the read-your-writes watermark. A read that
  // fell back to a BAL transaction mutated nothing: raising the watermark
  // past every stable checkpoint would starve the fast path.
  if (outcome == Outcome::kCommitted && op_ != ClientOp::kRead) {
    session_.last_write_ts = cur_ts_;
  }
  if (root_ctx_.active()) {
    // The span handling the completing reply (if it belongs to this
    // operation's trace) is what semantically finished the operation.
    obs::SpanId completing = trace_context().trace_id == root_ctx_.trace_id
                                 ? trace_context().parent_span
                                 : 0;
    simulation()->recorder().tracer().CompleteTrace(root_ctx_, completing,
                                                    Now());
    root_ctx_ = {};
  }
  busy_ = false;
  reading_ = false;
  if (retry_timer_ != 0) {
    CancelTimer(retry_timer_);
    retry_timer_ = 0;
  }
  OnDone(outcome);
}

void ClientCore::Pace(Duration think) {
  if (think > 0) {
    IssueAfter(think);
  } else {
    IssueNext();
  }
}

void ClientCore::IssueAfter(Duration delay) {
  SetTimer(delay, sim::TimerTag{sim::TimerEngine::kClient, kIssue});
}

Duration ClientCore::AttemptTimeout(Duration retry_timeout,
                                   const pbft::CommitLatencyEwma& ewma,
                                   std::uint32_t attempt) {
  if (!ewma.seeded()) return retry_timeout;
  Duration timeout =
      std::max<Duration>(pbft::kAdaptiveTimeoutMultiplier * ewma.value(),
                         retry_timeout / pbft::kClientRetryFloorDiv);
  for (; attempt > 0 && timeout < retry_timeout; --attempt) timeout *= 2;
  return std::min(timeout, retry_timeout);
}

void ClientCore::ArmRetry() {
  if (retry_timer_ != 0) CancelTimer(retry_timer_);
  retry_timer_ = SetTimer(
      AttemptTimeout(retry_timeout_, latency_ewma(op_), attempt_),
      sim::TimerTag{sim::TimerEngine::kClient, kRetry});
}

// ------------------------------------------------------- verified reads

void ClientCore::StartRead(ZoneId zone, const std::vector<NodeId>* replicas,
                           std::size_t f, bool spread) {
  reading_ = true;
  read_zone_ = zone;
  read_replicas_ = replicas;
  read_f_ = f;
  read_tried_ = 0;
  read_floor_before_ = session_.FloorFor(zone);
  if (spread) read_rr_++;
  SendRead();
}

void ClientCore::SendRead() {
  auto req = std::make_shared<pbft::ReadRequestMsg>();
  req->client = id();
  req->nonce = read_nonce_ = next_read_nonce_++;  // stale replies drop
  req->key = BankStateMachine::AccountKey(id());
  req->min_stable_seq = session_.FloorFor(read_zone_);
  req->min_write_ts = session_.last_write_ts;
  req->client_sig = keys_->Sign(id(), req->ComputeDigest());
  set_trace_context(root_ctx_);
  Send((*read_replicas_)[read_rr_ % read_replicas_->size()], req);
  ArmRetry();
}

void ClientCore::NextReadReplica() {
  read_rr_++;
  if (++read_tried_ >= read_replicas_->size()) {
    OnReadExhausted();
  } else {
    SendRead();
  }
}

void ClientCore::RetryReadAfter(Duration wait) {
  if (retry_timer_ != 0) {
    CancelTimer(retry_timer_);
    retry_timer_ = 0;
  }
  SetTimer(wait, sim::TimerTag{sim::TimerEngine::kClient, kReadRetry});
}

void ClientCore::HandleReadReply(const pbft::ReadReplyMsg& r) {
  switch (VerifyReadReply(*keys_, *read_replicas_, read_f_, r, session_,
                          read_zone_)) {
    case ReadVerdict::kOk:
      session_.AdvanceFloor(read_zone_, r.proof.anchor_seq);
      if (causal_) session_.MergeDeps(r.deps);
      scoped_counters().Inc(obs::CounterId::kReadsCertVerified);
      if (witness_sink_ != nullptr) {
        witness_sink_->push_back(
            {id(), read_zone_, r.key, r.value, r.found,
             std::make_shared<const crypto::ReadProof>(r.proof),
             read_floor_before_});
      }
      Finish(Outcome::kCommitted);
      return;
    case ReadVerdict::kBehind:
      OnReadBehind();
      return;
    case ReadVerdict::kBadCertificate:
    case ReadVerdict::kBadInclusion:
    case ReadVerdict::kBadCoverage:
      RejectRead(obs::CounterId::kReadsCertRejected);
      return;
    case ReadVerdict::kStaleAnchor:
    case ReadVerdict::kStaleWrite:
      RejectRead(obs::CounterId::kReadsSessionViolationsDetected);
      return;
  }
}

void ClientCore::RejectRead(obs::CounterId counter) {
  stats_.read_rejects++;
  scoped_counters().Inc(counter);
  NextReadReplica();
}

// -------------------------------------------------------------- events

void ClientCore::OnMessage(const sim::MessagePtr& msg) {
  if (!busy_) return;
  switch (msg->type()) {
    case pbft::kReadReply: {
      const auto& r = static_cast<const pbft::ReadReplyMsg&>(*msg);
      if (reading_ && r.nonce == read_nonce_) HandleReadReply(r);
      return;
    }
    case pbft::kClientReply: {
      const auto& r = static_cast<const pbft::ClientReplyMsg&>(*msg);
      OnReplyView(r.view);
      if (!global_ && r.timestamp == cur_ts_) {
        Tally(replies_, r.replica, route_.quorum, Outcome::kCommitted);
      }
      return;
    }
    case core::kMigrationReply: {
      // The first sub-transaction committed. For a global command this is
      // the result; a migration waits for MIGRATION-DONE unless policy
      // rejected it, in which case no data ever moves.
      const auto& r = static_cast<const core::MigrationReplyMsg&>(*msg);
      if (!global_ || r.timestamp != cur_ts_) return;
      if (r.result.rfind("rejected", 0) == 0) {
        Tally(rejects_, r.replica, route_.reject_quorum, Outcome::kRejected);
      } else if (command_) {
        Tally(replies_, r.replica, route_.quorum, Outcome::kCommitted);
      }
      return;
    }
    case core::kMigrationDone: {
      // f+1 MIGRATION-DONE replies from the destination (Alg. 2 line 25).
      const auto& r = static_cast<const core::MigrationReplyMsg&>(*msg);
      if (global_ && !command_ && r.timestamp == cur_ts_) {
        Tally(replies_, r.replica, route_.quorum, Outcome::kCommitted);
      }
      return;
    }
    default:
      return;
  }
}

void ClientCore::OnTimer(const sim::TimerTag& tag) {
  switch (tag.kind) {
    case kIssue:
      if (!busy_) IssueNext();
      return;
    case kReadRetry:
      if (reading_) SendRead();
      return;
    case kRetry:
      retry_timer_ = 0;
      if (!busy_) return;
      stats_.timeouts++;
      if (attempt_++ == 0 && !reading_) OnPrimarySilent(route_.target);
      if (reading_) {
        // A silent replica on the read path: rotate to the next one.
        NextReadReplica();
        return;
      }
      // Retransmit to every node of the serving group; backups relay to the
      // primary and suspect it on silence (Section V-A).
      Multicast(*route_.retry_group, request_);
      ArmRetry();
      return;
    default:
      return;
  }
}

}  // namespace ziziphus::app
