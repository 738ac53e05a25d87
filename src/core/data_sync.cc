#include "core/data_sync.h"

#include <algorithm>

#include "common/logging.h"

namespace ziziphus::core {

DataSyncEngine::DataSyncEngine(sim::Process* process,
                               const crypto::KeyRegistry* keys,
                               const Topology* topology, ZoneId my_zone,
                               GlobalMetadata* metadata, LockTable* locks,
                               ZoneEndorser* endorser, SyncConfig config)
    : process_(process),
      keys_(keys),
      topology_(topology),
      my_zone_(my_zone),
      metadata_(metadata),
      locks_(locks),
      endorser_(endorser),
      config_(config) {}

// ----------------------------------------------------------------- utils

std::vector<NodeId> DataSyncEngine::ProxyNodes(const ZoneInfo& zone,
                                               ViewId view) const {
  std::vector<NodeId> out;
  std::size_t n = zone.members.size();
  for (std::size_t i = 0; i <= zone.f; ++i) {
    out.push_back(zone.members[(view + i) % n]);
  }
  return out;
}

bool DataSyncEngine::IAmProxy() const {
  auto proxies = ProxyNodes(my_zone_info(), endorser_->view());
  return std::find(proxies.begin(), proxies.end(), process_->id()) !=
         proxies.end();
}

Ballot DataSyncEngine::NextBallot(ZoneId chain_zone) {
  std::uint64_t n =
      std::max({highest_n_seen_, my_last_ballot_.n, my_last_cross_ballot_.n}) +
      1;
  highest_n_seen_ = n;
  if (durable_ != nullptr) durable_->highest_n_seen = highest_n_seen_;
  return Ballot{n, chain_zone};
}

std::uint64_t DataSyncEngine::ArmTimer(std::uint64_t request_id,
                                       TimerKind kind, Duration delay) {
  return process_->SetTimer(
      delay, sim::TimerTag{sim::TimerEngine::kDataSync,
                           static_cast<std::uint8_t>(kind), request_id});
}

void DataSyncEngine::DisarmTimer(std::uint64_t& timer) {
  if (timer != 0) process_->CancelTimer(timer);
  timer = 0;
}

DataSyncEngine::RequestState& DataSyncEngine::Track(std::uint64_t id) {
  request_order_.insert(id);
  return requests_[id];
}

Ballot DataSyncEngine::last_executed_ballot(ZoneId initiator) const {
  auto it = chain_executed_.find(initiator);
  return it == chain_executed_.end() ? kNullBallot : it->second;
}

// -------------------------------------------------------------- dispatch

bool DataSyncEngine::HandleMessage(const sim::MessagePtr& msg) {
  const auto& costs = config_.costs;
  switch (msg->type()) {
    case kMigrationRequest:
      process_->ChargeCpu(costs.base_handle_us);
      process_->ChargeAuth(costs.mac_us);
      HandleMigrationRequest(
          std::static_pointer_cast<const MigrationRequestMsg>(msg));
      return true;
    case kPropose:
      process_->ChargeCpu(costs.base_handle_us);
      HandlePropose(std::static_pointer_cast<const ProposeMsg>(msg));
      return true;
    case kPromise:
      process_->ChargeCpu(costs.base_handle_us);
      HandlePromise(std::static_pointer_cast<const PromiseMsg>(msg));
      return true;
    case kAccept:
      process_->ChargeCpu(costs.base_handle_us);
      HandleAccept(std::static_pointer_cast<const AcceptMsg>(msg));
      return true;
    case kAccepted:
      process_->ChargeCpu(costs.base_handle_us);
      HandleAccepted(std::static_pointer_cast<const AcceptedMsg>(msg));
      return true;
    case kGlobalCommit:
      process_->ChargeCpu(costs.base_handle_us);
      HandleGlobalCommit(std::static_pointer_cast<const GlobalCommitMsg>(msg));
      return true;
    case kResponseQuery:
      process_->ChargeCpu(costs.base_handle_us);
      process_->ChargeAuth(costs.mac_us);
      HandleResponseQuery(
          std::static_pointer_cast<const ResponseQueryMsg>(msg));
      return true;
    case kCrossPropose:
      process_->ChargeCpu(costs.base_handle_us);
      HandleCrossPropose(std::static_pointer_cast<const CrossProposeMsg>(msg));
      return true;
    case kPrepared:
      process_->ChargeCpu(costs.base_handle_us);
      HandlePrepared(std::static_pointer_cast<const PreparedMsg>(msg));
      return true;
    default:
      return false;
  }
}

void DataSyncEngine::HandleTimer(const sim::TimerTag& tag) {
  if (tag.kind == kBatch) {
    batch_timer_armed_ = false;
    FlushBatch();
    return;
  }

  const std::uint64_t request_id = tag.key;
  auto rit = requests_.find(request_id);
  if (rit == requests_.end()) return;
  RequestState& req = rit->second;

  switch (tag.kind) {
    case kRetry:
      if (req.commit_msg == nullptr && req.i_am_leader) {
        RetryRequest(request_id);
      }
      break;
    case kCommitWait:
      if (req.commit_msg == nullptr && req.initiator_zone != kInvalidZone &&
          req.initiator_zone != my_zone_) {
        // Probe the initiator zone for the missing commit (Section V-A).
        auto query = std::make_shared<ResponseQueryMsg>();
        query->request_id = request_id;
        query->ballot = req.ballot;
        query->zone = my_zone_;
        query->replica = process_->id();
        query->sig = keys_->Sign(process_->id(), query->digest());
        const auto& members = topology_->zone(req.initiator_zone).members;
        process_->ChargeCrypto(config_.costs.crypto.sign_us);
        process_->ChargeCpu(config_.costs.send_us * members.size());
        process_->scoped_counters().Inc(
            obs::CounterId::kSyncResponseQueriesSent);
        process_->Multicast(members, query);
        // Capped exponential backoff with a generous round budget: the
        // initiator zone may be unreachable (cuts, crashes, rejoining
        // amnesiacs) for longer than a handful of rounds, and a follower
        // zone that stops probing can never learn the commit it already
        // accepted — wedging the migration that rides on it.
        if (++req.commit_wait_rounds < 64) {
          std::uint64_t mult = std::min<std::uint64_t>(
              1ULL << std::min(req.commit_wait_rounds, 3), 8ULL);
          req.commit_wait_timer =
              ArmTimer(request_id, kCommitWait,
                       config_.response_query_timeout_us * mult);
        }
      }
      break;
    case kRelayWatch: {
      auto wit = relay_watch_.find(request_id);
      if (wit != relay_watch_.end() && !req.saw_endorse &&
          req.commit_msg == nullptr &&
          !executed_ops_.Contains(req.op0().client, req.op0().timestamp)) {
        // The primary ignored a relayed migration request: suspect it.
        process_->scoped_counters().Inc(obs::CounterId::kSyncRelayWatchExpired);
        relay_watch_.erase(wit);
        if (suspect_primary_callback_) suspect_primary_callback_();
      }
      break;
    }
    case kChainSkip:
      // ExecuteCommit cancels the request's other guards; this one already
      // fired, so cancelling it there is a no-op.
      if (!req.executed && req.commit_msg != nullptr) {
        process_->scoped_counters().Inc(obs::CounterId::kSyncChainSkip);
        if (!BallotExecuted(req.exec_prev)) {
          chain_holes_[req.exec_prev.zone].insert(req.exec_prev);
          if (durable_ != nullptr) {
            durable_->chain_holes[req.exec_prev.zone].insert(req.exec_prev);
          }
        }
        ExecuteCommit(req);
      }
      break;
    default:
      break;
  }
}

// ----------------------------------------------------- request admission

void DataSyncEngine::HandleMigrationRequest(
    const std::shared_ptr<const MigrationRequestMsg>& msg) {
  if (!process_->loopback() &&
      !keys_->Verify(msg->client_sig, msg->digest())) {
    process_->scoped_counters().Inc(obs::CounterId::kSyncBadClientSig);
    return;
  }
  const MigrationOp& op = msg->op;
  if (op.client == kInvalidClient) return;
  if (op.IsMigration() &&
      (op.source == op.destination || op.source >= topology_->num_zones() ||
       op.destination >= topology_->num_zones())) {
    return;  // malformed; faulty client
  }
  std::uint64_t op_id = op.RequestId();
  if (executed_ops_.Contains(op.client, op.timestamp) ||
      queued_op_ids_.count(op_id) > 0) {
    return;  // duplicate
  }
  if (!IsZonePrimary()) {
    // Relay to the primary and watch for progress (Section V-A). Track the
    // op so a future primary (after a view change) can lead it.
    process_->ChargeCpu(config_.costs.send_us);
    process_->Send(endorser_->primary(), msg);
    if (relay_watch_.count(op_id) == 0) {
      queued_op_ids_.insert(op_id);
      pending_ops_.push_back(op);
      relay_watch_[op_id] =
          ArmTimer(op_id, kRelayWatch, config_.relay_watch_timeout_us);
      // Ensure a request record exists for relay-watch bookkeeping.
      RequestState& watch = Track(op_id);
      if (watch.id == 0) {
        watch.id = op_id;
        watch.ops = {op};
      }
    }
    return;
  }
  QueueOrLead(op);
}

void DataSyncEngine::QueueOrLead(const MigrationOp& op) {
  std::uint64_t op_id = op.RequestId();
  if (op.cross_zone) {
    // Cross-zone transaction (Section IV-B3): the initiator (destination)
    // zone is the primary; no election; only the involved zones take part.
    RequestState& req = Track(op_id);
    if (req.id != 0 && req.phase != Phase::kIdle) return;
    req.id = op_id;
    req.ops = {op};
    req.initiator_zone = my_zone_;
    req.cross_zone = true;
    LeadRequest(req);
    return;
  }
  bool cross = op.IsMigration() &&
               topology_->zone(op.source).cluster !=
                   topology_->zone(op.destination).cluster;
  if (cross) {
    // Cross-cluster requests run as singleton instances (they coordinate
    // two clusters and cannot share a ballot with intra-cluster traffic).
    RequestState& req = Track(op_id);
    if (req.id != 0 && req.phase != Phase::kIdle) return;
    req.id = op_id;
    req.ops = {op};
    req.initiator_zone = my_zone_;
    req.cross = true;
    LeadRequest(req);
    return;
  }
  if (obs::TraceContext ctx = process_->trace_context(); ctx.active()) {
    pending_traces_.emplace(op_id, ctx);
  }
  queued_op_ids_.insert(op_id);
  pending_ops_.push_back(op);
  if (pending_ops_.size() >= config_.batch_max) {
    FlushBatch();
  } else if (!batch_timer_armed_) {
    batch_timer_armed_ = true;
    ArmTimer(0, kBatch, config_.batch_timeout_us);
  }
}

void DataSyncEngine::FlushBatch() {
  if (!IsZonePrimary() || pending_ops_.empty()) return;
  while (!pending_ops_.empty()) {
    std::size_t take = std::min(config_.batch_max, pending_ops_.size());
    std::vector<MigrationOp> ops(pending_ops_.begin(),
                                 pending_ops_.begin() + take);
    pending_ops_.erase(pending_ops_.begin(), pending_ops_.begin() + take);
    for (const auto& op : ops) queued_op_ids_.erase(op.RequestId());

    Hasher h(0xba7c);
    for (const auto& op : ops) h.Add(op.RequestId());
    std::uint64_t batch_id = h.Finish();
    // A duplicate relay of ops this primary already leads in an identical
    // batch (a client retry reaches every backup) must not re-ballot it:
    // the old ballot is already the chain predecessor of later requests,
    // and re-leading would orphan it until the chain skip fires. Retries
    // and view-change re-leads go through RetryRequest and OnViewChange.
    if (auto led = requests_.find(batch_id);
        led != requests_.end() &&
        (led->second.i_am_leader || led->second.commit_msg != nullptr)) {
      for (const auto& op : ops) pending_traces_.erase(op.RequestId());
      continue;
    }
    RequestState& req = Track(batch_id);
    req.id = batch_id;
    req.ops = std::move(ops);
    req.initiator_zone = my_zone_;
    // The batch inherits the causal trace of its first traced operation;
    // the other parked traces are dropped (one chain per ballot).
    for (const auto& op : req.ops) {
      auto tit = pending_traces_.find(op.RequestId());
      if (tit == pending_traces_.end()) continue;
      if (!req.trace.active()) req.trace = tit->second;
      pending_traces_.erase(tit);
    }
    process_->scoped_counters().Inc(obs::CounterId::kSyncBatchesFormed);
    LeadRequest(req);
  }
}

void DataSyncEngine::LeadRequest(RequestState& req) {
  // Bridge the causal trace: when led from a timer or a view-change
  // (inactive context), resume the chain parked on the request; when led
  // inside a traced handler, remember the context for later re-leads. The
  // previous context is restored on exit so loops over many requests do not
  // leak one request's trace into the next one's sends.
  obs::TraceContext saved_ctx = process_->trace_context();
  if (!saved_ctx.active() && req.trace.active()) {
    process_->set_trace_context(req.trace);
  } else if (saved_ctx.active() && !req.trace.active()) {
    req.trace = saved_ctx;
  }
  process_->EndSpan(req.ballot_span);  // re-led: close the stale round
  req.ballot_span = process_->BeginSpan(obs::SpanKind::kSyncBallot);
  req.i_am_leader = true;
  bool cross_chain = req.cross || req.is_source_leg || req.cross_zone;
  ZoneId chain_zone =
      cross_chain ? my_zone_ + static_cast<ZoneId>(topology_->num_zones())
                  : my_zone_;
  Ballot& tail = cross_chain ? my_last_cross_ballot_ : my_last_ballot_;
  req.ballot = NextBallot(chain_zone);
  req.prev = tail;
  tail = req.ballot;
  if (durable_ != nullptr) {
    (cross_chain ? durable_->my_last_cross_ballot : durable_->my_last_ballot) =
        tail;
  }
  req.initiator_zone = my_zone_;
  req.exec_ballot = req.ballot;
  req.exec_prev = req.prev;
  process_->scoped_counters().Inc(obs::CounterId::kSyncRequestsLed);

  if (config_.stable_leader || req.is_source_leg) {
    // Stable leader: no propose/promise phases. The first endorsement both
    // assigns the ballot (full PBFT) and certifies the accept message.
    req.phase = Phase::kAccepting;
    EndorsePhase phase = req.is_source_leg ? EndorsePhase::kCrossSource
                                           : EndorsePhase::kAccept;
    endorser_->Start(
        phase, req.id, req.ballot, req.prev,
        AcceptContentDigest(req.id, req.ballot, req.prev, req.ops), nullptr,
        req.ops.front(), req.ops, {}, /*full_prepare=*/true);
  } else {
    req.phase = Phase::kProposing;
    endorser_->Start(EndorsePhase::kPropose, req.id, req.ballot, req.prev,
                     ProposeContentDigest(req.id, req.ballot, req.ops),
                     nullptr, req.ops.front(), req.ops, {},
                     /*full_prepare=*/true);
  }
  DisarmTimer(req.retry_timer);
  req.retry_timer = ArmTimer(req.id, kRetry, config_.retry_timeout_us);
  process_->set_trace_context(saved_ctx);
}

void DataSyncEngine::RetryRequest(std::uint64_t request_id) {
  auto it = requests_.find(request_id);
  if (it == requests_.end()) return;
  RequestState& req = it->second;
  if (req.retries >= 8 || !IsZonePrimary()) return;
  req.retries++;
  process_->scoped_counters().Inc(obs::CounterId::kSyncRetries);

  if (config_.stable_leader && req.sent_accept != nullptr) {
    // Retransmit; followers deduplicate by request id.
    std::vector<NodeId> targets = ParticipantNodes(my_zone_info().cluster);
    process_->ChargeCpu(config_.costs.send_us * targets.size());
    process_->Multicast(targets, req.sent_accept);
    req.retry_timer = ArmTimer(req.id, kRetry, config_.retry_timeout_us);
    return;
  }
  // Re-propose at once with a fresh, higher ballot (collision handling;
  // Lemma 5.6's randomized backoff before re-proposing is not modeled).
  req.promises.clear();
  req.accepteds.clear();
  req.phase = Phase::kIdle;
  req.sent_propose = nullptr;
  req.sent_accept = nullptr;
  LeadRequest(req);
}

// ----------------------------------------------------------- endorsement

bool DataSyncEngine::ValidateEndorse(const EndorsePrePrepareMsg& pp) {
  std::uint64_t id = pp.request_id;
  bool is_source_leg = pp.phase == EndorsePhase::kCrossSource;
  std::vector<MigrationOp> ops =
      is_source_leg ? std::vector<MigrationOp>{pp.op} : pp.ops;
  if (ops.empty() && !pp.ops.empty()) ops = pp.ops;
  if (ops.empty()) ops = {pp.op};

  // Track the request at every node of the zone (needed for relay-watch
  // cancellation, proxies, and follower-side protocol state).
  RequestState& req = Track(id);
  if (req.id == 0) {
    req.id = id;
    req.ops = ops;
  }
  // The endorser validates each time it opens an instance, including a
  // higher ballot re-opening a completed one: the old certificate is void
  // from here on, whatever the outcome.
  if (pp.phase == EndorsePhase::kAccepted) {
    req.accepted_cert = crypto::Certificate{};
  }
  req.saw_endorse = true;
  if (!req.trace.active()) {
    // Remember the trace at every node: if this node becomes primary after
    // a view change, the re-led request continues the client's chain.
    req.trace = process_->trace_context();
  }
  req.ballot = pp.ballot;
  req.prev = pp.prev;
  req.is_source_leg = req.is_source_leg || is_source_leg;
  req.cross_zone = req.cross_zone || ops.front().cross_zone;
  if (req.is_source_leg && req.peer_request_id == 0) {
    // The original (destination-leg) id is derivable from the op.
    req.peer_request_id = pp.op.RequestId();
  }
  for (const auto& op : ops) {
    auto wit = relay_watch_.find(op.RequestId());
    if (wit != relay_watch_.end()) {
      DisarmTimer(wit->second);
      relay_watch_.erase(wit);
    }
  }
  highest_n_seen_ = std::max(highest_n_seen_, pp.ballot.n);

  // Phase-specific digest validation: recompute what the zone is being
  // asked to sign.
  crypto::Digest expect = 0;
  switch (pp.phase) {
    case EndorsePhase::kPropose:
      expect = ProposeContentDigest(id, pp.ballot, ops);
      break;
    case EndorsePhase::kPromise:
      expect = PromiseContentDigest(id, pp.ballot, pp.prev, my_zone_);
      break;
    case EndorsePhase::kAccept:
      expect = AcceptContentDigest(id, pp.ballot, pp.prev, ops);
      break;
    case EndorsePhase::kCrossSource:
      expect = AcceptContentDigest(id, pp.ballot, pp.prev, {pp.op});
      break;
    case EndorsePhase::kAccepted:
      expect = AcceptedContentDigest(id, pp.ballot, pp.prev, my_zone_);
      break;
    case EndorsePhase::kCommit:
      expect = req.is_source_leg
                   ? PreparedContentDigest(req.peer_request_id, pp.ballot,
                                           my_zone_)
                   : CommitContentDigest(id, pp.ballot, pp.prev, ops);
      break;
    default:
      return false;  // not a data-sync phase
  }
  if (expect != pp.content_digest) {
    process_->scoped_counters().Inc(obs::CounterId::kSyncBadEndorseDigest);
    return false;
  }

  // Validate the embedded top-level message's certificate, if any.
  if (pp.payload != nullptr) {
    if (const auto* prop = dynamic_cast<const ProposeMsg*>(pp.payload.get())) {
      if (!VerifyZoneCert(prop->cert, prop->digest(),
                          prop->initiator_zone)
               .ok()) {
        return false;
      }
    } else if (const auto* acc =
                   dynamic_cast<const AcceptMsg*>(pp.payload.get())) {
      if (!VerifyZoneCert(acc->cert, acc->digest(), acc->initiator_zone)
               .ok()) {
        return false;
      }
    }
  }

  // Side effect (Alg. 1 lines 18, 21): the source zone stops serving a
  // migrating client as soon as it endorses the promise/accept(ed) phase.
  if (pp.phase == EndorsePhase::kPromise ||
      pp.phase == EndorsePhase::kAccepted ||
      pp.phase == EndorsePhase::kAccept ||
      pp.phase == EndorsePhase::kCrossSource) {
    for (const auto& op : ops) {
      if (op.IsMigration() && my_zone_ == op.source &&
          op.client != kInvalidClient) {
        locks_->SetLocked(op.client, false);
      }
    }
  }
  return true;
}

void DataSyncEngine::OnEndorseQuorum(const EndorseKey& key,
                                     const EndorsePrePrepareMsg& pp,
                                     const crypto::Certificate& cert) {
  auto it = requests_.find(key.request_id);
  if (it == requests_.end()) return;
  RequestState& req = it->second;
  if (key.phase == EndorsePhase::kAccepted) req.accepted_cert = cert;

  switch (key.phase) {
    case EndorsePhase::kPropose: {
      if (!IsZonePrimary() || !req.i_am_leader) break;
      auto prop = std::make_shared<ProposeMsg>();
      prop->request_id = req.id;
      prop->ballot = req.ballot;
      prop->ops = req.ops;
      prop->cert = cert;
      prop->initiator_zone = my_zone_;
      req.sent_propose = prop;
      req.phase = Phase::kPromised;
      std::vector<NodeId> targets;
      for (ZoneId z : topology_->ZonesInCluster(my_zone_info().cluster)) {
        if (z == my_zone_) continue;
        const auto& m = topology_->zone(z).members;
        targets.insert(targets.end(), m.begin(), m.end());
      }
      process_->ChargeCpu(config_.costs.send_us * targets.size());
      process_->Multicast(targets, prop);
      break;
    }
    case EndorsePhase::kPromise: {
      if (!IsZonePrimary()) break;
      auto promise = std::make_shared<PromiseMsg>();
      promise->request_id = req.id;
      promise->ballot = pp.ballot;
      promise->last_accepted = pp.prev;
      promise->zone = my_zone_;
      promise->cert = cert;
      const auto& members = topology_->zone(req.initiator_zone).members;
      process_->ChargeCpu(config_.costs.send_us * members.size());
      process_->Multicast(members, promise);
      break;
    }
    case EndorsePhase::kAccept:
    case EndorsePhase::kCrossSource: {
      // Cross-cluster: the f+1 proxies of the destination zone forward the
      // certified request to the source zone (Section VI).
      if (req.cross && !req.is_source_leg && IAmProxy()) {
        obs::SpanId relay = process_->BeginSpan(obs::SpanKind::kProxyRelay);
        auto cp = std::make_shared<CrossProposeMsg>();
        cp->request_id = req.id;
        cp->ballot = pp.ballot;
        cp->prev = pp.prev;
        cp->op = req.op0();
        cp->initiator_zone = my_zone_;
        cp->cert = cert;
        const auto& members = topology_->zone(req.op0().source).members;
        process_->ChargeCpu(config_.costs.send_us * members.size());
        process_->scoped_counters().Inc(obs::CounterId::kSyncCrossProposesSent);
        process_->Multicast(members, cp);
        process_->EndSpan(relay);
      }
      if (!IsZonePrimary() || !req.i_am_leader) break;
      SendAccept(req, cert);
      break;
    }
    case EndorsePhase::kAccepted: {
      // Every node of a follower zone that endorsed the accepted phase now
      // waits for the commit; probe with response-queries if it never comes.
      if (req.commit_wait_timer == 0 && req.commit_msg == nullptr) {
        req.commit_wait_rounds = 0;
        req.commit_wait_timer =
            ArmTimer(req.id, kCommitWait, config_.response_query_timeout_us);
      }
      if (!IsZonePrimary()) break;
      auto acc = std::make_shared<AcceptedMsg>();
      acc->request_id = req.id;
      acc->ballot = pp.ballot;
      acc->prev = pp.prev;
      acc->zone = my_zone_;
      acc->cert = cert;
      const auto& members = topology_->zone(req.initiator_zone).members;
      process_->ChargeCpu(config_.costs.send_us * members.size());
      process_->Multicast(members, acc);
      break;
    }
    case EndorsePhase::kCommit: {
      if (req.is_source_leg) {
        // Source-cluster leg finished: proxies of the source zone inform
        // the destination zone with a PREPARED message.
        if (IAmProxy()) {
          obs::SpanId relay =
              process_->BeginSpan(obs::SpanKind::kProxyRelay);
          auto prep = std::make_shared<PreparedMsg>();
          prep->request_id = req.peer_request_id;
          prep->source_ballot = req.ballot;
          prep->source_prev = req.prev;
          prep->source_zone = my_zone_;
          prep->cert = cert;
          auto pit = requests_.find(req.peer_request_id);
          ZoneId dest_zone =
              pit != requests_.end() &&
                      pit->second.initiator_zone != kInvalidZone
                  ? pit->second.initiator_zone
                  : topology_->zone(req.op0().destination).id;
          const auto& members = topology_->zone(dest_zone).members;
          process_->ChargeCpu(config_.costs.send_us * members.size());
          process_->scoped_counters().Inc(obs::CounterId::kSyncPreparedSent);
          process_->Multicast(members, prep);
          process_->EndSpan(relay);
        }
        break;
      }
      if (!IsZonePrimary() || !req.i_am_leader) break;
      req.commit_cert = cert;
      req.commit_cert_ready = true;
      if (!req.cross || req.prepared != nullptr) {
        SendCommit(req);
      }
      break;
    }
    default:
      break;
  }
}

void DataSyncEngine::OnLateEndorseVote(const EndorseKey& key,
                                       const crypto::Signature& sig) {
  if (key.phase != EndorsePhase::kAccepted) return;
  auto it = requests_.find(key.request_id);
  if (it == requests_.end()) return;
  crypto::Certificate& cert = it->second.accepted_cert;
  if (cert.empty()) return;
  for (const auto& s : cert.signatures) {
    if (s.signer == sig.signer) return;
  }
  cert.signatures.push_back(sig);
}

bool DataSyncEngine::Settled(std::uint64_t request_id, Ballot ballot,
                             bool erased_settles) const {
  auto it = requests_.find(request_id);
  if (it == requests_.end()) return erased_settles;
  const RequestState& req = it->second;
  if (!req.executed) return false;
  // A source leg is done when the commit arrives; it never executes itself.
  const Ballot done_at = req.is_source_leg ? req.ballot : req.exec_ballot;
  return ballot.zone == done_at.zone && ballot <= done_at;
}

void DataSyncEngine::StartAcceptPhase(RequestState& req) {
  req.phase = Phase::kAccepting;
  endorser_->Start(EndorsePhase::kAccept, req.id, req.ballot, req.prev,
                   AcceptContentDigest(req.id, req.ballot, req.prev, req.ops),
                   req.sent_propose, req.ops.front(), req.ops, {},
                   /*full_prepare=*/config_.always_full_prepare);
}

void DataSyncEngine::StartCommitPhase(RequestState& req) {
  req.phase = Phase::kCommitting;
  endorser_->Start(
      EndorsePhase::kCommit, req.id, req.ballot, req.prev,
      req.is_source_leg
          ? PreparedContentDigest(req.peer_request_id, req.ballot, my_zone_)
          : CommitContentDigest(req.id, req.ballot, req.prev, req.ops),
      nullptr, req.ops.front(), req.ops, {},
      /*full_prepare=*/config_.always_full_prepare);
}

void DataSyncEngine::SendAccept(RequestState& req,
                                const crypto::Certificate& cert) {
  auto acc = std::make_shared<AcceptMsg>();
  acc->request_id = req.id;
  acc->ballot = req.ballot;
  acc->prev = req.prev;
  acc->ops = req.ops;
  acc->initiator_zone = my_zone_;
  acc->cert = cert;
  req.sent_accept = acc;
  req.phase = Phase::kAccepted;

  std::vector<NodeId> targets;
  if (req.cross_zone) {
    // Only the involved zones participate (Section IV-B3).
    for (ZoneId z : {req.op0().source, req.op0().destination}) {
      if (z == my_zone_) continue;
      const auto& m = topology_->zone(z).members;
      targets.insert(targets.end(), m.begin(), m.end());
    }
  } else {
    for (ZoneId z : topology_->ZonesInCluster(my_zone_info().cluster)) {
      if (z == my_zone_) continue;
      const auto& m = topology_->zone(z).members;
      targets.insert(targets.end(), m.begin(), m.end());
    }
  }
  process_->ChargeCpu(config_.costs.send_us * targets.size());
  process_->Multicast(targets, acc);

  // A single-zone cluster has no followers: the accept quorum already
  // implies the zone majority, so move straight to the commit phase.
  if (targets.empty()) StartCommitPhase(req);
}

void DataSyncEngine::SendCommit(RequestState& req) {
  auto commit = std::make_shared<GlobalCommitMsg>();
  commit->request_id = req.id;
  commit->ballot = req.ballot;
  commit->prev = req.prev;
  commit->ops = req.ops;
  commit->initiator_zone = my_zone_;
  commit->cert = req.commit_cert;
  if (req.cross && req.prepared != nullptr) {
    commit->cross_cluster = true;
    commit->source_ballot = req.prepared->source_ballot;
    commit->source_prev = req.prepared->source_prev;
    commit->source_zone = req.prepared->source_zone;
    commit->source_cert = req.prepared->cert;
  }
  std::vector<NodeId> targets;
  if (req.cross_zone) {
    for (ZoneId z : {req.op0().source, req.op0().destination}) {
      const auto& m = topology_->zone(z).members;
      targets.insert(targets.end(), m.begin(), m.end());
    }
  } else {
    targets = ParticipantNodes(my_zone_info().cluster);
  }
  if (commit->cross_cluster) {
    auto src = ParticipantNodes(topology_->zone(commit->source_zone).cluster);
    targets.insert(targets.end(), src.begin(), src.end());
  }
  process_->ChargeCpu(config_.costs.send_us * targets.size());
  process_->scoped_counters().Inc(obs::CounterId::kSyncCommitsSent);
  process_->Multicast(targets, commit);
  process_->EndSpan(req.ballot_span);  // ballot round: led -> commit sent
  req.ballot_span = 0;
}

// --------------------------------------------------- top-level reception

void DataSyncEngine::HandlePropose(
    const std::shared_ptr<const ProposeMsg>& msg) {
  RequestState& req = Track(msg->request_id);
  req.id = msg->request_id;
  if (req.ops.empty()) req.ops = msg->ops;
  req.initiator_zone = msg->initiator_zone;
  if (!IsZonePrimary()) return;  // backups observe; primary acts
  if (req.commit_msg != nullptr) return;

  if (!VerifyZoneCert(msg->cert, msg->digest(), msg->initiator_zone)
           .ok()) {
    process_->scoped_counters().Inc(obs::CounterId::kSyncBadProposeCert);
    return;
  }
  // Paxos promise rule, scoped per instance: only promise ballots above
  // anything promised for this request.
  if (!(msg->ballot > req.promised)) {
    process_->scoped_counters().Inc(obs::CounterId::kSyncProposeRejectedStale);
    return;
  }
  req.promised = msg->ballot;
  req.ballot = msg->ballot;
  highest_n_seen_ = std::max(highest_n_seen_, msg->ballot.n);
  if (durable_ != nullptr) {
    // The promise must hit "disk" before the PROMISE message can leave this
    // zone: a restarted replica that forgot it could double-vote the ballot.
    durable_->promised[req.id] = msg->ballot;
    durable_->highest_n_seen = highest_n_seen_;
  }

  endorser_->Start(
      EndorsePhase::kPromise, req.id, msg->ballot, last_accepted_ballot_,
      PromiseContentDigest(req.id, msg->ballot, last_accepted_ballot_,
                           my_zone_),
      msg, req.ops.front(), req.ops, {},
      /*full_prepare=*/config_.always_full_prepare);
}

void DataSyncEngine::HandlePromise(
    const std::shared_ptr<const PromiseMsg>& msg) {
  auto it = requests_.find(msg->request_id);
  if (it == requests_.end()) return;
  RequestState& req = it->second;
  if (!req.i_am_leader || req.phase != Phase::kPromised) return;
  if (msg->ballot != req.ballot) return;
  if (!VerifyZoneCert(msg->cert, msg->digest(), msg->zone).ok()) {
    process_->scoped_counters().Inc(obs::CounterId::kSyncBadPromiseCert);
    return;
  }
  req.promises[msg->zone] = msg;
  std::size_t majority = ZoneMajorityFor(my_zone_info().cluster);
  if (req.promises.size() + 1 >= majority) {  // +1: the initiator zone
    StartAcceptPhase(req);
  }
}

void DataSyncEngine::HandleAccept(
    const std::shared_ptr<const AcceptMsg>& msg) {
  RequestState& req = Track(msg->request_id);
  req.id = msg->request_id;
  if (req.ops.empty()) req.ops = msg->ops;
  req.initiator_zone = msg->initiator_zone;
  if (!IsZonePrimary()) return;
  if (req.commit_msg != nullptr) return;
  if ((req.phase == Phase::kAccepted || req.phase == Phase::kAccepting) &&
      msg->ballot <= req.ballot) {
    // Duplicate (leader retransmission). If our ACCEPTED was lost, re-send
    // it from the completed endorsement certificate. A *higher* ballot is
    // not a duplicate: a new leader re-led the request after a view change
    // and needs a fresh endorsement at its ballot (the old-ballot ACCEPTED
    // is useless to it), so that case falls through below.
    if (!req.accepted_cert.empty()) {
      auto acc = std::make_shared<AcceptedMsg>();
      acc->request_id = req.id;
      acc->ballot = req.ballot;
      acc->prev = req.prev;
      acc->zone = my_zone_;
      acc->cert = req.accepted_cert;
      const auto& members = topology_->zone(msg->initiator_zone).members;
      process_->ChargeCpu(config_.costs.send_us * members.size());
      process_->Multicast(members, acc);
    }
    return;
  }
  if (!VerifyZoneCert(msg->cert, msg->digest(), msg->initiator_zone)
           .ok()) {
    process_->scoped_counters().Inc(obs::CounterId::kSyncBadAcceptCert);
    return;
  }
  // Paxos accept rule (non-stable mode): reject ballots below this
  // instance's promise.
  if (!config_.stable_leader && msg->ballot < req.promised) {
    process_->scoped_counters().Inc(obs::CounterId::kSyncAcceptRejectedStale);
    return;
  }
  req.ballot = msg->ballot;
  req.prev = msg->prev;
  req.phase = Phase::kAccepting;
  highest_n_seen_ = std::max(highest_n_seen_, msg->ballot.n);
  if (msg->ballot > last_accepted_ballot_) last_accepted_ballot_ = msg->ballot;
  if (durable_ != nullptr) {
    durable_->highest_n_seen = highest_n_seen_;
    durable_->last_accepted_ballot = last_accepted_ballot_;
  }

  endorser_->Start(
      EndorsePhase::kAccepted, req.id, msg->ballot, msg->prev,
      AcceptedContentDigest(req.id, msg->ballot, msg->prev, my_zone_), msg,
      req.ops.front(), req.ops, {},
      /*full_prepare=*/config_.always_full_prepare);
}

void DataSyncEngine::HandleAccepted(
    const std::shared_ptr<const AcceptedMsg>& msg) {
  auto it = requests_.find(msg->request_id);
  if (it == requests_.end()) return;
  RequestState& req = it->second;
  if (!req.i_am_leader || req.commit_msg != nullptr) return;
  if (msg->ballot != req.ballot) return;
  if (req.phase != Phase::kAccepted && req.phase != Phase::kAccepting) return;
  if (!VerifyZoneCert(msg->cert, msg->digest(), msg->zone).ok()) {
    process_->scoped_counters().Inc(obs::CounterId::kSyncBadAcceptedCert);
    return;
  }
  req.accepteds[msg->zone] = msg;
  std::size_t needed;
  if (req.cross_zone) {
    // Every involved shard must accept (the other involved zone; the
    // initiator zone's own endorsement counts implicitly).
    needed = req.op0().source == my_zone_ || req.op0().destination == my_zone_
                 ? 1
                 : 2;
  } else {
    needed = ZoneMajorityFor(my_zone_info().cluster) - 1;
  }
  if (req.accepteds.size() >= needed && req.phase != Phase::kCommitting) {
    StartCommitPhase(req);
  }
}

void DataSyncEngine::HandleGlobalCommit(
    const std::shared_ptr<const GlobalCommitMsg>& msg) {
  RequestState& req = Track(msg->request_id);
  req.id = msg->request_id;
  if (req.ops.empty()) req.ops = msg->ops;
  if (req.commit_msg != nullptr) return;  // duplicate
  if (!VerifyZoneCert(msg->cert, msg->digest(), msg->initiator_zone)
           .ok()) {
    process_->scoped_counters().Inc(obs::CounterId::kSyncBadCommitCert);
    return;
  }
  if (msg->cross_cluster) {
    if (!VerifyZoneCert(msg->source_cert,
                        PreparedContentDigest(msg->request_id,
                                              msg->source_ballot,
                                              msg->source_zone),
                        msg->source_zone)
             .ok()) {
      process_->scoped_counters().Inc(obs::CounterId::kSyncBadCommitSourceCert);
      return;
    }
  }
  req.commit_msg = msg;
  req.initiator_zone = msg->initiator_zone;
  req.cross = msg->cross_cluster;
  if (req.ops.empty()) req.ops = msg->ops;
  committed_count_++;
  DisarmTimer(req.commit_wait_timer);
  DisarmTimer(req.retry_timer);
  if (msg->ballot.zone == my_zone_ && msg->ballot > my_last_ballot_) {
    my_last_ballot_ = msg->ballot;
    if (durable_ != nullptr) durable_->my_last_ballot = my_last_ballot_;
  }
  ZoneId cross_chain_id =
      my_zone_ + static_cast<ZoneId>(topology_->num_zones());
  if (msg->ballot.zone == cross_chain_id &&
      msg->ballot > my_last_cross_ballot_) {
    my_last_cross_ballot_ = msg->ballot;
    if (durable_ != nullptr) {
      durable_->my_last_cross_ballot = my_last_cross_ballot_;
    }
  }

  if (msg->cross_cluster) {
    // The source-cluster leg tracked this request under its own leg id;
    // mark it complete so its commit-wait probing and re-leading stop.
    auto lit = requests_.find(SourceLegId(msg->request_id));
    if (lit != requests_.end()) {
      RequestState& leg = lit->second;
      leg.commit_msg = msg;
      leg.executed = true;
      DisarmTimer(leg.commit_wait_timer);
      DisarmTimer(leg.retry_timer);
      endorser_->Settle(leg.id);
    }
  }

  // Which execution chain does this node follow? Source-cluster nodes of a
  // cross-cluster transaction order by the source leg's ballot.
  ClusterId my_cluster = my_zone_info().cluster;
  if (msg->cross_cluster &&
      my_cluster == topology_->zone(msg->source_zone).cluster &&
      my_cluster != topology_->zone(msg->initiator_zone).cluster) {
    req.exec_ballot = msg->source_ballot;
    req.exec_prev = msg->source_prev;
  } else {
    req.exec_ballot = msg->ballot;
    req.exec_prev = msg->prev;
  }
  MaybeExecute(msg->request_id);
}

void DataSyncEngine::MaybeExecute(std::uint64_t request_id) {
  auto it = requests_.find(request_id);
  if (it == requests_.end()) return;
  RequestState& req = it->second;
  if (req.executed || req.commit_msg == nullptr) return;
  if (req.exec_prev == kNullBallot || BallotExecuted(req.exec_prev)) {
    ExecuteCommit(req);
    return;
  }
  // Predecessor not executed yet: wait for it (and arm a skip guard so a
  // predecessor lost to a failed leader cannot wedge the chain forever).
  waiting_on_[req.exec_prev].push_back(request_id);
  chain_skips_.emplace(
      request_id,
      ArmTimer(request_id, kChainSkip, config_.retry_timeout_us * 2));
}

void DataSyncEngine::ExecuteCommit(RequestState& req) {
  if (req.executed) return;
  req.executed = true;
  // Executed: every pending skip guard would fire into a no-op.
  auto [cs, end] = chain_skips_.equal_range(req.id);
  for (auto it = cs; it != end; ++it) process_->CancelTimer(it->second);
  chain_skips_.erase(cs, end);
  for (const MigrationOp& op : req.ops) {
    const bool ran = executed_ops_.Insert(op.client, op.timestamp);
    if (config_.exec_observer) {
      config_.exec_observer(process_->id(), op, ran);
    }
    if (!ran) continue;  // re-led twin
    executed_count_++;
    if (durable_ != nullptr) {
      durable_->executed_ops.Insert(op.client, op.timestamp);
      durable_->executed_op_count = executed_count_;
    }
    process_->ChargeCpu(config_.costs.apply_us);
    std::string result;
    if (op.IsMigration()) {
      result = metadata_->Execute(op);
    } else if (global_apply_callback_) {
      result = global_apply_callback_(op);
    } else {
      result = "no-global-apply";
    }
    if (executed_callback_) {
      executed_callback_(op, req.exec_ballot, req.initiator_zone, result);
    }
  }
  if (ledger_ != nullptr) {
    Hasher digest(0xe4ec);
    digest.Add(req.id);
    for (const MigrationOp& op : req.ops) digest.Add(op.RequestId());
    ledger_->Record(req.exec_ballot, digest.Finish(), process_->id());
  }
  const ZoneId chain_id = req.exec_ballot.zone;
  Ballot& chain = chain_executed_[chain_id];
  if (req.exec_ballot > chain) chain = req.exec_ballot;
  auto hit = chain_holes_.find(chain_id);
  if (hit != chain_holes_.end() && hit->second.erase(req.exec_ballot) > 0) {
    if (hit->second.empty()) chain_holes_.erase(hit);
    if (durable_ != nullptr) durable_->chain_holes = chain_holes_;
  }
  if (durable_ != nullptr) durable_->chain_executed[chain_id] = chain;
  FlushWaiters(req.exec_ballot);
  endorser_->Settle(req.id);
  if (config_.compact_decided) {
    decided_order_.push_back(req.id);
    while (decided_order_.size() > config_.decided_keep_window) {
      CompactDecided(decided_order_.front());
      decided_order_.pop_front();
    }
  }
}

void DataSyncEngine::CompactDecided(std::uint64_t request_id) {
  auto it = requests_.find(request_id);
  if (it == requests_.end() || !it->second.executed) return;
  // The request ran: its ballot is at or below the chain watermark and its
  // ops at or below their clients' watermarks, which is all a late
  // duplicate needs. Its promise bound goes with it.
  if (durable_ != nullptr) durable_->promised.erase(request_id);
  requests_.erase(it);
  process_->scoped_counters().Inc(obs::CounterId::kSyncRequestsCompacted);
}

bool DataSyncEngine::BallotExecuted(Ballot ballot) const {
  auto it = chain_executed_.find(ballot.zone);
  if (it == chain_executed_.end() || ballot > it->second) return false;
  auto hit = chain_holes_.find(ballot.zone);
  return hit == chain_holes_.end() || hit->second.count(ballot) == 0;
}

DataSyncEngine::RetentionStats DataSyncEngine::retention() const {
  RetentionStats r;
  r.requests = requests_.size();
  for (const auto& [id, req] : requests_) {
    r.ops += req.ops.size();
    r.approx_bytes += 160 + req.ops.size() * 96 +
                      (req.promises.size() + req.accepteds.size()) * 64 +
                      req.response_queries.size() * 8 +
                      (req.commit_msg != nullptr ? 128 : 0) +
                      (req.sent_propose != nullptr ? 96 : 0) +
                      (req.sent_accept != nullptr ? 96 : 0) +
                      (req.prepared != nullptr ? 96 : 0);
  }
  r.watermarked_clients = executed_ops_.clients();
  r.approx_bytes += executed_ops_.ApproxBytes() + chain_executed_.size() * 48 +
                    request_order_.size() * 16;
  for (const auto& [zone, holes] : chain_holes_) {
    r.chain_holes += holes.size();
    r.approx_bytes += 48 + holes.size() * 48;
  }
  return r;
}

void DataSyncEngine::FlushWaiters(Ballot ballot) {
  auto it = waiting_on_.find(ballot);
  if (it == waiting_on_.end()) return;
  std::vector<std::uint64_t> ready = std::move(it->second);
  waiting_on_.erase(it);
  for (std::uint64_t id : ready) MaybeExecute(id);
}

// ------------------------------------------------------- failure probing

void DataSyncEngine::HandleResponseQuery(
    const std::shared_ptr<const ResponseQueryMsg>& msg) {
  if (!process_->loopback() && !keys_->Verify(msg->sig, msg->digest())) {
    return;
  }
  process_->scoped_counters().Inc(obs::CounterId::kSyncResponseQueriesReceived);
  auto it = requests_.find(msg->request_id);
  if (it != requests_.end() && it->second.commit_msg != nullptr) {
    // Already processed: re-send the response (Section V-A), and log the
    // query to detect denial-of-service attempts.
    process_->ChargeCpu(config_.costs.send_us);
    process_->Send(msg->replica, it->second.commit_msg);
    return;
  }
  if (it == requests_.end()) return;
  RequestState& req = it->second;
  if (req.executed) {
    // Executed but the commit is gone: nothing to resend, and an executed
    // request is no evidence of a stuck primary — do not let the query
    // accumulate toward a suspicion quorum.
    return;
  }
  // Only the current primary's stall is evidence against it. A follower
  // probes after waiting response_query_timeout for a commit it accepted,
  // so within that long of this view's installation no instance the new
  // primary led can be overdue: such a query is about its predecessor's
  // stall (the view change re-led every pending request under a fresh
  // ballot). Tallies from an earlier view accuse an earlier primary.
  if (process_->Now() - view_since_ < config_.response_query_timeout_us) {
    return;
  }
  if (req.response_query_view != endorser_->view()) {
    req.response_queries.clear();
    req.response_query_view = endorser_->view();
  }
  req.response_queries.insert(msg->replica);
  std::size_t suspicion_quorum = topology_->zone(msg->zone).quorum();
  if (req.response_queries.size() >= suspicion_quorum && !IsZonePrimary()) {
    process_->scoped_counters().Inc(obs::CounterId::kSyncPrimarySuspected);
    req.response_queries.clear();
    if (suspect_primary_callback_) suspect_primary_callback_();
  }
}

// --------------------------------------------------------- cross-cluster

void DataSyncEngine::HandleCrossPropose(
    const std::shared_ptr<const CrossProposeMsg>& msg) {
  // Received by nodes of the source zone: start the source-cluster leg.
  if (my_zone_ != topology_->zone(msg->op.source).id) return;
  std::uint64_t leg_id = SourceLegId(msg->request_id);
  RequestState& leg = Track(leg_id);
  if (leg.id != 0 && leg.phase != Phase::kIdle) return;  // already running
  if (!VerifyZoneCert(msg->cert, msg->digest(), msg->initiator_zone)
           .ok()) {
    process_->scoped_counters().Inc(obs::CounterId::kSyncBadCrossProposeCert);
    return;
  }
  leg.id = leg_id;
  leg.ops = {msg->op};
  leg.is_source_leg = true;
  leg.cross = true;
  leg.peer_request_id = msg->request_id;
  // Remember the destination-leg coordinates for the PREPARED reply.
  RequestState& orig = Track(msg->request_id);
  if (orig.id == 0) {
    orig.id = msg->request_id;
    orig.ops = {msg->op};
  }
  orig.initiator_zone = msg->initiator_zone;
  orig.cross = true;

  if (!IsZonePrimary()) return;  // backups track; primary leads the leg
  leg.initiator_zone = my_zone_;
  process_->scoped_counters().Inc(obs::CounterId::kSyncSourceLegsStarted);
  LeadRequest(leg);
}

void DataSyncEngine::HandlePrepared(
    const std::shared_ptr<const PreparedMsg>& msg) {
  auto it = requests_.find(msg->request_id);
  if (it == requests_.end()) return;
  RequestState& req = it->second;
  if (req.prepared != nullptr) return;
  if (!VerifyZoneCert(msg->cert, msg->digest(), msg->source_zone)
           .ok()) {
    process_->scoped_counters().Inc(obs::CounterId::kSyncBadPreparedCert);
    return;
  }
  req.prepared = msg;
  process_->scoped_counters().Inc(obs::CounterId::kSyncPreparedReceived);
  if (req.i_am_leader && req.commit_cert_ready && req.commit_msg == nullptr) {
    SendCommit(req);
  }
}

// ------------------------------------------------------------ view change

void DataSyncEngine::OnViewChange(ViewId view) {
  (void)view;
  view_since_ = process_->Now();
  if (!endorser_->IsPrimary()) {
    // Demoted (or still a backup): drop leadership of in-flight requests.
    for (std::uint64_t id : request_order_) {
      auto it = requests_.find(id);
      if (it == requests_.end()) continue;
      RequestState& req = it->second;
      if (req.i_am_leader && req.commit_msg == nullptr) {
        req.i_am_leader = false;
        DisarmTimer(req.retry_timer);
      }
    }
    return;
  }
  // New primary: re-lead every known, uncommitted request that this zone is
  // responsible for ("another node from the same zone becomes the primary
  // and will continue to process the request" — Section IV-B1).
  for (std::uint64_t id : request_order_) {
    auto it = requests_.find(id);
    if (it == requests_.end()) continue;
    RequestState& req = it->second;
    if (req.commit_msg != nullptr || req.executed) continue;
    if (req.ops.empty()) continue;
    bool ours = req.initiator_zone == my_zone_ ||
                (req.initiator_zone == kInvalidZone && req.saw_endorse);
    if (!ours) continue;
    req.promises.clear();
    req.accepteds.clear();
    req.phase = Phase::kIdle;
    req.commit_cert_ready = false;
    req.sent_propose = nullptr;
    req.sent_accept = nullptr;
    process_->scoped_counters().Inc(
        obs::CounterId::kSyncReleadsAfterViewChange);
    LeadRequest(req);
  }
  // Relayed-but-never-endorsed ops queue for a fresh batch.
  if (!pending_ops_.empty()) {
    std::vector<MigrationOp> backlog = std::move(pending_ops_);
    pending_ops_.clear();
    queued_op_ids_.clear();
    for (const auto& op : backlog) {
      if (!executed_ops_.Contains(op.client, op.timestamp)) QueueOrLead(op);
    }
    FlushBatch();
  }
}

// -------------------------------------------------------------- recovery

void DataSyncEngine::ReshipCommit(std::uint64_t request_id, ZoneId zone) {
  // The op may have committed inside a batch whose sync-level request id
  // differs from the per-op id; fall back to searching commit payloads.
  const RequestState* found = nullptr;
  auto it = requests_.find(request_id);
  if (it != requests_.end() && it->second.commit_msg != nullptr) {
    found = &it->second;
  } else {
    for (std::uint64_t id : request_order_) {
      auto rit = requests_.find(id);
      if (rit == requests_.end()) continue;
      const RequestState& req = rit->second;
      if (req.commit_msg == nullptr) continue;
      for (const auto& op : req.ops) {
        if (op.RequestId() == request_id) {
          found = &req;
          break;
        }
      }
      if (found != nullptr) break;
    }
  }
  if (found == nullptr) return;
  const auto& members = topology_->zone(zone).members;
  process_->ChargeCpu(config_.costs.send_us * members.size());
  process_->scoped_counters().Inc(obs::CounterId::kSyncCommitsReshipped);
  process_->Multicast(members, found->commit_msg);
}

void DataSyncEngine::RestoreFromDurable() {
  if (durable_ == nullptr) return;
  // Scalar ballot bookkeeping: the floors NextBallot and the promise /
  // accept rules climb from. Restoring them is what prevents a recovered
  // replica from re-issuing or re-voting a ballot it already used.
  highest_n_seen_ = durable_->highest_n_seen;
  last_accepted_ballot_ = durable_->last_accepted_ballot;
  my_last_ballot_ = durable_->my_last_ballot;
  my_last_cross_ballot_ = durable_->my_last_cross_ballot;
  // Execution bookkeeping: the chain and client watermarks keep executed
  // ballots and ops executed, so re-delivered commits (peer
  // retransmissions, response-query answers) dedup instead of
  // double-applying migrations.
  chain_executed_ = durable_->chain_executed;
  chain_holes_ = durable_->chain_holes;
  executed_ops_ = durable_->executed_ops;
  executed_count_ = durable_->executed_op_count;
  // Per-request promise bounds. Pre-create the request entry with only the
  // bound set: HandlePropose tolerates such stubs (it fills `ops` when
  // empty) and its promise rule then compares against the restored bound.
  for (const auto& [id, ballot] : durable_->promised) {
    RequestState& req = Track(id);
    req.id = id;
    if (ballot > req.promised) req.promised = ballot;
  }
}

}  // namespace ziziphus::core
