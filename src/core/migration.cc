#include "core/migration.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"

namespace ziziphus::core {

MigrationEngine::MigrationEngine(sim::Process* process,
                                 const crypto::KeyRegistry* keys,
                                 const Topology* topology, ZoneId my_zone,
                                 LockTable* locks, ZoneEndorser* endorser)
    : process_(process),
      keys_(keys),
      topology_(topology),
      my_zone_(my_zone),
      locks_(locks),
      endorser_(endorser) {}

std::uint64_t MigrationEngine::RecordsDigest(
    const storage::KvStore::Map& records) {
  std::uint64_t d = 0;
  for (const auto& [k, v] : records) {
    d += Hasher(0x42).Add(k).Add(v).Finish() * 0x9e3779b97f4a7c15ULL + 1;
  }
  return d;
}

MigrationEngine::MigState& MigrationEngine::StateFor(std::uint64_t id) {
  auto [it, inserted] = states_.try_emplace(id);
  if (inserted) {
    it->second.live = std::make_unique<InFlight>();
    query_ids_.emplace(QueryId(id), id);
  }
  return it->second;
}

MigrationEngine::InFlight& MigrationEngine::Live(MigState& st) {
  if (st.live == nullptr) st.live = std::make_unique<InFlight>();
  return *st.live;
}

void MigrationEngine::Retire(std::uint64_t id, MigState& st, bool appended) {
  if (st.live != nullptr) {
    if (st.live->op.client != kInvalidClient) {
      st.client = st.live->op.client;
      st.ts = st.live->op.timestamp;
    }
    if (st.live->wait_timer != 0) process_->CancelTimer(st.live->wait_timer);
  }
  st.live.reset();
  if (appended) {
    // The destination's verified STATE served only the append, and its
    // probes went to the source zone: no response query ever names this
    // migration here. A late STATE for it meets the install watermark.
    st.state_msg.reset();
    query_ids_.erase(QueryId(id));
    RequestTimestamp& mark = installed_[st.client];
    mark = std::max(mark, st.ts);
    if (durable_ != nullptr) durable_->installed[st.client] = mark;
  }
  endorser_->Settle(id);
  if (st.client == kInvalidClient) return;
  // One tombstone per client: its latest finished migration here.
  auto [it, inserted] = finished_.try_emplace(st.client, id);
  if (inserted || it->second == id) return;
  auto prev = states_.find(it->second);
  if (prev != states_.end() && prev->second.ts > st.ts) {
    Forget(id);
    return;
  }
  std::uint64_t older = it->second;
  it->second = id;
  Forget(older);
}

void MigrationEngine::Forget(std::uint64_t id) {
  auto it = states_.find(id);
  if (it == states_.end() || it->second.live != nullptr) return;
  query_ids_.erase(QueryId(id));
  // A source's marker goes with its STATE. A destination's stays until a
  // stable checkpoint covers its install (OnStableCheckpoint): until then an
  // amnesia rejoin re-installs the appended records from it.
  if (durable_ != nullptr && it->second.state_msg != nullptr) {
    durable_->in_flight.erase(id);
  }
  states_.erase(it);
}

bool MigrationEngine::Installed(ClientId client, RequestTimestamp ts) const {
  auto it = installed_.find(client);
  return it != installed_.end() && ts <= it->second;
}

bool MigrationEngine::Superseded(const MigrationOp& op) const {
  if (Installed(op.client, op.timestamp)) return true;
  auto it = finished_.find(op.client);
  if (it == finished_.end()) return false;
  auto st = states_.find(it->second);
  return st != states_.end() && st->second.ts > op.timestamp;
}

void MigrationEngine::ArmStateWait(std::uint64_t id, InFlight& live,
                                   Duration delay) {
  live.wait_timer = process_->SetTimer(
      delay, sim::TimerTag{sim::TimerEngine::kMigration, kStateWaitTimer, id});
}

void MigrationEngine::OnGlobalExecuted(const MigrationOp& op, Ballot ballot) {
  std::uint64_t id = op.RequestId();
  if (states_.count(id) == 0 && Superseded(op)) return;
  MigState& st = StateFor(id);
  if (st.live != nullptr) st.live->op = op;
  st.ballot = ballot;
  // An appended destination whose marker a stable checkpoint retired needs
  // none: the checkpoint holds the records, the install watermark the rest.
  const bool retired = st.live == nullptr && my_zone_ == op.destination &&
                       durable_ != nullptr &&
                       durable_->in_flight.count(id) == 0;
  if (durable_ != nullptr && !retired &&
      (my_zone_ == op.source || my_zone_ == op.destination)) {
    // Progress marker: an amnesiac participant must remember it was part of
    // this migration to resume (destination) or keep answering queries
    // (source) after restart.
    auto& marker = durable_->in_flight[id];
    marker.set_op(op);
    marker.ballot = ballot;
  }

  if (my_zone_ == op.source && endorser_->IsPrimary() &&
      st.state_msg == nullptr) {
    StartRecordGeneration(st);
  }
  if (my_zone_ == op.destination && st.live != nullptr &&
      st.live->wait_timer == 0) {
    // Wait for the STATE message; probe the source zone if it never comes
    // ("the data migration protocol handles failure in the same way for
    // state messages" — Section V-A).
    ArmStateWait(id, *st.live, kStateWaitTimeout);
  }
}

void MigrationEngine::StartRecordGeneration(MigState& st) {
  ZCHECK(provider_ != nullptr);
  InFlight& live = Live(st);
  if (live.source_span != 0) process_->EndSpan(live.source_span);
  live.source_span = process_->BeginSpan(obs::SpanKind::kMigSourceRead);
  live.records =
      std::make_shared<const storage::KvStore::Map>(provider_(live.op.client));
  live.records_digest = RecordsDigest(*live.records);
  std::uint64_t id = live.op.RequestId();
  process_->scoped_counters().Inc(obs::CounterId::kMigRecordGenerations);
  endorser_->Start(
      EndorsePhase::kMigrationState, id, st.ballot, kNullBallot,
      StateContentDigest(id, live.op.client, live.records_digest), nullptr,
      live.op, {}, live.records, /*full_prepare=*/true);
}

void MigrationEngine::ShipState(MigState& st) {
  const std::shared_ptr<const StateTransferMsg>& msg = st.state_msg;
  const auto& members = topology_->zone(st.live->op.destination).members;
  const storage::KvStore::Map& records = RecordsOf(msg->records);
  if (records.size() <= kChunkRecords) {
    process_->ChargeCpu(process_->costs().send_us * members.size());
    process_->scoped_counters().Inc(obs::CounterId::kMigStatesSent);
    process_->Multicast(members, msg);
    return;
  }
  // Streamed transfer: one certified manifest plus fixed-size slices, so a
  // large client state never travels as a single giant message.
  auto manifest = std::make_shared<MigrationManifestMsg>();
  manifest->request_id = msg->request_id;
  manifest->ballot = msg->ballot;
  manifest->client = msg->client;
  manifest->timestamp = msg->timestamp;
  manifest->source_zone = msg->source_zone;
  manifest->records_digest = msg->records_digest;
  manifest->cert = msg->cert;
  std::vector<std::shared_ptr<MigrationChunkMsg>> chunks;
  for (const auto& [k, v] : records) {
    if (chunks.empty() || chunks.back()->records.size() >= kChunkRecords) {
      auto chunk = std::make_shared<MigrationChunkMsg>();
      chunk->request_id = msg->request_id;
      chunk->index = static_cast<std::uint32_t>(chunks.size());
      chunks.push_back(std::move(chunk));
    }
    chunks.back()->records.emplace(k, v);
  }
  for (const auto& chunk : chunks) {
    manifest->chunk_digests.push_back(RecordsDigest(chunk->records));
  }
  process_->ChargeCpu(process_->costs().send_us * members.size() *
                      (chunks.size() + 1));
  process_->scoped_counters().Inc(obs::CounterId::kMigChunkedTransfers);
  process_->scoped_counters().Inc(obs::CounterId::kMigManifestsSent);
  process_->Multicast(members, manifest);
  for (const auto& chunk : chunks) {
    process_->scoped_counters().Inc(obs::CounterId::kMigChunksSent);
    process_->Multicast(members, chunk);
  }
}

bool MigrationEngine::HandleMessage(const sim::MessagePtr& msg) {
  switch (msg->type()) {
    case kStateTransfer:
      process_->ChargeCpu(process_->costs().base_handle_us);
      HandleStateTransfer(
          std::static_pointer_cast<const StateTransferMsg>(msg));
      return true;
    case kMigrationManifest:
      process_->ChargeCpu(process_->costs().base_handle_us);
      HandleManifest(
          std::static_pointer_cast<const MigrationManifestMsg>(msg));
      return true;
    case kMigrationChunk:
      process_->ChargeCpu(process_->costs().base_handle_us);
      HandleChunk(std::static_pointer_cast<const MigrationChunkMsg>(msg));
      return true;
    case kResponseQuery: {
      auto q = std::static_pointer_cast<const ResponseQueryMsg>(msg);
      // Only consume queries in the migration id namespace.
      auto known = query_ids_.find(q->request_id);
      if (known == query_ids_.end()) return false;
      process_->ChargeCpu(process_->costs().base_handle_us);
      process_->ChargeAuth(process_->costs().mac_us);
      HandleResponseQuery(q, states_.at(known->second));
      return true;
    }
    default:
      return false;
  }
}

void MigrationEngine::HandleTimer(const sim::TimerTag& tag) {
  const std::uint64_t id = tag.key;
  auto sit = states_.find(id);
  if (sit == states_.end() || sit->second.live == nullptr) return;
  MigState& st = sit->second;
  InFlight& live = *st.live;
  live.wait_timer = 0;
  if (my_zone_ != live.op.destination) return;

  if (st.state_msg != nullptr) {
    // We already hold the certified STATE (the source multicasts it to the
    // whole destination zone) but the append never finalized — typically
    // the then-primary lost its copy to an amnesia crash before starting
    // the append endorsement. Hand our retained copy to whoever is primary
    // *now* (or re-drive it ourselves if the view rotated onto us) instead
    // of re-probing the source zone.
    if (endorser_->IsPrimary()) {
      auto state = st.state_msg;
      HandleStateTransfer(state);
    } else {
      process_->ChargeCpu(process_->costs().send_us);
      process_->scoped_counters().Inc(obs::CounterId::kMigStatesResent);
      process_->Send(endorser_->primary(), st.state_msg);
    }
  } else {
    // Probe the source zone for the missing state.
    auto query = std::make_shared<ResponseQueryMsg>();
    query->request_id = QueryId(id);
    query->ballot = st.ballot;
    query->zone = my_zone_;
    query->replica = process_->id();
    query->sig = keys_->Sign(process_->id(), query->digest());
    const auto& members = topology_->zone(live.op.source).members;
    process_->ChargeCrypto(process_->costs().crypto.sign_us);
    process_->ChargeCpu(process_->costs().send_us * members.size());
    process_->scoped_counters().Inc(obs::CounterId::kMigStateQueriesSent);
    process_->Multicast(members, query);
    // Probes keep going unanswered: the source zone may have missed the
    // global commit entirely (its primary was amnesia-crashed when the
    // commit broadcast went out), in which case no source node can generate
    // the records. Re-deliver the commit we hold — idempotent for nodes
    // that already executed it, bootstrapping for ones that never saw it.
    if (live.wait_rounds >= 2 && reship_) {
      reship_(id, live.op.source);
    }
  }
  // Probe with capped exponential backoff. The round budget is generous:
  // the source zone may need the full fault window plus a rejoin before it
  // can re-form the STATE certificate (amnesia crashes), and a destination
  // that stops probing wedges the migration permanently. The cap still
  // bounds total events so idle-driven runs terminate.
  if (++live.wait_rounds < 64) {
    std::uint64_t mult = std::min<std::uint64_t>(
        1ULL << std::min(live.wait_rounds, 3), 8ULL);
    ArmStateWait(id, live, kStateWaitTimeout * mult);
  }
}

bool MigrationEngine::Settled(std::uint64_t id, Ballot ballot,
                              const MigrationOp* op) const {
  auto it = states_.find(id);
  if (it != states_.end()) {
    // A destination can finish before its own commit executes (the STATE
    // outran it), so the ballot may not be known yet.
    const MigState& st = it->second;
    return st.live == nullptr &&
           (st.ballot == kNullBallot || ballot <= st.ballot);
  }
  // No state: erased as a client's older tombstone, or never created past
  // the install watermark.
  return op == nullptr || Superseded(*op);
}

bool MigrationEngine::ValidateEndorse(const EndorsePrePrepareMsg& pp) {
  std::uint64_t id = pp.request_id;
  switch (pp.phase) {
    case EndorsePhase::kMigrationState: {
      // Source-zone nodes check that the records the primary proposes match
      // their own copy of the client's data — a Byzantine primary cannot
      // ship a forged state.
      if (my_zone_ != pp.op.source) return false;
      std::uint64_t claimed = RecordsDigest(RecordsOf(pp.records));
      if (StateContentDigest(id, pp.op.client, claimed) !=
          pp.content_digest) {
        process_->scoped_counters().Inc(obs::CounterId::kMigBadStateDigest);
        return false;
      }
      if (provider_ != nullptr) {
        process_->ChargeCrypto(process_->costs().crypto.digest_us);
        std::uint64_t own = RecordsDigest(provider_(pp.op.client));
        if (own != claimed) {
          process_->scoped_counters().Inc(
              obs::CounterId::kMigStateMismatchRejected);
          return false;
        }
      }
      InFlight& live = Live(StateFor(id));
      live.op = pp.op;
      live.records = pp.records;
      live.records_digest = claimed;
      return true;
    }
    case EndorsePhase::kMigrationAppend: {
      if (my_zone_ != pp.op.destination) return false;
      std::uint64_t claimed = RecordsDigest(RecordsOf(pp.records));
      if (StateContentDigest(id, pp.op.client, claimed) !=
          pp.content_digest) {
        process_->scoped_counters().Inc(obs::CounterId::kMigBadAppendDigest);
        return false;
      }
      // The embedded STATE message's certificate proves 2f+1 source-zone
      // nodes vouch for these records.
      const auto* state =
          dynamic_cast<const StateTransferMsg*>(pp.payload.get());
      if (state == nullptr ||
          !VerifyZoneCert(state->cert, state->digest(),
                          state->source_zone)
               .ok()) {
        process_->scoped_counters().Inc(obs::CounterId::kMigBadStateCert);
        return false;
      }
      if (state->records_digest != claimed) {
        process_->scoped_counters().Inc(
            obs::CounterId::kMigAppendDigestMismatch);
        return false;
      }
      // Once appended (a tombstone, or past the install watermark) the op
      // and records are never read again.
      if (states_.count(id) == 0 && Installed(pp.op.client, pp.op.timestamp)) {
        return true;
      }
      MigState& st = StateFor(id);
      if (st.live != nullptr) {
        InFlight& live = *st.live;
        live.op = pp.op;
        live.records = pp.records;
        live.records_digest = claimed;
      }
      return true;
    }
    default:
      return false;
  }
}

void MigrationEngine::OnEndorseQuorum(const EndorseKey& key,
                                      const EndorsePrePrepareMsg& pp,
                                      const crypto::Certificate& cert) {
  auto it = states_.find(key.request_id);
  if (it == states_.end()) return;
  MigState& st = it->second;

  switch (key.phase) {
    case EndorsePhase::kMigrationState: {
      // Every node that completes the certificate materializes the STATE
      // message, not just the current primary: the records it carries were
      // pinned by ValidateEndorse, so the bytes are identical everywhere.
      // Across a view change the quorum can land while the lead sits on a
      // replica that never ships (or has already been deposed); holding
      // state_msg on all cert-holders lets any of them answer destination
      // probes in HandleResponseQuery. Only the primary ships unprompted to
      // keep the common case a single cross-zone transfer.
      InFlight& live = Live(st);
      auto msg = std::make_shared<StateTransferMsg>();
      msg->request_id = key.request_id;
      msg->ballot = pp.ballot;
      msg->client = live.op.client;
      msg->timestamp = live.op.timestamp;
      msg->source_zone = my_zone_;
      msg->records = live.records;
      msg->records_digest = live.records_digest;
      msg->cert = cert;
      st.state_msg = msg;
      if (durable_ != nullptr) {
        auto& marker = durable_->in_flight[key.request_id];
        marker.set_op(live.op);
        marker.ballot = st.ballot;
        marker.state_msg = msg;
      }
      if (endorser_->IsPrimary()) ShipState(st);
      process_->EndSpan(live.source_span);  // record read -> STATE shipped
      // Finished here: only the certified STATE stays, for late probes.
      Retire(key.request_id, st, /*appended=*/false);
      break;
    }
    case EndorsePhase::kMigrationAppend: {
      // Finalizes at every destination-zone node (Alg. 2 lines 22-25).
      if (st.live == nullptr) break;  // already appended here
      completed_++;
      InFlight& live = *st.live;
      const MigrationOp op = live.op;
      if (durable_ != nullptr) {
        auto& marker = durable_->in_flight[key.request_id];
        marker.set_op(op);
        marker.ballot = st.ballot;
        marker.appended = true;
        marker.records = live.records;
        uncovered_.push_back({op.client, op.timestamp, key.request_id});
      }
      process_->ChargeCpu(process_->costs().apply_us);
      if (installer_ != nullptr) {
        installer_(op.client, RecordsOf(live.records), op.timestamp);
      }
      locks_->SetLocked(op.client, true);
      process_->EndSpan(live.install_span);  // STATE received -> installed
      process_->scoped_counters().Inc(obs::CounterId::kMigAppends);
      // Finished here: drop the working set and cancel the state-wait probe.
      Retire(key.request_id, st, /*appended=*/true);
      if (done_) done_(op);
      break;
    }
    default:
      break;
  }
}

void MigrationEngine::HandleStateTransfer(
    const std::shared_ptr<const StateTransferMsg>& msg) {
  std::uint64_t id = msg->request_id;
  if (states_.count(id) == 0 && Installed(msg->client, msg->timestamp)) return;
  MigState& st = StateFor(id);
  // Finished here (appended, or a source, which never takes a STATE).
  if (st.live == nullptr) return;
  MigrationOp& op = st.live->op;
  if (op.client == kInvalidClient) {
    // STATE can arrive before the commit executes here; remember enough to
    // validate when the append endorsement starts.
    op.client = msg->client;
    op.timestamp = msg->timestamp;
  }
  if (op.destination != kInvalidZone && my_zone_ != op.destination) return;
  if (!VerifyZoneCert(msg->cert, msg->digest(), msg->source_zone)
           .ok()) {
    process_->scoped_counters().Inc(obs::CounterId::kMigBadStateCert);
    return;
  }
  // Every destination node retains the verified STATE, not just the
  // primary who starts the append endorsement: if that primary loses its
  // copy to an amnesia crash before the endorsement completes, any backup
  // can re-drive the append from its retained copy when its wait timer
  // fires (see HandleTimer) — without a round-trip back to the source zone.
  st.state_msg = msg;
  if (!endorser_->IsPrimary()) return;
  st.live->install_span =
      process_->BeginSpan(obs::SpanKind::kMigDestInstall);
  endorser_->Start(
      EndorsePhase::kMigrationAppend, id, msg->ballot, kNullBallot,
      StateContentDigest(id, msg->client, msg->records_digest), msg,
      op.client != kInvalidClient && op.destination != kInvalidZone
          ? op
          : MigrationOp{msg->client, msg->source_zone, my_zone_,
                        msg->timestamp, ""},
      {}, msg->records, /*full_prepare=*/false);
}

void MigrationEngine::HandleManifest(
    const std::shared_ptr<const MigrationManifestMsg>& msg) {
  if (states_.count(msg->request_id) == 0 &&
      Installed(msg->client, msg->timestamp)) {
    return;
  }
  MigState& st = StateFor(msg->request_id);
  if (st.live == nullptr || st.live->manifest != nullptr) return;
  InFlight& live = *st.live;
  if (live.op.destination != kInvalidZone && my_zone_ != live.op.destination) {
    return;
  }
  live.manifest = msg;
  MaybeAssembleChunks(st);
}

void MigrationEngine::HandleChunk(
    const std::shared_ptr<const MigrationChunkMsg>& msg) {
  MigState& st = StateFor(msg->request_id);
  if (st.live == nullptr) return;
  InFlight& live = *st.live;
  if (live.op.destination != kInvalidZone && my_zone_ != live.op.destination) {
    return;
  }
  process_->scoped_counters().Inc(obs::CounterId::kMigChunksReceived);
  // Chunks may outrun the manifest; buffer now, digest-check on assembly.
  live.chunks.emplace(msg->index, msg->records);
  MaybeAssembleChunks(st);
}

void MigrationEngine::MaybeAssembleChunks(MigState& st) {
  InFlight& live = *st.live;
  if (live.manifest == nullptr) return;
  const MigrationManifestMsg& m = *live.manifest;
  for (std::uint32_t i = 0; i < m.chunk_digests.size(); ++i) {
    auto it = live.chunks.find(i);
    if (it == live.chunks.end()) return;  // still streaming
    process_->ChargeCrypto(process_->costs().crypto.digest_us);
    if (RecordsDigest(it->second) != m.chunk_digests[i]) {
      // Corrupt or forged slice: drop it and wait for a resend (the probe
      // path falls back to the cached full STATE at the source).
      process_->scoped_counters().Inc(obs::CounterId::kMigBadChunkDigest);
      live.chunks.erase(it);
      return;
    }
  }
  storage::KvStore::Map merged;
  for (std::uint32_t i = 0; i < m.chunk_digests.size(); ++i) {
    const auto& slice = live.chunks[i];
    merged.insert(slice.begin(), slice.end());
  }
  process_->ChargeCrypto(process_->costs().crypto.digest_us);
  if (RecordsDigest(merged) != m.records_digest) {
    // Slices individually matched but the whole does not hash to the
    // certified digest (e.g. overlapping keys): discard everything.
    process_->scoped_counters().Inc(obs::CounterId::kMigBadChunkDigest);
    live.chunks.clear();
    live.manifest.reset();
    return;
  }
  // Synthesize the classic STATE message; its certificate covers
  // (request_id, client, records_digest), so verification in
  // HandleStateTransfer binds the reassembled records to the source zone's
  // 2f+1 endorsement exactly as if they had arrived in one piece.
  auto synth = std::make_shared<StateTransferMsg>();
  synth->request_id = m.request_id;
  synth->ballot = m.ballot;
  synth->client = m.client;
  synth->timestamp = m.timestamp;
  synth->source_zone = m.source_zone;
  synth->records =
      std::make_shared<const storage::KvStore::Map>(std::move(merged));
  synth->records_digest = m.records_digest;
  synth->cert = m.cert;
  live.chunks.clear();
  live.manifest.reset();
  HandleStateTransfer(synth);
}

void MigrationEngine::HandleResponseQuery(
    const std::shared_ptr<const ResponseQueryMsg>& msg, MigState& st) {
  if (st.state_msg != nullptr) {
    process_->ChargeCpu(process_->costs().send_us);
    process_->scoped_counters().Inc(obs::CounterId::kMigStatesResent);
    process_->Send(msg->replica, st.state_msg);
  } else if (st.live != nullptr && my_zone_ == st.live->op.source &&
             endorser_->IsPrimary() && provider_ != nullptr &&
             st.live->op.client != kInvalidClient) {
    // No STATE certificate yet: the in-flight endorsement was dropped by
    // a zone view change or lost to an amnesia crash. The destination's
    // probe doubles as the re-initiation trigger the endorser expects —
    // restart the record endorsement round (idempotent for replicas that
    // already voted; a rejoined replica validates from the fresh
    // pre-prepare and supplies the missing vote).
    StartRecordGeneration(st);
  }
}

MigrationEngine::RetentionStats MigrationEngine::retention() const {
  RetentionStats r;
  for (const auto& [id, st] : states_) {
    // A shared record set is counted at every holder: these are the bytes
    // this node's state keeps reachable, not its exclusive share.
    std::size_t state_bytes = 0;
    if (st.state_msg != nullptr) {
      state_bytes = 160 + st.state_msg->cert.size() * 16 +
                    RecordsOf(st.state_msg->records).size() * 96;
    }
    if (st.live == nullptr) {
      ++r.tombstones;
      if (st.state_msg != nullptr) ++r.state_caches;
      r.approx_bytes += 88 + state_bytes;
      continue;
    }
    const InFlight& live = *st.live;
    ++r.live;
    r.record_maps += (live.records != nullptr ? 1 : 0) +
                     (st.state_msg != nullptr ? 1 : 0) + live.chunks.size();
    // An armed probe timer keeps an entry in the host's timer table.
    r.approx_bytes += 88 + 208 + state_bytes +
                      RecordsOf(live.records).size() * 96 +
                      (live.manifest != nullptr ? 160 : 0) +
                      (live.wait_timer != 0 ? 32 : 0);
    for (const auto& [index, slice] : live.chunks) {
      r.approx_bytes += 64 + slice.size() * 96;
    }
  }
  r.install_watermarks = installed_.size();
  if (durable_ != nullptr) {
    for (const auto& [id, marker] : durable_->in_flight) {
      if (marker.appended) ++r.durable_markers;
    }
  }
  r.approx_bytes +=
      (query_ids_.size() + finished_.size() + installed_.size()) * 32;
  return r;
}

// -------------------------------------------------------------- recovery

void MigrationEngine::RestoreFromDurable() {
  if (durable_ == nullptr) return;
  // The watermark also covers migrations whose markers a stable checkpoint
  // retired, so late STATEs for them stay no-ops.
  installed_.insert(durable_->installed.begin(), durable_->installed.end());
  // Retire may erase markers (a client's older tombstone), so walk a copy.
  const std::map<std::uint64_t, MigrationDurableState::Marker> markers =
      durable_->in_flight;
  // Appended markers by client, in timestamp order.
  std::map<ClientId, std::map<RequestTimestamp, std::uint64_t>> appended;
  for (const auto& [id, marker] : markers) {
    if (!marker.appended) continue;
    appended[marker.client].emplace(marker.timestamp, id);
    uncovered_.push_back({marker.client, marker.timestamp, id});
  }
  for (const auto& [id, marker] : markers) {
    if (marker.appended) {
      // The append already finalized before the crash. At the client's
      // first marker in id order, re-install all its uncovered appends in
      // timestamp order, so its newest records land last.
      auto client = appended.find(marker.client);
      if (client == appended.end()) continue;
      for (const auto& [ts, appended_id] : client->second) {
        Reinstall(appended_id, markers.at(appended_id));
      }
      appended.erase(client);
      continue;
    }
    MigState& st = StateFor(id);
    st.live->op = marker.op();
    st.ballot = marker.ballot;
    st.state_msg = marker.state_msg;
    if (my_zone_ == marker.destination) {
      // Mid-migration at the destination: resume waiting for STATE with a
      // fresh probe timer (Section V-A failure handling).
      ArmStateWait(id, *st.live, kStateWaitTimeout);
    } else if (st.state_msg != nullptr) {
      // Source with a certified STATE: finished, kept for late probes.
      Retire(id, st, /*appended=*/false);
    }
  }
}

void MigrationEngine::Reinstall(std::uint64_t id,
                                const MigrationDurableState::Marker& marker) {
  MigState& st = StateFor(id);
  st.live->op = marker.op();
  st.ballot = marker.ballot;
  st.state_msg = marker.state_msg;
  // Re-install the migrated records into the rebuilt application state (on
  // top of the restored checkpoint, which does not cover them). The lock
  // table (durable, node-owned) already shows the client re-enabled.
  completed_++;
  if (my_zone_ == marker.destination && installer_ != nullptr) {
    process_->ChargeCpu(process_->costs().apply_us);
    installer_(marker.client, RecordsOf(marker.records), marker.timestamp);
  }
  Retire(id, st, /*appended=*/true);
}

void MigrationEngine::OnStableCheckpoint(const storage::Checkpoint& cp) {
  std::erase_if(uncovered_, [&](const Uncovered& u) {
    auto coverage = cp.coverage.find(u.client);
    if (coverage == cp.coverage.end() || coverage->second < u.ts) {
      return false;
    }
    durable_->in_flight.erase(u.id);
    return true;
  });
}

}  // namespace ziziphus::core
