#include "core/node.h"

#include "common/logging.h"

namespace ziziphus::core {

void ZiziphusNode::Init(const crypto::KeyRegistry* keys,
                        const Topology* topology, ZoneId zone,
                        std::unique_ptr<ZoneStateMachine> app,
                        NodeConfig config) {
  keys_ = keys;
  topology_ = topology;
  zone_ = zone;
  config_ = std::move(config);
  app_ = std::move(app);
  metadata_ = std::make_unique<GlobalMetadata>(config_.policy);

  const ZoneInfo& zi = topology_->zone(zone_);
  config_.pbft.members = zi.members;
  config_.pbft.f = zi.f;

  BuildEngines();
}

void ZiziphusNode::BuildEngines() {
  const ZoneInfo& zi = topology_->zone(zone_);

  pbft_ = config_.pbft_factory
              ? config_.pbft_factory(this, keys_, config_.pbft, app_.get())
              : std::make_unique<pbft::PbftEngine>(this, keys_, config_.pbft,
                                                   app_.get());

  ZoneEndorser::Callbacks cbs;
  cbs.validate = [this](const EndorsePrePrepareMsg& pp) {
    switch (pp.phase) {
      case EndorsePhase::kMigrationState:
      case EndorsePhase::kMigrationAppend:
        return migration_->ValidateEndorse(pp);
      default:
        return sync_->ValidateEndorse(pp);
    }
  };
  cbs.on_quorum = [this](const EndorseKey& key,
                         const EndorsePrePrepareMsg& pp,
                         const crypto::Certificate& cert) {
    switch (key.phase) {
      case EndorsePhase::kMigrationState:
      case EndorsePhase::kMigrationAppend:
        migration_->OnEndorseQuorum(key, pp, cert);
        break;
      default:
        sync_->OnEndorseQuorum(key, pp, cert);
        break;
    }
  };
  cbs.on_late_vote = [this](const EndorseKey& key,
                            const crypto::Signature& sig) {
    sync_->OnLateEndorseVote(key, sig);
  };
  cbs.settled = [this](const EndorseKey& key, Ballot ballot,
                       const MigrationOp* op) {
    switch (key.phase) {
      case EndorsePhase::kMigrationState:
      case EndorsePhase::kMigrationAppend:
        return migration_->Settled(key.request_id, ballot, op);
      default:
        // A tombstone outliving its request is settled; a pre-prepare for
        // an erased request is not known to be stale.
        return sync_->Settled(key.request_id, ballot,
                              /*erased_settles=*/op == nullptr);
    }
  };
  endorser_ = std::make_unique<ZoneEndorser>(this, keys_, &zi,
                                             config_.sync.costs, cbs);

  sync_ = std::make_unique<DataSyncEngine>(this, keys_, topology_, zone_,
                                           metadata_.get(), &locks_,
                                           endorser_.get(), config_.sync);
  migration_ = std::make_unique<MigrationEngine>(this, keys_, topology_,
                                                 zone_, &locks_,
                                                 endorser_.get(),
                                                 config_.migration);
  lazy_ = std::make_unique<LazySyncEngine>(this, keys_, topology_, zone_,
                                           config_.sync.costs);

  // ---- durability wiring ----------------------------------------------
  // Every engine mirrors its forget-proof slice into the node-owned
  // durable store as it changes (see DESIGN.md's durable-vs-volatile
  // table); OnAmnesiaRecover restores from it.
  pbft_->set_durable(&durable_.pbft);
  sync_->set_durable(&durable_.sync);
  sync_->set_ledger(config_.ledger);
  migration_->set_durable(&durable_.migration);

  // ---- cross-engine wiring --------------------------------------------
  pbft_->set_executed_callback(
      [this](SeqNum, const pbft::Operation&, const std::string&) {
        // First post-rejoin execution: the node is serving again.
        if (rejoin_started_at_ == 0) return;
        recorder().Record(obs::HistogramId::kRecoveryTimeToRejoinUs,
                          Now() - rejoin_started_at_);
        rejoin_started_at_ = 0;
      });
  sync_->set_executed_callback(
      [this](const MigrationOp& op, Ballot ballot, ZoneId initiator,
             const std::string& result) {
        OnGlobalExecuted(op, ballot, initiator, result);
      });
  sync_->set_suspect_primary_callback([this] { pbft_->SuspectPrimary(); });
  sync_->set_global_apply_callback([this](const MigrationOp& op) {
    // Globally replicated command (Steward baseline / cross-zone txn):
    // apply to this node's application state.
    pbft::Operation app_op;
    app_op.client = op.client;
    app_op.timestamp = op.timestamp;
    app_op.command = op.command;
    ChargeCpu(config_.sync.costs.apply_us);
    pbft_->NoteOutOfBandMutation();
    return app_->Apply(app_op);
  });

  migration_->set_state_provider(
      [this](ClientId c) { return app_->ClientRecords(c); });
  migration_->set_state_installer(
      [this](ClientId c, const storage::KvStore::Map& records,
             RequestTimestamp migration_ts) {
        // Installs bypass the PBFT op stream, so peers must not serve this
        // node's pre-install state as a delta base afterwards.
        pbft_->NoteOutOfBandMutation();
        // The installed records reflect every write the client completed
        // before the migration op (timestamps below migration_ts), so the
        // read path's coverage for the client jumps with the install.
        pbft_->NoteClientRecordInstall(c, migration_ts);
        app_->InstallClientRecords(c, records);
      });
  migration_->set_commit_reshipper([this](std::uint64_t request_id,
                                          ZoneId zone) {
    sync_->ReshipCommit(request_id, zone);
  });
  migration_->set_done_callback([this](const MigrationOp& op) {
    auto reply = std::make_shared<MigrationReplyMsg>(/*done=*/true);
    reply->request_id = op.RequestId();
    reply->client = op.client;
    reply->timestamp = op.timestamp;
    reply->replica = id();
    reply->result = "migrated";
    ChargeCpu(config_.migration.costs.mac_us + config_.migration.costs.send_us);
    Send(op.client, reply);
  });

  pbft_->set_view_callback([this](ViewId view, bool active) {
    if (!active) return;
    endorser_->OnViewChange(view);
    sync_->OnViewChange(view);
  });
  if (config_.lazy_sync) {
    pbft_->set_stable_checkpoint_callback(
        [this](const storage::Checkpoint& cp) {
          lazy_->OnLocalStableCheckpoint(cp, endorser_->IsPrimary());
        });
  }
}

void ZiziphusNode::OnGlobalExecuted(const MigrationOp& op, Ballot ballot,
                                    ZoneId initiator_zone,
                                    const std::string& result) {
  // First sub-transaction committed: initiator-zone nodes reply to the
  // client (the client waits for f+1 matching replies — Alg. 1).
  if (zone_ == initiator_zone && op.client != kInvalidClient) {
    auto reply = std::make_shared<MigrationReplyMsg>(/*done=*/false);
    reply->request_id = op.RequestId();
    reply->client = op.client;
    reply->timestamp = op.timestamp;
    reply->replica = id();
    reply->result = result.empty() ? "synced" : result;
    ChargeCpu(config_.sync.costs.mac_us + config_.sync.costs.send_us);
    Send(op.client, reply);
  }
  // Second sub-transaction: source generates R(c), destination awaits it.
  // Policy-rejected migrations never move data.
  if (op.IsMigration() && result == "ok" &&
      (zone_ == op.source || zone_ == op.destination)) {
    migration_->OnGlobalExecuted(op, ballot);
  }
}

void ZiziphusNode::OnMessage(const sim::MessagePtr& msg) {
  sim::MessageType t = msg->type();

  // Local transactions: gate on the client's lock bit (Section IV-A — a
  // migrating client's stale zone must not serve it).
  if (t == pbft::kClientRequest) {
    auto req = std::static_pointer_cast<const pbft::ClientRequestMsg>(msg);
    if (!locks_.IsLocked(req->op.client)) {
      scoped_counters().Inc(obs::CounterId::kNodeUnlockedClientRejected);
      return;
    }
    pbft_->HandleMessage(msg);
    return;
  }
  // Fast-path reads are gated like transactions: a zone the client migrated
  // away from must not serve its data. Unlike a transaction the client is
  // waiting on exactly this replica, so answer behind=true (redirect)
  // instead of staying silent until its timeout.
  if (t == pbft::kReadRequest) {
    auto req = std::static_pointer_cast<const pbft::ReadRequestMsg>(msg);
    if (!locks_.IsLocked(req->client)) {
      scoped_counters().Inc(obs::CounterId::kNodeUnlockedClientRejected);
      auto reply = std::make_shared<pbft::ReadReplyMsg>();
      reply->client = req->client;
      reply->nonce = req->nonce;
      reply->replica = id();
      reply->key = req->key;
      reply->behind = true;
      scoped_counters().Inc(obs::CounterId::kReadsRedirects);
      ChargeCpu(config_.pbft.costs.send_us);
      Send(req->client, reply);
      return;
    }
    pbft_->HandleMessage(msg);
    return;
  }
  if (t >= 10 && t < 30) {
    pbft_->HandleMessage(msg);
    return;
  }
  if (t == kEndorsePrePrepare || t == kEndorsePrepare || t == kEndorseVote) {
    endorser_->HandleMessage(msg);
    return;
  }
  if (t == kStateTransfer || t == kMigrationManifest || t == kMigrationChunk) {
    migration_->HandleMessage(msg);
    return;
  }
  if (t == kResponseQuery) {
    // Migration-scoped queries use a distinct id namespace; try the
    // migration engine first, then data synchronization.
    if (!migration_->HandleMessage(msg)) sync_->HandleMessage(msg);
    return;
  }
  if (t == kZoneCheckpoint) {
    lazy_->HandleMessage(msg);
    return;
  }
  if (t >= 40 && t < 80) {
    sync_->HandleMessage(msg);
    return;
  }
  scoped_counters().Inc(obs::CounterId::kNodeUnroutableMessage);
}

void ZiziphusNode::OnTimer(const sim::TimerTag& tag) {
  switch (tag.engine) {
    case sim::TimerEngine::kPbft:
      pbft_->HandleTimer(tag);
      break;
    case sim::TimerEngine::kDataSync:
      sync_->HandleTimer(tag);
      break;
    case sim::TimerEngine::kMigration:
      migration_->HandleTimer(tag);
      break;
    default:
      break;
  }
}

ZiziphusNode::MemoryFootprint ZiziphusNode::Footprint() const {
  MemoryFootprint f;
  pbft::PbftEngine::RetentionStats p = pbft_->retention();
  f.pbft_bytes = p.ApproxBytes();
  f.commit_log_bytes = p.commit_log_bytes;
  f.wal_entries = p.wal_entries;
  f.prepared_proofs = p.prepared_proofs;
  f.reply_cache_entries = p.reply_cache_entries;
  DataSyncEngine::RetentionStats s = sync_->retention();
  f.sync_bytes = s.approx_bytes;
  f.sync_requests = s.requests;
  f.endorse_bytes = endorser_->retention().approx_bytes;
  f.migration_bytes = migration_->retention().approx_bytes;
  for (const auto& [k, v] : app_->Snapshot()) {
    f.app_bytes += k.size() + v.size() + 64;
  }
  return f;
}

void ZiziphusNode::InstallBootstrapRecords(
    ClientId client, const storage::KvStore::Map& records) {
  bootstrap_records_[client] = records;
  app_->InstallClientRecords(client, records);
}

// ---------------------------------------------------------- rejoin protocol

void ZiziphusNode::OnAmnesiaRecover() {
  recoveries_++;
  rejoin_started_at_ = Now();
  scoped_counters().Inc(obs::CounterId::kRecoveryRejoins);

  // RAM is gone: rebuild the application and every engine from scratch.
  // GlobalMetadata, the lock table, the bootstrap records and the durable
  // store are node-owned "disk" state and survive as-is.
  if (config_.app_factory) app_ = config_.app_factory(zone_);
  BuildEngines();

  // Durable provisioning first: bootstrap records come off the deployment
  // image; the stable checkpoint (when one exists) overwrites them next.
  for (const auto& [client, records] : bootstrap_records_) {
    app_->InstallClientRecords(client, records);
  }

  // Restore each engine's forget-proof slice. PBFT installs the stable
  // checkpoint and replays the WAL; data sync restores ballot promises and
  // execution bookkeeping; migration resumes in-flight transfers (after
  // PBFT, so the checkpoint install cannot clobber re-installed records).
  pbft_->RestoreFromDurable();
  sync_->RestoreFromDurable();
  migration_->RestoreFromDurable();

  // Align the endorsement machinery with the restored PBFT view: the
  // rebuilt endorser starts at view 0, and a stale notion of who the zone
  // primary is would misroute endorsements and proxy duties.
  if (pbft_->view() != 0) {
    endorser_->OnViewChange(pbft_->view());
    sync_->OnViewChange(pbft_->view());
  }

  // Catch up on whatever committed during the outage: PBFT state transfer
  // with capped backoff and peer rotation (re-arms kStateTransferTimer).
  pbft_->StartCatchUp(pbft_->last_executed() + 1);
}

}  // namespace ziziphus::core
