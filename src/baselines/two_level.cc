#include "baselines/two_level.h"

#include <algorithm>

#include "common/logging.h"

namespace ziziphus::baselines {

using core::EndorseKey;
using core::EndorsePhase;
using core::EndorsePrePrepareMsg;
using core::MigrationOp;

crypto::Digest GPrePrepareDigest(std::uint64_t request_id, SeqNum gseq,
                                 const std::vector<MigrationOp>& ops) {
  return Hasher(0x81)
      .Add(request_id)
      .Add(gseq)
      .Add(core::OpsDigest(ops))
      .Finish();
}

crypto::Digest GPrepareDigest(std::uint64_t request_id, SeqNum gseq,
                              ZoneId zone) {
  return Hasher(0x82).Add(request_id).Add(gseq).Add(zone).Finish();
}

crypto::Digest GCommitDigest(std::uint64_t request_id, SeqNum gseq,
                             ZoneId zone) {
  return Hasher(0x83).Add(request_id).Add(gseq).Add(zone).Finish();
}

// ------------------------------------------------------------------ engine

TwoLevelGlobalEngine::TwoLevelGlobalEngine(
    sim::Process* process, const crypto::KeyRegistry* keys,
    const core::Topology* topology, ZoneId my_zone,
    core::GlobalMetadata* metadata, core::LockTable* locks,
    core::ZoneEndorser* endorser, TwoLevelConfig config)
    : process_(process),
      keys_(keys),
      topology_(topology),
      my_zone_(my_zone),
      metadata_(metadata),
      locks_(locks),
      endorser_(endorser),
      config_(config) {}

Status TwoLevelGlobalEngine::VerifyZoneCert(const crypto::Certificate& cert,
                                            crypto::Digest expected,
                                            ZoneId zone) const {
  process_->ChargeCpu(
      config_.costs.crypto.CertificateVerifyCost(cert.size()));
  return core::VerifyZoneCertificate(*keys_, topology_->zone(zone), cert,
                                     expected);
}

bool TwoLevelGlobalEngine::HandleMessage(const sim::MessagePtr& msg) {
  const auto& costs = config_.costs;
  switch (msg->type()) {
    case core::kMigrationRequest:
      process_->ChargeCpu(costs.base_handle_us + costs.mac_us);
      HandleMigrationRequest(
          std::static_pointer_cast<const core::MigrationRequestMsg>(msg));
      return true;
    case kGPrePrepare:
      process_->ChargeCpu(costs.base_handle_us);
      HandleGPrePrepare(std::static_pointer_cast<const GPrePrepareMsg>(msg));
      return true;
    case kGPrepare:
      process_->ChargeCpu(costs.base_handle_us);
      HandleGPrepare(std::static_pointer_cast<const GPrepareMsg>(msg));
      return true;
    case kGCommit:
      process_->ChargeCpu(costs.base_handle_us);
      HandleGCommit(std::static_pointer_cast<const GCommitMsg>(msg));
      return true;
    default:
      return false;
  }
}

void TwoLevelGlobalEngine::HandleTimer() {
  batch_timer_armed_ = false;
  FlushBatch();
}

void TwoLevelGlobalEngine::HandleMigrationRequest(
    const std::shared_ptr<const core::MigrationRequestMsg>& msg) {
  if (!keys_->Verify(msg->client_sig, msg->digest())) return;
  if (my_zone_ != kTwoLevelLeaderZone) return;
  if (!endorser_->IsPrimary()) {
    process_->ChargeCpu(config_.costs.send_us);
    process_->Send(endorser_->primary(), msg);
    return;
  }
  std::uint64_t op_id = msg->op.RequestId();
  if (queued_op_ids_.count(op_id) > 0 || executed_op_ids_.count(op_id) > 0) {
    return;  // duplicate
  }
  queued_op_ids_.insert(op_id);
  pending_ops_.push_back(msg->op);
  if (pending_ops_.size() >= kBatchMax) {
    FlushBatch();
  } else if (!batch_timer_armed_) {
    batch_timer_armed_ = true;
    process_->SetTimer(kBatchTimeout,
                       sim::TimerTag{sim::TimerEngine::kTwoLevel, kBatchTimer});
  }
}

void TwoLevelGlobalEngine::FlushBatch() {
  if (!endorser_->IsPrimary() || pending_ops_.empty()) return;
  while (!pending_ops_.empty()) {
    std::size_t take = std::min(kBatchMax, pending_ops_.size());
    std::vector<MigrationOp> ops(pending_ops_.begin(),
                                 pending_ops_.begin() + take);
    pending_ops_.erase(pending_ops_.begin(), pending_ops_.begin() + take);
    for (const auto& op : ops) queued_op_ids_.erase(op.RequestId());

    Hasher h(0x71ba);
    for (const auto& op : ops) h.Add(op.RequestId());
    std::uint64_t id = h.Finish();
    TLRequest& req = requests_[id];
    req.id = id;
    req.ops = std::move(ops);
    req.gseq = ++next_gseq_;
    req.initiator_zone = my_zone_;
    by_seq_[req.gseq] = id;
    endorser_->Start(EndorsePhase::kTLPrePrepare, id,
                     Ballot{req.gseq, my_zone_}, kNullBallot,
                     GPrePrepareDigest(id, req.gseq, req.ops), nullptr,
                     req.ops.front(), req.ops, {}, /*full_prepare=*/true);
  }
}

bool TwoLevelGlobalEngine::ValidateEndorse(const EndorsePrePrepareMsg& pp) {
  std::uint64_t id = pp.request_id;
  TLRequest& req = requests_[id];
  if (req.id == 0) {
    req.id = id;
    req.ops = pp.ops.empty() ? std::vector<MigrationOp>{pp.op} : pp.ops;
  }
  switch (pp.phase) {
    case EndorsePhase::kTLPrePrepare: {
      req.gseq = pp.ballot.n;
      req.initiator_zone = my_zone_;
      by_seq_[req.gseq] = id;
      return pp.content_digest == GPrePrepareDigest(id, pp.ballot.n, pp.ops);
    }
    case EndorsePhase::kTLPrepare:
      return pp.content_digest == GPrepareDigest(id, pp.ballot.n, my_zone_);
    case EndorsePhase::kTLCommit:
      return pp.content_digest == GCommitDigest(id, pp.ballot.n, my_zone_);
    default:
      return false;
  }
}

void TwoLevelGlobalEngine::OnEndorseQuorum(const EndorseKey& key,
                                           const crypto::Certificate& cert) {
  auto it = requests_.find(key.request_id);
  if (it == requests_.end()) return;
  TLRequest& req = it->second;

  switch (key.phase) {
    case EndorsePhase::kTLPrePrepare: {
      if (!endorser_->IsPrimary()) break;
      auto msg = std::make_shared<GPrePrepareMsg>();
      msg->request_id = req.id;
      msg->gseq = req.gseq;
      msg->ops = req.ops;
      msg->initiator_zone = my_zone_;
      msg->cert = cert;
      auto targets = AllNodes();
      process_->ChargeCpu(config_.costs.send_us * targets.size());
      process_->Multicast(targets, msg);
      break;
    }
    case EndorsePhase::kTLPrepare: {
      if (!endorser_->IsPrimary()) break;
      auto msg = std::make_shared<GPrepareMsg>();
      msg->request_id = req.id;
      msg->gseq = req.gseq;
      msg->zone = my_zone_;
      msg->cert = cert;
      auto targets = AllNodes();
      process_->ChargeCpu(config_.costs.send_us * targets.size());
      process_->Multicast(targets, msg);
      break;
    }
    case EndorsePhase::kTLCommit: {
      if (!endorser_->IsPrimary()) break;
      auto msg = std::make_shared<GCommitMsg>();
      msg->request_id = req.id;
      msg->gseq = req.gseq;
      msg->zone = my_zone_;
      msg->cert = cert;
      auto targets = AllNodes();
      process_->ChargeCpu(config_.costs.send_us * targets.size());
      process_->Multicast(targets, msg);
      break;
    }
    default:
      break;
  }
}

void TwoLevelGlobalEngine::HandleGPrePrepare(
    const std::shared_ptr<const GPrePrepareMsg>& msg) {
  TLRequest& req = requests_[msg->request_id];
  req.id = msg->request_id;
  if (req.ops.empty()) req.ops = msg->ops;
  req.gseq = msg->gseq;
  req.initiator_zone = msg->initiator_zone;
  by_seq_[req.gseq] = req.id;
  // The initiator zone's certificate counts as its prepare.
  req.gprepares.insert(msg->initiator_zone);
  if (!endorser_->IsPrimary()) return;
  if (my_zone_ == msg->initiator_zone) {
    TryPrepare(req);  // our pre-prepare endorsement is our prepare
    return;
  }
  if (!VerifyZoneCert(msg->cert, msg->digest(), msg->initiator_zone)
           .ok()) {
    process_->scoped_counters().Inc(obs::CounterId::kTlBadGPrePrepareCert);
    return;
  }
  for (const auto& op : req.ops) {
    if (my_zone_ == op.source && op.IsMigration()) {
      locks_->SetLocked(op.client, false);
    }
  }
  endorser_->Start(EndorsePhase::kTLPrepare, req.id,
                   Ballot{req.gseq, my_zone_}, kNullBallot,
                   GPrepareDigest(req.id, req.gseq, my_zone_), msg,
                   req.ops.front(), req.ops, {},
                   /*full_prepare=*/true);
}

void TwoLevelGlobalEngine::HandleGPrepare(
    const std::shared_ptr<const GPrepareMsg>& msg) {
  TLRequest& req = requests_[msg->request_id];
  if (req.id == 0) {
    req.id = msg->request_id;
  }
  if (!VerifyZoneCert(msg->cert, msg->digest(), msg->zone).ok()) {
    process_->scoped_counters().Inc(obs::CounterId::kTlBadGPrepareCert);
    return;
  }
  req.gprepares.insert(msg->zone);
  TryPrepare(req);
}

void TwoLevelGlobalEngine::TryPrepare(TLRequest& req) {
  if (req.sent_gprepare || req.gseq == 0) return;
  // Zone-level prepared: 2F+1 zones (the initiator's pre-prepare counts).
  if (req.gprepares.size() < ZoneQuorum()) return;
  req.sent_gprepare = true;
  if (!endorser_->IsPrimary()) return;
  endorser_->Start(EndorsePhase::kTLCommit, req.id, Ballot{req.gseq, my_zone_},
                   kNullBallot, GCommitDigest(req.id, req.gseq, my_zone_),
                   nullptr, req.ops.front(), req.ops, {},
                   /*full_prepare=*/true);
}

void TwoLevelGlobalEngine::HandleGCommit(
    const std::shared_ptr<const GCommitMsg>& msg) {
  TLRequest& req = requests_[msg->request_id];
  if (req.id == 0) req.id = msg->request_id;
  if (!VerifyZoneCert(msg->cert, msg->digest(), msg->zone).ok()) {
    process_->scoped_counters().Inc(obs::CounterId::kTlBadGCommitCert);
    return;
  }
  req.gcommits.insert(msg->zone);
  TryCommit(req);
}

void TwoLevelGlobalEngine::TryCommit(TLRequest& req) {
  if (req.committed || req.gseq == 0) return;
  if (req.gcommits.size() < ZoneQuorum()) return;
  req.committed = true;
  process_->scoped_counters().Inc(obs::CounterId::kTlCommitted);
  ExecuteReady();
}

void TwoLevelGlobalEngine::ExecuteReady() {
  for (;;) {
    auto it = by_seq_.find(last_exec_gseq_ + 1);
    if (it == by_seq_.end()) return;
    auto rit = requests_.find(it->second);
    if (rit == requests_.end() || !rit->second.committed) return;
    TLRequest& req = rit->second;
    if (!req.executed) {
      req.executed = true;
      for (const MigrationOp& op : req.ops) {
        if (!executed_op_ids_.insert(op.RequestId()).second) continue;
        executed_count_++;
        process_->ChargeCpu(config_.costs.apply_us);
        std::string result;
        if (op.IsMigration()) {
          result = metadata_->Execute(op);
        } else if (global_apply_callback_) {
          result = global_apply_callback_(op);
        }
        if (executed_callback_) {
          executed_callback_(op, req.initiator_zone, result);
        }
      }
    }
    last_exec_gseq_++;
  }
}

// -------------------------------------------------------------------- node

void TwoLevelNode::Init(const crypto::KeyRegistry* keys,
                        const core::Topology* topology, ZoneId zone,
                        std::unique_ptr<core::ZoneStateMachine> app,
                        Config config) {
  keys_ = keys;
  topology_ = topology;
  zone_ = zone;
  config_ = std::move(config);
  app_ = std::move(app);
  metadata_ = std::make_unique<core::GlobalMetadata>(config_.policy);

  const core::ZoneInfo& zi = topology_->zone(zone_);
  config_.pbft.members = zi.members;
  config_.pbft.f = zi.f;
  pbft_ = std::make_unique<pbft::PbftEngine>(this, keys_, config_.pbft,
                                             app_.get());

  core::ZoneEndorser::Callbacks cbs;
  cbs.validate = [this](const EndorsePrePrepareMsg& pp) {
    switch (pp.phase) {
      case EndorsePhase::kMigrationState:
      case EndorsePhase::kMigrationAppend:
        return migration_->ValidateEndorse(pp);
      default:
        return global_->ValidateEndorse(pp);
    }
  };
  cbs.on_quorum = [this](const EndorseKey& key, const EndorsePrePrepareMsg& pp,
                         const crypto::Certificate& cert) {
    switch (key.phase) {
      case EndorsePhase::kMigrationState:
      case EndorsePhase::kMigrationAppend:
        migration_->OnEndorseQuorum(key, pp, cert);
        break;
      default:
        global_->OnEndorseQuorum(key, cert);
        break;
    }
  };
  endorser_ = std::make_unique<core::ZoneEndorser>(
      this, keys_, &zi, config_.two_level.costs, cbs);

  global_ = std::make_unique<TwoLevelGlobalEngine>(
      this, keys_, topology_, zone_, metadata_.get(), &locks_,
      endorser_.get(), config_.two_level);
  migration_ = std::make_unique<core::MigrationEngine>(
      this, keys_, topology_, zone_, &locks_, endorser_.get(),
      config_.migration);

  global_->set_executed_callback([this](const MigrationOp& op,
                                        ZoneId initiator,
                                        const std::string& result) {
    if (zone_ == initiator && op.client != kInvalidClient) {
      auto reply = std::make_shared<core::MigrationReplyMsg>(/*done=*/false);
      reply->request_id = op.RequestId();
      reply->client = op.client;
      reply->timestamp = op.timestamp;
      reply->replica = id();
      reply->result = result.empty() ? "synced" : result;
      ChargeCpu(config_.two_level.costs.mac_us +
                config_.two_level.costs.send_us);
      Send(op.client, reply);
    }
    if (op.IsMigration() && (zone_ == op.source || zone_ == op.destination)) {
      migration_->OnGlobalExecuted(op, Ballot{1, zone_});
    }
  });
  global_->set_global_apply_callback([this](const MigrationOp& op) {
    pbft::Operation app_op;
    app_op.client = op.client;
    app_op.timestamp = op.timestamp;
    app_op.command = op.command;
    ChargeCpu(config_.two_level.costs.apply_us);
    return app_->Apply(app_op);
  });
  migration_->set_state_provider(
      [this](ClientId c) { return app_->ClientRecords(c); });
  migration_->set_state_installer(
      [this](ClientId c, const storage::KvStore::Map& records,
             RequestTimestamp /*migration_ts*/) {
        app_->InstallClientRecords(c, records);
      });
  migration_->set_done_callback([this](const MigrationOp& op) {
    auto reply = std::make_shared<core::MigrationReplyMsg>(/*done=*/true);
    reply->request_id = op.RequestId();
    reply->client = op.client;
    reply->timestamp = op.timestamp;
    reply->replica = id();
    reply->result = "migrated";
    ChargeCpu(config_.migration.costs.mac_us + config_.migration.costs.send_us);
    Send(op.client, reply);
  });
  pbft_->set_view_callback([this](ViewId view, bool active) {
    if (active) endorser_->OnViewChange(view);
  });
}

void TwoLevelNode::OnMessage(const sim::MessagePtr& msg) {
  sim::MessageType t = msg->type();
  if (t == pbft::kClientRequest) {
    auto req = std::static_pointer_cast<const pbft::ClientRequestMsg>(msg);
    if (!locks_.IsLocked(req->op.client)) {
      scoped_counters().Inc(obs::CounterId::kNodeUnlockedClientRejected);
      return;
    }
    pbft_->HandleMessage(msg);
    return;
  }
  if (t >= 10 && t < 30) {
    pbft_->HandleMessage(msg);
    return;
  }
  if (t == core::kEndorsePrePrepare || t == core::kEndorsePrepare ||
      t == core::kEndorseVote) {
    endorser_->HandleMessage(msg);
    return;
  }
  if (t == core::kStateTransfer || t == core::kResponseQuery) {
    migration_->HandleMessage(msg);
    return;
  }
  if (t == core::kMigrationRequest || (t >= 80 && t < 90)) {
    global_->HandleMessage(msg);
    return;
  }
  scoped_counters().Inc(obs::CounterId::kNodeUnroutableMessage);
}

void TwoLevelNode::OnTimer(const sim::TimerTag& tag) {
  switch (tag.engine) {
    case sim::TimerEngine::kPbft:
      pbft_->HandleTimer(tag);
      break;
    case sim::TimerEngine::kMigration:
      migration_->HandleTimer(tag);
      break;
    case sim::TimerEngine::kTwoLevel:
      global_->HandleTimer();
      break;
    default:
      break;
  }
}

// ------------------------------------------------------------------ system

void TwoLevelSystem::Finalize(const TwoLevelNode::Config& config,
                              const AppFactory& app_factory) {
  const std::size_t zones = zones_added();
  const std::size_t big_f = (zones - 1) / 2;
  for (std::size_t w = zones; w < 3 * big_f + 1; ++w) {
    AddZone(/*cluster=*/0, sim::kCalifornia, /*f=*/0, /*n_nodes=*/1);
  }
  Build([&](TwoLevelNode& node, ZoneId zone) {
    node.Init(&keys(), &topology(), zone, app_factory(zone), config);
  });
}

}  // namespace ziziphus::baselines
