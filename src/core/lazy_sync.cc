#include "core/lazy_sync.h"

namespace ziziphus::core {

void LazySyncEngine::OnLocalStableCheckpoint(const storage::Checkpoint& cp,
                                             bool i_am_primary) {
  // Every node remembers its own zone's stable state; only the primary
  // gossips it (backups would duplicate traffic).
  storage::Checkpoint own = cp;
  remote_.Install(my_zone_, own);
  if (!i_am_primary) return;

  auto msg = std::make_shared<ZoneCheckpointMsg>();
  msg->zone = my_zone_;
  msg->seq = cp.seq;
  msg->state_digest = cp.state_digest;
  msg->read_root = cp.read_root;
  msg->snapshot = cp.snapshot;
  msg->coverage = cp.coverage;
  msg->cert = cp.certificate;

  std::vector<NodeId> targets;
  ClusterId cluster = topology_->zone(my_zone_).cluster;
  for (ZoneId z : topology_->ZonesInCluster(cluster)) {
    if (z == my_zone_) continue;
    const auto& m = topology_->zone(z).members;
    targets.insert(targets.end(), m.begin(), m.end());
  }
  process_->ChargeCpu(process_->costs().send_us * targets.size());
  process_->scoped_counters().Inc(obs::CounterId::kLazyCheckpointsShared);
  process_->Multicast(targets, msg);
}

bool LazySyncEngine::HandleMessage(const sim::MessagePtr& msg) {
  if (msg->type() != kZoneCheckpoint) return false;
  auto m = std::static_pointer_cast<const ZoneCheckpointMsg>(msg);
  const NodeCosts& costs = process_->costs();
  process_->ChargeCpu(costs.base_handle_us +
                      costs.crypto.CertificateVerifyCost(m->cert.size()));
  if (m->zone >= topology_->num_zones()) return true;
  const ZoneInfo& zi = topology_->zone(m->zone);
  // The certificate is the PBFT checkpoint proof: 2f+1 signatures over
  // H(seq, state_digest, read_root).
  Status s = VerifyZoneCertificate(*keys_, zi, m->cert, m->digest());
  if (!s.ok()) {
    process_->scoped_counters().Inc(obs::CounterId::kLazyBadCheckpointCert);
    return true;
  }
  storage::Checkpoint cp;
  cp.seq = m->seq;
  cp.state_digest = m->state_digest;
  cp.read_root = m->read_root;
  cp.snapshot = m->snapshot;
  cp.coverage = m->coverage;
  cp.certificate = m->cert;
  if (remote_.Install(m->zone, std::move(cp))) {
    process_->scoped_counters().Inc(obs::CounterId::kLazyCheckpointsInstalled);
  }
  return true;
}

}  // namespace ziziphus::core
