#include "core/topology.h"

#include <algorithm>

#include "common/logging.h"
#include "sim/simulation.h"

namespace ziziphus::core {

bool ZoneInfo::IsMember(NodeId node) const {
  return std::find(members.begin(), members.end(), node) != members.end();
}

Status VerifyZoneCertificate(const crypto::KeyRegistry& keys,
                             const ZoneInfo& zone,
                             const crypto::Certificate& cert,
                             crypto::Digest expected) {
  return crypto::VerifyCertificate(
      keys, cert, expected, zone.quorum(),
      [&zone](NodeId n) { return zone.IsMember(n); });
}

Status VerifyZoneCertificateOn(sim::Process& process,
                               const crypto::CryptoCosts& costs,
                               const crypto::KeyRegistry& keys,
                               const ZoneInfo& zone,
                               const crypto::Certificate& cert,
                               crypto::Digest expected) {
  if (process.loopback()) return Status::Ok();
  obs::SpanId span = process.BeginSpan(obs::SpanKind::kCertVerify);
  process.ChargeCrypto(costs.CertificateVerifyCost(cert.size()));
  Status status = VerifyZoneCertificate(keys, zone, cert, expected);
  process.EndSpan(span);
  return status;
}

ZoneId Topology::AddZone(ClusterId cluster, RegionId region, std::size_t f,
                         std::vector<NodeId> members) {
  ZCHECK(members.size() >= 3 * f + 1);
  ZoneId id = static_cast<ZoneId>(zones_.size());
  for (NodeId n : members) {
    ZCHECK(node_zone_.count(n) == 0);
    node_zone_[n] = id;
  }
  zones_.push_back(ZoneInfo{id, cluster, region, f, std::move(members)});
  clusters_[cluster].push_back(id);
  return id;
}

ZoneId Topology::ZoneOf(NodeId node) const {
  auto it = node_zone_.find(node);
  ZCHECK(it != node_zone_.end());
  return it->second;
}

std::vector<NodeId> Topology::AllNodesInCluster(ClusterId cluster) const {
  std::vector<NodeId> out;
  for (ZoneId z : clusters_.at(cluster)) {
    const auto& m = zones_[z].members;
    out.insert(out.end(), m.begin(), m.end());
  }
  return out;
}

std::vector<NodeId> Topology::AllNodes() const {
  std::vector<NodeId> out;
  for (const auto& z : zones_) {
    out.insert(out.end(), z.members.begin(), z.members.end());
  }
  return out;
}

}  // namespace ziziphus::core
