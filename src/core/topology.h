#ifndef ZIZIPHUS_CORE_TOPOLOGY_H_
#define ZIZIPHUS_CORE_TOPOLOGY_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "crypto/certificate.h"

namespace ziziphus::sim {
class Process;
}  // namespace ziziphus::sim

namespace ziziphus::core {

/// Static description of one fault-tolerant zone: 3f+1 replicas in (ideally)
/// one region, belonging to one zone cluster.
struct ZoneInfo {
  ZoneId id = kInvalidZone;
  ClusterId cluster = 0;
  RegionId region = 0;
  std::size_t f = 1;
  std::vector<NodeId> members;

  std::size_t quorum() const { return 2 * f + 1; }
  std::size_t n() const { return members.size(); }
  bool IsMember(NodeId node) const;
};

/// The zone-certificate check: `cert` carries quorum() (2f+1) valid
/// signatures over `expected`, all from members of `zone`. Charges no CPU;
/// each caller models that cost itself.
Status VerifyZoneCertificate(const crypto::KeyRegistry& keys,
                             const ZoneInfo& zone,
                             const crypto::Certificate& cert,
                             crypto::Digest expected);

/// VerifyZoneCertificate run on `process`, the way the data-sync and
/// migration engines check a remote zone's certificate: the verify cost is
/// charged as crypto CPU inside a kCertVerify span. While `process` handles
/// its own loopback copy (sim::Process::loopback) the check is skipped and
/// passes: the node verified every certificate it put in a message itself,
/// or assembled it from votes it verified.
Status VerifyZoneCertificateOn(sim::Process& process,
                               const crypto::CryptoCosts& costs,
                               const crypto::KeyRegistry& keys,
                               const ZoneInfo& zone,
                               const crypto::Certificate& cert,
                               crypto::Digest expected);

/// The deployment map: zones, their members and clusters. Shared read-only
/// by every node (zones are predetermined — Section V-B, Prop. 5.3).
class Topology {
 public:
  /// Adds a zone; members must already have NodeIds. Returns the zone id.
  ZoneId AddZone(ClusterId cluster, RegionId region, std::size_t f,
                 std::vector<NodeId> members);

  std::size_t num_zones() const { return zones_.size(); }
  std::size_t num_clusters() const { return clusters_.size(); }
  const ZoneInfo& zone(ZoneId z) const { return zones_[z]; }
  const std::vector<ZoneInfo>& zones() const { return zones_; }

  /// Zone of a replica node (not valid for clients).
  ZoneId ZoneOf(NodeId node) const;
  bool IsReplica(NodeId node) const { return node_zone_.count(node) > 0; }

  /// Zones belonging to one cluster.
  const std::vector<ZoneId>& ZonesInCluster(ClusterId c) const {
    return clusters_.at(c);
  }

  /// Majority quorum size over the zones of `cluster`.
  std::size_t ZoneMajority(ClusterId cluster) const {
    return clusters_.at(cluster).size() / 2 + 1;
  }

  /// All replica nodes in every zone of `cluster`.
  std::vector<NodeId> AllNodesInCluster(ClusterId cluster) const;

  /// All replica nodes in the whole deployment.
  std::vector<NodeId> AllNodes() const;

 private:
  std::vector<ZoneInfo> zones_;
  std::unordered_map<ClusterId, std::vector<ZoneId>> clusters_;
  std::unordered_map<NodeId, ZoneId> node_zone_;
};

}  // namespace ziziphus::core

#endif  // ZIZIPHUS_CORE_TOPOLOGY_H_
