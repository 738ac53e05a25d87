#ifndef ZIZIPHUS_BASELINES_TWO_LEVEL_SYSTEM_H_
#define ZIZIPHUS_BASELINES_TWO_LEVEL_SYSTEM_H_

#include <functional>
#include <memory>
#include <vector>

#include "baselines/two_level.h"
#include "core/topology.h"
#include "sim/simulation.h"

namespace ziziphus::baselines {

/// Builder for a two-level PBFT deployment, mirroring core::ZiziphusSystem.
/// Witness zones (single-node, f = 0 — the paper's "additional nodes in the
/// CA data center that participate in global synchronization as zone
/// leaders but process no local transactions") are added with AddWitness.
class TwoLevelSystem {
 public:
  using AppFactory =
      std::function<std::unique_ptr<core::ZoneStateMachine>(ZoneId)>;
  using ClientSeeder = std::function<storage::KvStore::Map(ClientId)>;

  TwoLevelSystem(std::uint64_t seed, sim::LatencyModel latency);

  ZoneId AddZone(ClusterId cluster, RegionId region, std::size_t f,
                 std::size_t n_nodes);
  /// A single-node, f=0 participant used only for global synchronization.
  ZoneId AddWitness(ClusterId cluster, RegionId region) {
    return AddZone(cluster, region, 0, 1);
  }

  void Finalize(const TwoLevelNode::Config& config,
                const AppFactory& app_factory);
  void BootstrapClient(ClientId client, ZoneId home,
                       const ClientSeeder& seeder);

  sim::Simulation& sim() { return sim_; }
  const core::Topology& topology() const { return topology_; }
  const crypto::KeyRegistry& keys() const { return keys_; }
  TwoLevelNode* node(NodeId id) { return node_by_id_.at(id); }
  TwoLevelNode* PrimaryOf(ZoneId zone);

 private:
  struct PendingZone {
    ClusterId cluster;
    RegionId region;
    std::size_t f;
    std::size_t n_nodes;
  };

  crypto::KeyRegistry keys_;
  sim::Simulation sim_;
  core::Topology topology_;
  std::vector<PendingZone> pending_;
  std::vector<std::unique_ptr<TwoLevelNode>> nodes_;
  std::unordered_map<NodeId, TwoLevelNode*> node_by_id_;
  bool finalized_ = false;
};

}  // namespace ziziphus::baselines

#endif  // ZIZIPHUS_BASELINES_TWO_LEVEL_SYSTEM_H_
