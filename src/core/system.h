#ifndef ZIZIPHUS_CORE_SYSTEM_H_
#define ZIZIPHUS_CORE_SYSTEM_H_

#include <functional>
#include <memory>
#include <vector>

#include "core/ledger.h"
#include "core/node.h"
#include "core/topology.h"
#include "crypto/signature.h"
#include "sim/simulation.h"

namespace ziziphus::core {

/// Builds and owns a full Ziziphus deployment inside one simulation:
/// key registry, topology, and one ZiziphusNode per replica.
///
/// Usage:
///   ZiziphusSystem sys(seed, sim::LatencyModel::PaperGeoMatrix());
///   sys.AddZone(cluster, region, f, 3 * f + 1);
///   sys.Finalize(node_config, [] (ZoneId) { return MakeApp(); });
///   ... register client processes, bootstrap clients, run the sim ...
class ZiziphusSystem {
 public:
  using AppFactory =
      std::function<std::unique_ptr<ZoneStateMachine>(ZoneId zone)>;
  /// Called per (node, client) at bootstrap to install the client's initial
  /// records in its home zone's application state.
  using ClientSeeder = std::function<storage::KvStore::Map(ClientId client)>;

  ZiziphusSystem(std::uint64_t seed, sim::LatencyModel latency);

  /// Declares a zone of `n_nodes` (>= 3f+1) replicas in `region`.
  /// Must be called before Finalize.
  ZoneId AddZone(ClusterId cluster, RegionId region, std::size_t f,
                 std::size_t n_nodes);

  /// Called per replica just before Init; may tweak the node's config
  /// (e.g. install a Byzantine PBFT engine factory on selected nodes).
  using NodeConfigTweaker =
      std::function<void(NodeId id, ZoneId zone, NodeConfig& config)>;

  /// Creates, registers and initializes every replica.
  void Finalize(const NodeConfig& config, const AppFactory& app_factory,
                const NodeConfigTweaker& tweak = nullptr);

  /// Registers a client's home: metadata on all nodes, lock bit and initial
  /// records on the home zone's nodes. `client` is the client process's
  /// NodeId. With `replicate_everywhere` (Steward-style full replication),
  /// every zone gets the records and serves the client.
  void BootstrapClient(ClientId client, ZoneId home,
                       const ClientSeeder& seeder,
                       bool replicate_everywhere = false);

  sim::Simulation& sim() { return sim_; }
  const Topology& topology() const { return topology_; }
  const crypto::KeyRegistry& keys() const { return keys_; }

  ZiziphusNode* node(NodeId id) { return node_by_id_.at(id); }
  const std::vector<std::unique_ptr<ZiziphusNode>>& nodes() const {
    return nodes_;
  }

  /// Ballot -> executed-request record every node reports to.
  const ExecutionLedger& ledger() const { return ledger_; }

  /// The zone's current primary according to its first member's view.
  ZiziphusNode* PrimaryOf(ZoneId zone);
  /// Any node of the zone by member index.
  ZiziphusNode* Member(ZoneId zone, std::size_t index);

 private:
  struct PendingZone {
    ClusterId cluster;
    RegionId region;
    std::size_t f;
    std::size_t n_nodes;
  };

  crypto::KeyRegistry keys_;
  sim::Simulation sim_;
  Topology topology_;
  std::vector<PendingZone> pending_;
  std::vector<std::unique_ptr<ZiziphusNode>> nodes_;
  std::unordered_map<NodeId, ZiziphusNode*> node_by_id_;
  ExecutionLedger ledger_;
  bool finalized_ = false;
};

}  // namespace ziziphus::core

#endif  // ZIZIPHUS_CORE_SYSTEM_H_
