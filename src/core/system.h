#ifndef ZIZIPHUS_CORE_SYSTEM_H_
#define ZIZIPHUS_CORE_SYSTEM_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "core/ledger.h"
#include "core/node.h"
#include "core/topology.h"
#include "crypto/signature.h"
#include "sim/simulation.h"

namespace ziziphus::core {

/// Builds and owns one deployment inside one simulation: key registry,
/// topology, and one `Node` per replica. Ziziphus (ZiziphusSystem, below)
/// and the two-level PBFT baseline (baselines::TwoLevelSystem) both build
/// on it; each adds only a Finalize that hands Build its per-node Init.
///
/// `Node` is a default-constructible sim::Process with zone(), metadata(),
/// endorser(), BootstrapClient(client) and
/// InstallBootstrapRecords(client, records).
template <typename Node>
class Deployment {
 public:
  using AppFactory =
      std::function<std::unique_ptr<ZoneStateMachine>(ZoneId zone)>;
  /// Called per (node, client) at bootstrap to install the client's initial
  /// records in its home zone's application state.
  using ClientSeeder = std::function<storage::KvStore::Map(ClientId client)>;

  Deployment(std::uint64_t seed, sim::LatencyModel latency)
      : keys_(seed ^ 0x5eedc0deULL), sim_(seed, std::move(latency)) {}
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Declares a zone of `n_nodes` (>= 3f+1) replicas in `region`.
  /// Must be called before Finalize.
  ZoneId AddZone(ClusterId cluster, RegionId region, std::size_t f,
                 std::size_t n_nodes) {
    ZCHECK(!finalized_);
    ZCHECK(n_nodes >= 3 * f + 1);
    pending_.push_back(PendingZone{cluster, region, f, n_nodes});
    return static_cast<ZoneId>(pending_.size() - 1);
  }

  /// Registers a client's home: metadata on all nodes, lock bit and initial
  /// records on the home zone's nodes. `client` is the client process's
  /// NodeId. With `replicate_everywhere` (Steward-style full replication),
  /// every zone gets the records and serves the client.
  void BootstrapClient(ClientId client, ZoneId home,
                       const ClientSeeder& seeder,
                       bool replicate_everywhere = false) {
    ZCHECK(finalized_);
    storage::KvStore::Map records =
        seeder ? seeder(client) : storage::KvStore::Map{};
    for (auto& node : nodes_) {
      node->metadata().RegisterClient(client, home);
      if (node->zone() == home || replicate_everywhere) {
        node->BootstrapClient(client);
        if (!records.empty()) node->InstallBootstrapRecords(client, records);
      }
    }
  }

  sim::Simulation& sim() { return sim_; }
  const Topology& topology() const { return topology_; }
  const crypto::KeyRegistry& keys() const { return keys_; }

  Node* node(NodeId id) { return node_by_id_.at(id); }
  const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }

  /// The zone's current primary according to its first member's view.
  Node* PrimaryOf(ZoneId zone) {
    Node* any = node_by_id_.at(topology_.zone(zone).members.front());
    return node_by_id_.at(any->endorser().primary());
  }
  /// Any node of the zone by member index.
  Node* Member(ZoneId zone, std::size_t index) {
    return node_by_id_.at(topology_.zone(zone).members.at(index));
  }

 protected:
  /// Zones declared so far.
  std::size_t zones_added() const { return pending_.size(); }

  /// The builder passes: create and register every replica so NodeIds
  /// exist, build the topology from them, then `init` each node (zone by
  /// zone, in member order) against the finished topology.
  void Build(const std::function<void(Node& node, ZoneId zone)>& init) {
    ZCHECK(!finalized_);
    finalized_ = true;
    std::vector<std::vector<NodeId>> members(pending_.size());
    for (std::size_t z = 0; z < pending_.size(); ++z) {
      for (std::size_t i = 0; i < pending_[z].n_nodes; ++i) {
        auto node = std::make_unique<Node>();
        NodeId id = sim_.Register(node.get(), pending_[z].region);
        sim_.recorder().RegisterNode(id, static_cast<ZoneId>(z));
        members[z].push_back(id);
        node_by_id_[id] = node.get();
        nodes_.push_back(std::move(node));
      }
    }
    for (std::size_t z = 0; z < pending_.size(); ++z) {
      topology_.AddZone(pending_[z].cluster, pending_[z].region,
                        pending_[z].f, members[z]);
    }
    for (std::size_t z = 0; z < pending_.size(); ++z) {
      for (NodeId id : members[z]) {
        init(*node_by_id_[id], static_cast<ZoneId>(z));
      }
    }
  }

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
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unordered_map<NodeId, Node*> node_by_id_;
  bool finalized_ = false;
};

/// A full Ziziphus deployment: one ZiziphusNode per replica, all reporting
/// to one ExecutionLedger.
///
/// Usage:
///   ZiziphusSystem sys(seed, sim::LatencyModel::PaperGeoMatrix());
///   sys.AddZone(cluster, region, f, 3 * f + 1);
///   sys.Finalize(node_config, [] (ZoneId) { return MakeApp(); });
///   ... register client processes, bootstrap clients, run the sim ...
class ZiziphusSystem : public Deployment<ZiziphusNode> {
 public:
  using Deployment::Deployment;

  /// Called per replica just before Init; may tweak the node's config
  /// (e.g. install a Byzantine PBFT engine factory on selected nodes).
  using NodeConfigTweaker =
      std::function<void(NodeId id, ZoneId zone, NodeConfig& config)>;

  /// Creates, registers and initializes every replica.
  void Finalize(const NodeConfig& config, const AppFactory& app_factory,
                const NodeConfigTweaker& tweak = nullptr);

  /// Ballot -> executed-request record every node reports to.
  const ExecutionLedger& ledger() const { return ledger_; }

 private:
  ExecutionLedger ledger_;
};

}  // namespace ziziphus::core

#endif  // ZIZIPHUS_CORE_SYSTEM_H_
