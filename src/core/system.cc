#include "core/system.h"

#include "common/logging.h"

namespace ziziphus::core {

ZiziphusSystem::ZiziphusSystem(std::uint64_t seed, sim::LatencyModel latency)
    : keys_(seed ^ 0x5eedc0deULL), sim_(seed, std::move(latency)) {}

ZoneId ZiziphusSystem::AddZone(ClusterId cluster, RegionId region,
                               std::size_t f, std::size_t n_nodes) {
  ZCHECK(!finalized_);
  ZCHECK(n_nodes >= 3 * f + 1);
  pending_.push_back(PendingZone{cluster, region, f, n_nodes});
  return static_cast<ZoneId>(pending_.size() - 1);
}

void ZiziphusSystem::Finalize(const NodeConfig& config,
                              const AppFactory& app_factory,
                              const NodeConfigTweaker& tweak) {
  ZCHECK(!finalized_);
  finalized_ = true;
  // Pass 1: create and register all replicas so NodeIds exist.
  std::vector<std::vector<NodeId>> members(pending_.size());
  for (std::size_t z = 0; z < pending_.size(); ++z) {
    for (std::size_t i = 0; i < pending_[z].n_nodes; ++i) {
      auto node = std::make_unique<ZiziphusNode>();
      NodeId id = sim_.Register(node.get(), pending_[z].region);
      sim_.recorder().RegisterNode(id, static_cast<ZoneId>(z));
      members[z].push_back(id);
      node_by_id_[id] = node.get();
      nodes_.push_back(std::move(node));
    }
  }
  // Pass 2: build the topology.
  for (std::size_t z = 0; z < pending_.size(); ++z) {
    topology_.AddZone(pending_[z].cluster, pending_[z].region, pending_[z].f,
                      members[z]);
  }
  // Pass 3: initialize every node against the finished topology.
  for (std::size_t z = 0; z < pending_.size(); ++z) {
    for (NodeId id : members[z]) {
      NodeConfig node_config = config;
      node_config.ledger = &ledger_;
      if (node_config.app_factory == nullptr) {
        // Recovery path: an amnesiac node rebuilds its app from the same
        // factory Finalize used here.
        node_config.app_factory = app_factory;
      }
      if (tweak) tweak(id, static_cast<ZoneId>(z), node_config);
      node_by_id_[id]->Init(&keys_, &topology_, static_cast<ZoneId>(z),
                            app_factory(static_cast<ZoneId>(z)),
                            std::move(node_config));
    }
  }
}

void ZiziphusSystem::BootstrapClient(ClientId client, ZoneId home,
                                     const ClientSeeder& seeder,
                                     bool replicate_everywhere) {
  ZCHECK(finalized_);
  storage::KvStore::Map records =
      seeder ? seeder(client) : storage::KvStore::Map{};
  for (auto& node : nodes_) {
    node->metadata().RegisterClient(client, home);
    if (node->zone() == home || replicate_everywhere) {
      node->BootstrapClient(client);
      if (!records.empty()) {
        node->InstallBootstrapRecords(client, records);
      }
    }
  }
}

ZiziphusNode* ZiziphusSystem::PrimaryOf(ZoneId zone) {
  const ZoneInfo& zi = topology_.zone(zone);
  ZiziphusNode* any = node_by_id_.at(zi.members.front());
  return node_by_id_.at(any->endorser().primary());
}

ZiziphusNode* ZiziphusSystem::Member(ZoneId zone, std::size_t index) {
  const ZoneInfo& zi = topology_.zone(zone);
  return node_by_id_.at(zi.members.at(index));
}

}  // namespace ziziphus::core
