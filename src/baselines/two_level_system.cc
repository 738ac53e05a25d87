#include "baselines/two_level_system.h"

#include "common/logging.h"

namespace ziziphus::baselines {

TwoLevelSystem::TwoLevelSystem(std::uint64_t seed, sim::LatencyModel latency)
    : keys_(seed ^ 0x5eedc0deULL), sim_(seed, std::move(latency)) {}

ZoneId TwoLevelSystem::AddZone(ClusterId cluster, RegionId region,
                               std::size_t f, std::size_t n_nodes) {
  ZCHECK(!finalized_);
  ZCHECK(n_nodes >= 3 * f + 1);
  pending_.push_back(PendingZone{cluster, region, f, n_nodes});
  return static_cast<ZoneId>(pending_.size() - 1);
}

void TwoLevelSystem::Finalize(const TwoLevelNode::Config& config,
                              const AppFactory& app_factory) {
  ZCHECK(!finalized_);
  finalized_ = true;
  std::vector<std::vector<NodeId>> members(pending_.size());
  for (std::size_t z = 0; z < pending_.size(); ++z) {
    for (std::size_t i = 0; i < pending_[z].n_nodes; ++i) {
      auto node = std::make_unique<TwoLevelNode>();
      NodeId id = sim_.Register(node.get(), pending_[z].region);
      sim_.recorder().RegisterNode(id, static_cast<ZoneId>(z));
      members[z].push_back(id);
      node_by_id_[id] = node.get();
      nodes_.push_back(std::move(node));
    }
  }
  for (std::size_t z = 0; z < pending_.size(); ++z) {
    topology_.AddZone(pending_[z].cluster, pending_[z].region, pending_[z].f,
                      members[z]);
  }
  for (std::size_t z = 0; z < pending_.size(); ++z) {
    for (NodeId id : members[z]) {
      node_by_id_[id]->Init(&keys_, &topology_, static_cast<ZoneId>(z),
                            app_factory(static_cast<ZoneId>(z)), config);
    }
  }
}

void TwoLevelSystem::BootstrapClient(ClientId client, ZoneId home,
                                     const ClientSeeder& seeder) {
  ZCHECK(finalized_);
  storage::KvStore::Map records =
      seeder ? seeder(client) : storage::KvStore::Map{};
  for (auto& node : nodes_) {
    node->metadata().RegisterClient(client, home);
    if (node->zone() == home) {
      node->BootstrapClient(client);
      if (!records.empty()) {
        node->app().InstallClientRecords(client, records);
      }
    }
  }
}

TwoLevelNode* TwoLevelSystem::PrimaryOf(ZoneId zone) {
  const core::ZoneInfo& zi = topology_.zone(zone);
  TwoLevelNode* any = node_by_id_.at(zi.members.front());
  return node_by_id_.at(any->endorser().primary());
}

}  // namespace ziziphus::baselines
