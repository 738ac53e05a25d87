#include "core/system.h"

namespace ziziphus::core {

void ZiziphusSystem::Finalize(const NodeConfig& config,
                              const AppFactory& app_factory) {
  Build([&](ZiziphusNode& node, ZoneId zone) {
    NodeConfig node_config = config;
    node_config.ledger = &ledger_;
    if (node_config.app_factory == nullptr) {
      // Recovery path: an amnesiac node rebuilds its app from the same
      // factory Finalize used here.
      node_config.app_factory = app_factory;
    }
    node.Init(&keys(), &topology(), zone, app_factory(zone),
              std::move(node_config));
  });
}

}  // namespace ziziphus::core
