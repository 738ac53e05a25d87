// Banking example with network-wide policies: the global system meta-data
// enforces "a client can migrate at most N times" and "a zone cannot host
// more than M clients" (Sections II and III-B). Violating migrations are
// committed, deterministically rejected at execution on every node, and the
// client keeps its old home.
//
//   $ ./build/examples/banking_policies
//
// Exits 1 if a line that states what it expects does not hold (ctest
// runs it as example_banking_policies).

#include <cstdint>
#include <cstdio>
#include <memory>

#include "app/bank.h"
#include "core/system.h"
#include "tests/test_util.h"

using namespace ziziphus;

int main() {
  core::NodeConfig cfg;
  cfg.policy.max_migrations_per_client = 2;
  cfg.policy.max_clients_per_zone = 3;

  core::ZiziphusSystem system(/*seed=*/11,
                              sim::LatencyModel::PaperGeoMatrix());
  system.AddZone(0, sim::kCalifornia, 1, 4);
  system.AddZone(0, sim::kOhio, 1, 4);
  system.AddZone(0, sim::kQuebec, 1, 4);
  system.Finalize(cfg, [](ZoneId) {
    return std::make_unique<app::BankStateMachine>();
  });

  testutil::TestClient alice(&system.keys(), 1);
  system.sim().Register(&alice, sim::kCalifornia);
  system.BootstrapClient(alice.id(), 0, [](ClientId id) {
    return storage::KvStore::Map{
        {app::BankStateMachine::AccountKey(id), "5000"}};
  });

  auto migrate = [&](ZoneId src, ZoneId dst) {
    auto ts = alice.SubmitGlobal(system.PrimaryOf(src)->id(), src, dst);
    system.sim().RunFor(Seconds(2));
    std::printf("  migrate z%u -> z%u: synced=%s done=%s result=\"%s\"\n",
                src, dst, alice.Synced(ts) ? "y" : "n",
                alice.MigrationDone(ts) ? "y" : "n",
                alice.ResultOf(ts).c_str());
  };

  std::printf("policy: at most 2 migrations per client\n");
  migrate(0, 1);  // ok (1st)
  migrate(1, 2);  // ok (2nd)
  migrate(2, 0);  // rejected: quota exhausted

  ZoneId home = system.Member(0, 0)->metadata().HomeOf(alice.id());
  std::printf("alice's home after three attempts: zone %u (expected 2)\n",
              home);
  auto& bank =
      static_cast<app::BankStateMachine&>(system.Member(home, 0)->app());
  const std::int64_t balance = bank.BalanceOf(alice.id());
  std::printf("her balance travelled intact: $%lld (expected 5000)\n",
              static_cast<long long>(balance));

  // Every node in every zone enforces the same verdict — policy
  // enforcement is part of the replicated execution, not a gateway check.
  std::uint64_t digest = system.nodes()[0]->metadata().StateDigest();
  bool all_agree = true;
  for (const auto& node : system.nodes()) {
    all_agree = all_agree && node->metadata().StateDigest() == digest;
  }
  std::printf("all 12 nodes agree on the meta-data: %s\n",
              all_agree ? "yes" : "no");
  const bool ok = home == 2 && balance == 5000 && all_agree;
  if (!ok) std::printf("FAILED: a line above is not what it expects\n");
  return ok ? 0 : 1;
}
