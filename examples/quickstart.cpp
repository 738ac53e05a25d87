// Quickstart: bring up a three-zone Ziziphus deployment, run local banking
// transactions, migrate a client between zones, and inspect the replicated
// state.
//
//   $ ./build/examples/quickstart
//
// Exits 1 if any step does not turn out as the comments say (ctest runs it
// as example_quickstart).

#include <cstdint>
#include <cstdio>
#include <memory>

#include "app/bank.h"
#include "core/system.h"
#include "tests/test_util.h"

using namespace ziziphus;

int main() {
  // 1. Three fault-tolerant zones (f=1, 4 nodes each) in the paper's
  //    California / Ohio / Quebec data centers, one zone cluster.
  core::ZiziphusSystem system(/*seed=*/2026,
                              sim::LatencyModel::PaperGeoMatrix());
  system.AddZone(/*cluster=*/0, sim::kCalifornia, /*f=*/1, /*nodes=*/4);
  system.AddZone(/*cluster=*/0, sim::kOhio, 1, 4);
  system.AddZone(/*cluster=*/0, sim::kQuebec, 1, 4);
  system.Finalize(core::NodeConfig{}, [](ZoneId) {
    return std::make_unique<app::BankStateMachine>();
  });

  // 2. A client homed in the California zone with a $1000 account.
  testutil::TestClient client(&system.keys(), /*f=*/1);
  system.sim().Register(&client, sim::kCalifornia);
  system.BootstrapClient(client.id(), /*home=*/0, [](ClientId id) {
    return storage::KvStore::Map{
        {app::BankStateMachine::AccountKey(id), "1000"}};
  });

  // 3. Local transactions: ordered by the zone's PBFT instance only —
  //    no cross-zone traffic.
  auto dep = client.SubmitLocal(system.PrimaryOf(0)->id(), "DEP 250");
  system.sim().RunFor(Seconds(1));
  std::printf("local deposit committed: %s (result \"%s\")\n",
              client.IsComplete(dep) ? "yes" : "no",
              client.ResultOf(dep).c_str());
  bool ok = client.IsComplete(dep) && client.ResultOf(dep) == "ok";

  // 4. The client moves to Quebec: a global transaction. Algorithm 1
  //    synchronizes the system meta-data across all zones with a majority
  //    quorum; Algorithm 2 ships the account to the destination zone.
  auto mig = client.SubmitGlobal(system.PrimaryOf(0)->id(), /*source=*/0,
                                 /*dest=*/2);
  system.sim().RunFor(Seconds(2));
  std::printf("migration synced: %s, data migrated: %s\n",
              client.Synced(mig) ? "yes" : "no",
              client.MigrationDone(mig) ? "yes" : "no");
  ok = ok && client.Synced(mig) && client.MigrationDone(mig);

  // 5. Every node of every zone agrees on the client's new home.
  for (const auto& node : system.nodes()) {
    if (node->metadata().HomeOf(client.id()) != 2) {
      std::printf("node %u disagrees!\n", node->id());
      return 1;
    }
  }
  auto& quebec_bank =
      static_cast<app::BankStateMachine&>(system.Member(2, 0)->app());
  std::printf("balance now served by Quebec: $%lld\n",
              static_cast<long long>(quebec_bank.BalanceOf(client.id())));

  // 6. Local service resumes in the new zone.
  auto dep2 = client.SubmitLocal(system.PrimaryOf(2)->id(), "DEP 50");
  system.sim().RunFor(Seconds(1));
  const std::int64_t balance = quebec_bank.BalanceOf(client.id());
  std::printf("post-migration deposit committed: %s, balance $%lld "
              "(expected $1300)\n",
              client.IsComplete(dep2) ? "yes" : "no",
              static_cast<long long>(balance));
  ok = ok && client.IsComplete(dep2) && balance == 1300;

  std::printf("simulated time elapsed: %.1f ms, messages: %llu\n",
              ToMillis(system.sim().Now()),
              static_cast<unsigned long long>(
                  system.sim().counters().Get(obs::CounterId::kNetMsgsSent)));
  if (!ok) std::printf("FAILED: a step above did not complete as expected\n");
  return ok ? 0 : 1;
}
