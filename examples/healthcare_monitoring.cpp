// Healthcare example (the paper's Section II motivation): edge zones store
// patient telemetry for remote monitoring; a travelling patient migrates
// between zone clusters and their records follow them — including across
// regulatory regions (zone clusters with separate regional meta-data).
//
//   $ ./build/examples/healthcare_monitoring
//
// Exits 1 if a line that states what it expects does not hold (ctest
// runs it as example_healthcare_monitoring).

#include <cstdio>
#include <memory>

#include "app/health.h"
#include "core/system.h"
#include "tests/test_util.h"

using namespace ziziphus;

int main() {
  // Two zone clusters — think "EU" (Paris/London) and "APAC"
  // (Tokyo/Sydney) — each enforcing its own regional policies (Sec. VI).
  core::ZiziphusSystem system(/*seed=*/7, sim::LatencyModel::PaperGeoMatrix());
  system.AddZone(/*cluster=*/0, sim::kParis, 1, 4);   // zone 0 (EU)
  system.AddZone(/*cluster=*/0, sim::kLondon, 1, 4);  // zone 1 (EU)
  system.AddZone(/*cluster=*/1, sim::kTokyo, 1, 4);   // zone 2 (APAC)
  system.AddZone(/*cluster=*/1, sim::kSydney, 1, 4);  // zone 3 (APAC)
  system.Finalize(core::NodeConfig{}, [](ZoneId) {
    return std::make_unique<app::HealthStateMachine>();
  });

  // A patient whose wearable reports to the nearby Paris zone.
  testutil::TestClient patient(&system.keys(), 1);
  system.sim().Register(&patient, sim::kParis);
  system.BootstrapClient(patient.id(), /*home=*/0, nullptr);

  std::printf("-- patient %u monitored by the Paris zone --\n", patient.id());
  const char* readings[] = {"VITAL hr 72", "VITAL hr 75", "VITAL spo2 98",
                            "VITAL hr 81"};
  for (const char* r : readings) {
    patient.SubmitLocal(system.PrimaryOf(0)->id(), r);
    system.sim().RunFor(Millis(300));
  }
  auto q = patient.SubmitLocal(system.PrimaryOf(0)->id(), "COUNT hr");
  system.sim().RunFor(Millis(300));
  std::printf("heart-rate readings stored in Paris: %s (expected 3)\n",
              patient.ResultOf(q).c_str());
  bool ok = patient.ResultOf(q) == "3";

  // The patient flies to Tokyo: a cross-cluster migration. The destination
  // zone coordinates both clusters (CROSS-PROPOSE / PREPARED, Sec. VI) and
  // the Paris zone ships the certified patient record.
  std::printf("-- patient travels to Tokyo (cross-cluster migration) --\n");
  auto mig = patient.SubmitGlobal(system.PrimaryOf(2)->id(), /*source=*/0,
                                  /*dest=*/2);
  system.sim().RunFor(Seconds(3));
  std::printf("migration complete: %s\n",
              patient.MigrationDone(mig) ? "yes" : "no");
  ok = ok && patient.MigrationDone(mig);

  // Tokyo now serves the history and accepts new readings; Paris will no
  // longer serve this patient (lock bit cleared).
  auto last = patient.SubmitLocal(system.PrimaryOf(2)->id(), "LAST hr");
  system.sim().RunFor(Millis(500));
  std::printf("last heart rate, served from Tokyo: %s (expected 81)\n",
              patient.ResultOf(last).c_str());
  ok = ok && patient.ResultOf(last) == "81";
  patient.SubmitLocal(system.PrimaryOf(2)->id(), "VITAL hr 78");
  system.sim().RunFor(Millis(500));
  auto count = patient.SubmitLocal(system.PrimaryOf(2)->id(), "COUNT hr");
  system.sim().RunFor(Millis(500));
  std::printf("total readings after landing: %s (expected 4)\n",
              patient.ResultOf(count).c_str());
  ok = ok && patient.ResultOf(count) == "4";

  bool paris_locked = system.Member(0, 0)->locks().IsLocked(patient.id());
  std::printf("Paris still serves the patient: %s (expected: no)\n",
              paris_locked ? "yes" : "no");
  ok = ok && !paris_locked;

  // Regional meta-data stayed regional: EU zones and APAC zones both know
  // this patient's move (they were the two clusters involved).
  std::printf("homes recorded per zone (expected 2 everywhere): ");
  for (ZoneId z = 0; z < 4; ++z) {
    const ZoneId home = system.Member(z, 0)->metadata().HomeOf(patient.id());
    std::printf("z%u->%d ", z, static_cast<int>(home));
    ok = ok && home == 2;
  }
  std::printf("\n");
  if (!ok) std::printf("FAILED: a line above is not what it expects\n");
  return ok ? 0 : 1;
}
