#include <string>
#include <vector>

#include "app/bank.h"
#include "app/experiment.h"
#include "app/experiment_config.h"
#include "app/health.h"
#include "gtest/gtest.h"

namespace ziziphus::app {
namespace {

pbft::Operation Op(ClientId c, RequestTimestamp ts, const std::string& cmd) {
  pbft::Operation op;
  op.client = c;
  op.timestamp = ts;
  op.command = cmd;
  return op;
}

TEST(BankTest, OpenDepositBalance) {
  BankStateMachine bank;
  EXPECT_EQ(bank.Apply(Op(1, 1, "OPEN 100")), "ok");
  EXPECT_EQ(bank.Apply(Op(1, 2, "DEP 50")), "ok");
  EXPECT_EQ(bank.Apply(Op(1, 3, "BAL")), "150");
  EXPECT_EQ(bank.BalanceOf(1), 150);
}

TEST(BankTest, TransferMovesMoney) {
  BankStateMachine bank;
  bank.OpenAccount(1, 100);
  bank.OpenAccount(2, 10);
  EXPECT_EQ(bank.Apply(Op(1, 1, "XFER 2 30")), "ok");
  EXPECT_EQ(bank.BalanceOf(1), 70);
  EXPECT_EQ(bank.BalanceOf(2), 40);
  EXPECT_EQ(bank.TotalBalance(), 110);
}

TEST(BankTest, TransferRejectsInsufficientFunds) {
  BankStateMachine bank;
  bank.OpenAccount(1, 10);
  bank.OpenAccount(2, 0);
  EXPECT_EQ(bank.Apply(Op(1, 1, "XFER 2 30")), "err:funds");
  EXPECT_EQ(bank.BalanceOf(1), 10);
}

TEST(BankTest, MissingAccountsRejected) {
  BankStateMachine bank;
  EXPECT_EQ(bank.Apply(Op(1, 1, "DEP 5")), "err:noacct");
  EXPECT_EQ(bank.Apply(Op(1, 2, "XFER 2 5")), "err:noacct");
  EXPECT_EQ(bank.Apply(Op(1, 3, "BAL")), "err:noacct");
}

TEST(BankTest, MalformedCommandsRejected) {
  BankStateMachine bank;
  EXPECT_EQ(bank.Apply(Op(1, 1, "")), "err:empty");
  EXPECT_EQ(bank.Apply(Op(1, 2, "NOPE")), "err:verb");
  EXPECT_EQ(bank.Apply(Op(1, 3, "DEP abc")), "err:amount");
  EXPECT_EQ(bank.Apply(Op(1, 4, "DEP -5")), "err:amount");
  EXPECT_EQ(bank.Apply(Op(1, 5, "XFER x y")), "err:args");
}

TEST(BankTest, ClientRecordsRoundtrip) {
  BankStateMachine a, b;
  a.OpenAccount(7, 420);
  auto records = a.ClientRecords(7);
  ASSERT_EQ(records.size(), 1u);
  b.InstallClientRecords(7, records);
  EXPECT_EQ(b.BalanceOf(7), 420);
  b.EvictClientRecords(7);
  EXPECT_FALSE(b.HasAccount(7));
}

TEST(BankTest, SnapshotRestoreDigest) {
  BankStateMachine a, b;
  a.OpenAccount(1, 5);
  a.OpenAccount(2, 10);
  b.Restore(a.Snapshot());
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
  EXPECT_EQ(b.TotalBalance(), 15);
}

TEST(HealthTest, VitalsRecorded) {
  HealthStateMachine h;
  EXPECT_EQ(h.Apply(Op(3, 1, "VITAL hr 72")), "ok");
  EXPECT_EQ(h.Apply(Op(3, 2, "VITAL hr 75")), "ok");
  EXPECT_EQ(h.Apply(Op(3, 3, "COUNT hr")), "2");
  EXPECT_EQ(h.Apply(Op(3, 4, "LAST hr")), "75");
  EXPECT_EQ(h.Apply(Op(3, 5, "LAST bp")), "none");
  EXPECT_EQ(h.Apply(Op(3, 6, "bogus")), "err:verb");
}

TEST(HealthTest, RecordsArePerPatient) {
  HealthStateMachine h;
  h.Apply(Op(1, 1, "VITAL hr 70"));
  h.Apply(Op(2, 1, "VITAL hr 90"));
  auto r1 = h.ClientRecords(1);
  auto r2 = h.ClientRecords(2);
  EXPECT_EQ(r1.size(), 2u);  // count + last
  EXPECT_EQ(r2.size(), 2u);
  EXPECT_TRUE(r1.begin()->first.rfind("pt/1/", 0) == 0);

  HealthStateMachine other;
  other.InstallClientRecords(1, r1);
  EXPECT_EQ(other.Apply(Op(1, 2, "LAST hr")), "70");
}

TEST(DeploymentTest, PaperPlacements) {
  auto d3 = PaperDeployment(3);
  ASSERT_EQ(d3.zones.size(), 3u);
  EXPECT_EQ(d3.zones[0].region, sim::kCalifornia);
  EXPECT_EQ(d3.zones[2].region, sim::kQuebec);
  EXPECT_EQ(d3.num_clusters(), 1u);
  EXPECT_EQ(d3.nodes_per_zone(), 4u);

  auto d7 = PaperDeployment(7);
  EXPECT_EQ(d7.zones.size(), 7u);

  auto dc = ClusteredDeployment(4, 3);
  EXPECT_EQ(dc.zones.size(), 12u);
  EXPECT_EQ(dc.num_clusters(), 4u);
}

TEST(ExperimentSmokeTest, ZiziphusTinyRun) {
  WorkloadSpec wl;
  wl.clients_per_zone = 5;
  wl.warmup = Millis(400);
  wl.measure = Millis(800);
  auto r = RunExperiment(Protocol::kZiziphus, PaperDeployment(3), wl);
  EXPECT_GT(r.local_ops + r.global_ops, 20u) << r.ToString();
  EXPECT_GT(r.throughput_tps, 0.0);
  EXPECT_GT(r.avg_latency_ms, 0.0);
}

TEST(ExperimentSmokeTest, FlatPbftTinyRun) {
  WorkloadSpec wl;
  wl.clients_per_zone = 5;
  wl.warmup = Millis(400);
  wl.measure = Millis(800);
  auto r = RunExperiment(Protocol::kFlatPbft, PaperDeployment(3), wl);
  EXPECT_GT(r.local_ops, 10u) << r.ToString();
}

TEST(ExperimentSmokeTest, StewardTinyRun) {
  WorkloadSpec wl;
  wl.clients_per_zone = 5;
  wl.warmup = Millis(400);
  wl.measure = Millis(800);
  auto r = RunExperiment(Protocol::kSteward, PaperDeployment(3), wl);
  EXPECT_GT(r.global_ops, 5u) << r.ToString();
  EXPECT_EQ(r.local_ops, 0u);
}

TEST(ExperimentSmokeTest, TwoLevelTinyRun) {
  WorkloadSpec wl;
  wl.clients_per_zone = 5;
  wl.warmup = Millis(400);
  wl.measure = Millis(800);
  auto r = RunExperiment(Protocol::kTwoLevelPbft, PaperDeployment(3), wl);
  EXPECT_GT(r.local_ops + r.global_ops, 10u) << r.ToString();
}

TEST(ExperimentSmokeTest, ClusteredZiziphusRun) {
  WorkloadSpec wl;
  wl.clients_per_zone = 4;
  wl.warmup = Millis(400);
  wl.measure = Millis(800);
  wl.mix.global_fraction = 0.3;
  wl.mix.cross_cluster_fraction = 0.5;
  auto r = RunExperiment(Protocol::kZiziphus, ClusteredDeployment(2), wl);
  EXPECT_GT(r.local_ops + r.global_ops, 10u) << r.ToString();
}

/// argv-style view over `args` (argv[0] is the program name).
std::vector<char*> Argv(std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return argv;
}

TEST(ExperimentConfigFlagsTest, FromFlagsAppliesKnownFlags) {
  std::vector<std::string> args = {"cli", "--protocol=steward", "--zones=5",
                                   "--global=0.3", "--seed=9", "--trace"};
  std::vector<char*> argv = Argv(args);
  ExperimentConfig cfg =
      ExperimentConfig::FromFlags(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(cfg.protocol, Protocol::kSteward);
  EXPECT_EQ(cfg.zones, 5u);
  EXPECT_DOUBLE_EQ(cfg.workload.mix.global_fraction, 0.3);
  EXPECT_EQ(cfg.workload.seed, 9u);
  EXPECT_TRUE(cfg.obs.trace);
}

TEST(ExperimentConfigFlagsTest, FromFlagsRejectsUnknownFlags) {
  for (std::string bad : {"--zone=50", "--queue=heap"}) {
    std::vector<std::string> args = {"cli", "--zones=3", bad};
    std::vector<char*> argv = Argv(args);
    EXPECT_EXIT(ExperimentConfig::FromFlags(static_cast<int>(argv.size()),
                                            argv.data()),
                ::testing::ExitedWithCode(2), "unknown flag: " + bad);
  }
}

TEST(ExperimentConfigFlagsTest, ConsumeFlagsPassesUnknownFlagsThrough) {
  std::vector<std::string> args = {"bench", "--seed=3",
                                   "--benchmark_filter=x"};
  std::vector<char*> argv = Argv(args);
  int argc = static_cast<int>(argv.size());
  ExperimentConfig cfg;
  cfg.ConsumeFlags(&argc, argv.data());
  EXPECT_EQ(cfg.workload.seed, 3u);
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], "--benchmark_filter=x");
}

}  // namespace
}  // namespace ziziphus::app
