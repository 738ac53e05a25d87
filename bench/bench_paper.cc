// The paper's evaluation (Section VII, Figures 4-8) plus the design
// ablations, as one table of cells.
//
//   bench_paper <view> [--benchmark_* flags] [--seed=... experiment flags]
//
// Each figure is a named view over the table (fig4 ... fig8, ablation): the
// view registers its cells under their benchmark names and exports them
// (ZIZIPHUS_BENCH_JSON) as "bench":"<view>". Without a view the binary
// prints every view with its cell count and exits with status 2.
//
// Cells that describe the same run are run once per process: the memo is
// keyed by the cell after Normalised(), which drops what a run ignores.
// Tracing stays in the key because a traced result carries trace_* fields.

#include <compare>
#include <cstdio>
#include <map>
#include <sstream>

#include "app/experiment_config.h"
#include "benchmark/benchmark.h"

namespace ziziphus::bench {
using namespace app;  // bench helpers live in app/experiment_config.h
namespace {

/// Ablation knobs; "on" is DefaultNodeConfig(), "off" flips one choice.
const char* const kKnobs[] = {"prepare-skip", "stable-leader",
                              "threshold-sigs", "global-batching"};

struct Cell {
  Protocol protocol = Protocol::kZiziphus;
  std::size_t zones = 3;     // per cluster when clusters > 0
  std::size_t f = 1;         // per-zone fault tolerance (3f+1 nodes)
  std::size_t clusters = 0;  // 0: paper placement; n: Fig. 8's n clusters
  std::size_t clients = 0;   // per zone, resolved for the sweep mode
  int global_pct = 10;
  int cross_pct = 0;         // share of global ops that cross clusters
  std::size_t crashed = 0;   // crashed backups per zone
  int knob = -1;             // kKnobs index, -1: none
  bool knob_on = true;
  bool trace = false;
  auto operator<=>(const Cell&) const = default;
};

enum ViewId { kFig4, kFig5, kFig6, kFig7, kFig8, kAblation };

/// A view's name picks it on the command line; its shape is what the
/// paper's figure shows and what this reproduction should show.
struct View {
  const char* name;
  const char* shape;
};

const View kViews[] = {
    {"fig4",
     "Fig. 4: throughput vs clients/zone for 3/5/7 zones at 10/30/50% "
     "global. Ziziphus and two-level PBFT far above Steward and flat PBFT; "
     "flat PBFT collapses as zones are added; less global => more "
     "throughput. Ziziphus leads at 3 and 7 zones; at 5 zones two-level "
     "PBFT is ahead (EXPERIMENTS.md Fig. 4 deviations)."},
    {"fig5",
     "Fig. 5: latency of the Fig. 4 runs at 200 clients/zone (400 full), "
     "traced for the per-phase decomposition. Ziziphus below Steward and "
     "flat PBFT everywhere and below two-level PBFT at 3 and 7 zones (not "
     "at 5, EXPERIMENTS.md Fig. 5 deviation); Steward pays geo-scale "
     "latency on every transaction; flat PBFT latency grows with zones."},
    {"fig6",
     "Fig. 6: 200 clients/zone (400 full), 10% global, healthy vs one "
     "crashed backup per zone. The protocol ordering holds; flat PBFT "
     "loses most, its quorums must now reach across every region."},
    {"fig7",
     "Fig. 7: 3 zones, f = 1..5 (4..16 nodes/zone), 150 clients/zone "
     "(400 full), 10% global, plus Ziziphus at 30/50%. Everyone slows with "
     "zone size (local PBFT is quadratic); Ziziphus's latency grows least, "
     "its global phase is independent of zone size; flat PBFT degrades "
     "most."},
    {"fig8",
     "Fig. 8: Ziziphus on 1..10 clusters of 3 zones x 4 nodes, 60 "
     "clients/zone (150 full), {10,30,50}% global with {10,50}% of those "
     "cross-cluster. Throughput grows about linearly with clusters; latency "
     "steps up from one to two clusters, then stays flat; .1G(.1C) is "
     "best."},
    {"ablation",
     "Ablations (not in the paper): Ziziphus, 3 zones, 10% global, 200 "
     "clients/zone (400 full), each knob on (the default) vs off: "
     "prepare-skip (Sec. IV-B1 endorsements skip PBFT's prepare), "
     "stable-leader (no propose/promise per instance), threshold-sigs "
     "(one verify per certificate, not 2f+1), global-batching (one "
     "data-sync instance per migration when off)."},
};

struct Row {
  ViewId view;
  std::string name;  // registered benchmark name
  Cell cell;
};

/// Steward runs every transaction globally and flat PBFT runs one zone,
/// so neither depends on the global fraction.
bool IgnoresGlobal(Protocol p) {
  return p == Protocol::kSteward || p == Protocol::kFlatPbft;
}

template <class... Parts>
std::string Cat(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

/// Every cell of every view, in registration (= export) order.
std::vector<Row> Table() {
  const Protocol kAll[] = {Protocol::kZiziphus, Protocol::kTwoLevelPbft,
                           Protocol::kSteward, Protocol::kFlatPbft};
  const std::size_t k200 = ClientsPerZone(400, 200);
  std::vector<Row> t;
  const std::vector<std::size_t> fig4_clients =
      FullSweep() ? std::vector<std::size_t>{10, 50, 100, 200, 300, 400}
                  : std::vector<std::size_t>{50, 200, 400};
  for (std::size_t z : {3, 5, 7}) {
    for (int g : {10, 30, 50}) {
      for (Protocol p : kAll) {
        for (std::size_t c : fig4_clients) {
          t.push_back({kFig4,
                       Cat("Fig4/", ProtocolName(p), "/zones:", z,
                           "/global%:", g, "/clients:", c),
                       {.protocol = p, .zones = z,
                        .clients = ClientsPerZone(c, c), .global_pct = g}});
        }
      }
    }
  }
  for (std::size_t z : {3, 5, 7}) {
    for (int g : {10, 30, 50}) {
      for (Protocol p : kAll) {
        if (g != 10 && IgnoresGlobal(p)) continue;
        t.push_back({kFig5,
                     Cat("Fig5/", ProtocolName(p), "/zones:", z, "/global%:",
                         g),
                     {.protocol = p, .zones = z, .clients = k200,
                      .global_pct = g, .trace = true}});
      }
    }
  }
  for (std::size_t z : {3, 5, 7}) {
    for (Protocol p : kAll) {
      for (std::size_t crashed : {1, 0}) {
        t.push_back({kFig6,
                     Cat("Fig6/", ProtocolName(p), "/zones:", z,
                         crashed ? "/backup-crashed" : "/healthy"),
                     {.protocol = p, .zones = z, .clients = k200,
                      .crashed = crashed}});
      }
    }
  }
  const std::size_t fig7_clients = ClientsPerZone(400, 150);
  for (std::size_t f = 1; f <= 5; ++f) {
    for (Protocol p : kAll) {
      t.push_back({kFig7,
                   Cat("Fig7/", ProtocolName(p), "/f:", f, "/zone-size:",
                       3 * f + 1),
                   {.protocol = p, .f = f, .clients = fig7_clients}});
    }
  }
  for (int g : {30, 50}) {
    for (std::size_t f = 1; f <= 5; f += 2) {
      t.push_back({kFig7, Cat("Fig7/ziziphus/f:", f, "/global%:", g),
                   {.f = f, .clients = fig7_clients, .global_pct = g}});
    }
  }
  const std::vector<std::size_t> fig8_clusters =
      FullSweep() ? std::vector<std::size_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
                  : std::vector<std::size_t>{1, 2, 4, 6, 8, 10};
  for (int g : {10, 30, 50}) {
    for (int x : {10, 50}) {
      for (std::size_t n : fig8_clusters) {
        t.push_back({kFig8,
                     Cat("Fig8/ziziphus/.", g / 10, "G(.", x / 10,
                         "C)/clusters:", n),
                     {.clusters = n, .clients = ClientsPerZone(150, 60),
                      .global_pct = g, .cross_pct = x}});
      }
    }
  }
  for (int k = 0; k < 4; ++k) {
    for (bool on : {true, false}) {
      t.push_back({kAblation,
                   Cat("Ablation/", kKnobs[k], on ? "/on" : "/off"),
                   {.clients = k200, .knob = k, .knob_on = on}});
    }
  }
  return t;
}

/// The memo key: two cells with one key give the same result. Each rule is
/// pinned by a BenchMemoTest (tests/app_test.cc).
Cell Normalised(Cell c) {
  if (IgnoresGlobal(c.protocol)) c.global_pct = 0;
  if (c.clusters <= 1) c.cross_pct = 0;  // nothing to cross
  if (c.knob_on) c.knob = -1;            // "on" is the default config
  return c;
}

DeploymentSpec Deployment(const Cell& c) {
  return c.clusters > 0 ? ClusteredDeployment(c.clusters, c.zones, c.f)
                        : PaperDeployment(c.zones, c.f);
}

WorkloadSpec Workload(const Cell& c) {
  WorkloadSpec wl = BaseWorkload();
  wl.clients_per_zone = c.clients;
  wl.mix.global_fraction = c.global_pct / 100.0;
  wl.mix.cross_cluster_fraction = c.cross_pct / 100.0;
  return wl;
}

ExperimentResult Run(const Cell& c) {
  FaultSpec faults;
  faults.crashed_backups_per_zone = c.crashed;
  ObsSpec obs;
  obs.trace = c.trace;
  if (c.knob_on) {
    return RunExperiment(c.protocol, Deployment(c), Workload(c), faults, obs);
  }
  core::NodeConfig cfg = DefaultNodeConfig();
  switch (c.knob) {
    case 0:
      cfg.sync.always_full_prepare = true;
      break;
    case 1:
      cfg.sync.stable_leader = false;
      break;
    case 2:
      cfg.costs.crypto.threshold_signatures = false;
      break;
    case 3:
      cfg.sync.batch_max = 1;
      break;
  }
  return RunExperimentWithConfig(c.protocol, Deployment(c), Workload(c), cfg,
                                 faults, obs);
}

/// The export's cell name, derived from what actually ran.
std::string ExportName(const Cell& c) {
  if (c.knob >= 0) return Cat(kKnobs[c.knob], c.knob_on ? "/on" : "/off");
  std::string name =
      Cat(ProtocolName(c.protocol), "/zones:", Deployment(c).zones.size(),
          "/f:", c.f, "/clients:", c.clients,
          "/global:", c.global_pct);
  if (c.cross_pct > 0) name += Cat("/cross:", c.cross_pct);
  if (c.clusters > 1) name += Cat("/clusters:", c.clusters);
  if (c.crashed > 0) name += Cat("/crashed:", c.crashed);
  return name;
}

void Register(const Row& row) {
  benchmark::RegisterBenchmark(
      row.name.c_str(),
      [cell = row.cell](benchmark::State& state) {
        static std::map<Cell, ExperimentResult> memo;
        auto [it, fresh] = memo.try_emplace(Normalised(cell));
        for (auto _ : state) {
          if (fresh) it->second = Run(cell);
        }
        ReportResult(state, ExportName(cell), it->second);
      })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

int Usage(const std::vector<Row>& table) {
  std::fprintf(stderr, "usage: bench_paper <view> [--benchmark_* flags]\n");
  for (int v = kFig4; v <= kAblation; ++v) {
    std::size_t cells = 0;
    for (const Row& row : table) cells += row.view == v;
    std::fprintf(stderr, "  %-9s %3zu cells  %s\n", kViews[v].name, cells,
                 kViews[v].shape);
  }
  return 2;
}

int Main(int argc, char** argv) {
  BenchConfig().ConsumeFlags(&argc, argv);
  benchmark::Initialize(&argc, argv);
  const std::vector<Row> table = Table();
  int view = -1;
  for (int v = kFig4; v <= kAblation; ++v) {
    if (argc == 2 && kViews[v].name == std::string(argv[1])) view = v;
  }
  if (view < 0) return Usage(table);
  benchmark::AddCustomContext("view", kViews[view].name);
  benchmark::AddCustomContext("shape", kViews[view].shape);
  for (const Row& row : table) {
    if (row.view == view) Register(row);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteBenchJson(kViews[view].name);
  return 0;
}

}  // namespace
}  // namespace ziziphus::bench

int main(int argc, char** argv) { return ziziphus::bench::Main(argc, argv); }
