#include "app/experiment.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <sstream>

#include "app/bank.h"
#include "app/client.h"
#include "app/experiment_config.h"
#include "baselines/pbft_process.h"
#include "baselines/two_level.h"
#include "common/logging.h"

namespace ziziphus::app {

const char* ProtocolName(Protocol p) {
  switch (p) {
    case Protocol::kZiziphus:
      return "ziziphus";
    case Protocol::kFlatPbft:
      return "flat-pbft";
    case Protocol::kTwoLevelPbft:
      return "two-level-pbft";
    case Protocol::kSteward:
      return "steward";
  }
  return "?";
}

std::size_t DeploymentSpec::num_clusters() const {
  std::set<ClusterId> cs;
  for (const auto& z : zones) cs.insert(z.cluster);
  return cs.size();
}

DeploymentSpec PaperDeployment(std::size_t num_zones, std::size_t f) {
  using namespace ziziphus::sim;
  DeploymentSpec dep;
  dep.f = f;
  std::vector<RegionId> regions;
  if (num_zones == 3) {
    regions = {kCalifornia, kOhio, kQuebec};
  } else if (num_zones == 5) {
    regions = {kCalifornia, kSydney, kParis, kLondon, kTokyo};
  } else if (num_zones == 7) {
    regions = {kCalifornia, kOhio,   kQuebec, kSydney,
               kParis,      kLondon, kTokyo};
  } else {
    for (std::size_t i = 0; i < num_zones; ++i) {
      regions.push_back(static_cast<RegionId>(i % kNumPaperRegions));
    }
  }
  for (RegionId r : regions) dep.zones.push_back(ZonePlacement{r, 0});
  return dep;
}

DeploymentSpec ClusteredDeployment(std::size_t clusters,
                                   std::size_t zones_per_cluster,
                                   std::size_t f) {
  using namespace ziziphus::sim;
  // "zone clusters are placed in CA, SYD, PAR, LDN and TY data centers (at
  // most 2 clusters in each)" — Section VII-D.
  static const RegionId kClusterRegions[] = {kCalifornia, kSydney, kParis,
                                             kLondon, kTokyo};
  DeploymentSpec dep;
  dep.f = f;
  for (std::size_t c = 0; c < clusters; ++c) {
    RegionId region = kClusterRegions[c % 5];
    for (std::size_t z = 0; z < zones_per_cluster; ++z) {
      dep.zones.push_back(ZonePlacement{region, static_cast<ClusterId>(c)});
    }
  }
  return dep;
}

core::NodeConfig DefaultNodeConfig() {
  core::NodeConfig cfg;
  cfg.pbft.checkpoint_interval = 256;
  cfg.pbft.request_timeout_us = Seconds(3);
  cfg.sync.stable_leader = true;
  cfg.sync.retry_timeout_us = Seconds(3);
  cfg.sync.response_query_timeout_us = Seconds(2);
  // Threshold signatures keep certificate verification constant-cost
  // (Section IV-B1 cites Shoup-style threshold schemes).
  cfg.costs.crypto.threshold_signatures = true;
  return cfg;
}

std::string ExperimentResult::ToString() const {
  std::ostringstream os;
  os << ProtocolName(protocol) << ": " << throughput_tps / 1000.0
     << " ktps, avg " << avg_latency_ms << " ms (p50 " << p50_ms << ", p99 "
     << p99_ms << "), local " << local_ops << " ops @" << local_avg_ms
     << " ms, global " << global_ops << " ops @" << global_avg_ms
     << " ms, timeouts " << timeouts;
  if (read_ops > 0) {
    os << ", reads " << read_ops << " ops @" << read_avg_ms << " ms ("
       << reads_served << " served, " << read_fallbacks << " fallbacks, "
       << reads_redirects << " redirects, " << reads_cert_rejected
       << " rejected)";
  }
  if (traces_completed > 0) {
    os << "; traced " << traces_completed << " ops: " << trace_total_ms
       << " ms = wan " << trace_wan_ms << " + lan " << trace_lan_ms
       << " + queue " << trace_queue_ms << " + crypto " << trace_crypto_ms;
    for (const auto& [label, ms] : trace_phase_ms) {
      os << " + " << label << " " << ms;
    }
  }
  return os.str();
}

namespace {

storage::KvStore::Map SeedBalance(ClientId client) {
  return {{BankStateMachine::AccountKey(client), "1000"}};
}

std::unique_ptr<core::ZoneStateMachine> NewBank(ZoneId) {
  return std::make_unique<BankStateMachine>();
}

/// Simulation::Register hands out sequential ids, so given the id the next
/// registration will get, the whole client id layout is known up front.
std::vector<std::vector<ClientId>> PredictClientIds(std::size_t next_id,
                                                    std::size_t zones,
                                                    std::size_t per_zone) {
  std::vector<std::vector<ClientId>> out(zones);
  for (auto& zone_ids : out) {
    zone_ids.reserve(per_zone);
    for (std::size_t i = 0; i < per_zone; ++i) {
      zone_ids.push_back(static_cast<ClientId>(next_id++));
    }
  }
  return out;
}

std::vector<ClientId> PeersExcluding(const std::vector<ClientId>& ids,
                                     ClientId self) {
  std::vector<ClientId> peers;
  peers.reserve(ids.size() - 1);
  for (ClientId p : ids) {
    if (p != self) peers.push_back(p);
  }
  return peers;
}

ExperimentResult Collect(
    Protocol protocol,
    const std::vector<std::unique_ptr<MobileClient>>& clients,
    Duration measure, std::uint64_t messages) {
  ExperimentResult out;
  out.protocol = protocol;
  Histogram all, local, global, reads;
  for (const auto& c : clients) {
    const ClientStats& s = c->stats();
    all.Merge(s.local_latency_us);
    all.Merge(s.global_latency_us);
    all.Merge(s.read_latency_us);
    local.Merge(s.local_latency_us);
    global.Merge(s.global_latency_us);
    reads.Merge(s.read_latency_us);
    out.local_ops += s.local_completed;
    out.global_ops += s.global_completed;
    out.read_ops += s.reads_completed;
    out.read_fallbacks += s.read_fallbacks;
    out.timeouts += s.timeouts;
  }
  double secs = ToSeconds(measure);
  out.throughput_tps =
      secs > 0 ? (out.local_ops + out.global_ops + out.read_ops) / secs : 0.0;
  out.avg_latency_ms = all.Mean() / 1000.0;
  out.p50_ms = all.Quantile(0.5) / 1000.0;
  out.p99_ms = all.Quantile(0.99) / 1000.0;
  out.local_avg_ms = local.Mean() / 1000.0;
  out.global_avg_ms = global.Mean() / 1000.0;
  out.read_avg_ms = reads.Mean() / 1000.0;
  out.messages_sent = messages;
  return out;
}

/// reads.* counter totals at one instant; the measurement window reports
/// the delta between two snapshots (warmup traffic excluded).
struct ReadCounterSnap {
  std::uint64_t served = 0;
  std::uint64_t verified = 0;
  std::uint64_t rejected = 0;
  std::uint64_t redirects = 0;
  std::uint64_t violations = 0;

  static ReadCounterSnap Take(const CounterSet& c) {
    ReadCounterSnap s;
    s.served = c.Get(obs::CounterId::kReadsServed);
    s.verified = c.Get(obs::CounterId::kReadsCertVerified);
    s.rejected = c.Get(obs::CounterId::kReadsCertRejected);
    s.redirects = c.Get(obs::CounterId::kReadsRedirects);
    s.violations = c.Get(obs::CounterId::kReadsSessionViolationsDetected);
    return s;
  }
  void DeltaInto(const CounterSet& c, ExperimentResult* r) const {
    ReadCounterSnap now = Take(c);
    r->reads_served = now.served - served;
    r->reads_cert_verified = now.verified - verified;
    r->reads_cert_rejected = now.rejected - rejected;
    r->reads_redirects = now.redirects - redirects;
    r->reads_session_violations = now.violations - violations;
  }
};

/// Fast-path counter totals at one instant; reported as the delta
/// over the measurement window, like the reads.* counters above.
struct ConsensusCounterSnap {
  std::uint64_t fast_commits = 0;
  std::uint64_t fast_fallbacks = 0;

  static ConsensusCounterSnap Take(const CounterSet& c) {
    ConsensusCounterSnap s;
    s.fast_commits = c.Get(obs::CounterId::kPbftFastCommits);
    s.fast_fallbacks = c.Get(obs::CounterId::kPbftFastFallbacks);
    return s;
  }
  void DeltaInto(const CounterSet& c, ExperimentResult* r) const {
    ConsensusCounterSnap now = Take(c);
    r->fast_commits = now.fast_commits - fast_commits;
    r->fast_fallbacks = now.fast_fallbacks - fast_fallbacks;
  }
};

/// Turns the causal tracer on at the measurement boundary. Warmup traffic
/// is never traced, so the warmup event schedule is byte-identical with
/// observability on or off.
void EnableTracing(sim::Simulation& sim, const ObsSpec& ospec) {
  if (!ospec.trace) return;
  obs::Tracer& tracer = sim.recorder().tracer();
  tracer.set_enabled(true);
  tracer.set_sample_every(ospec.sample_every == 0 ? 1 : ospec.sample_every);
}

/// Up to `per_zone` backups of every zone, never the initial primary
/// (member 0) and never more than the zone's f.
std::vector<NodeId> ZoneBackups(const core::Topology& topo,
                                std::size_t per_zone) {
  std::vector<NodeId> out;
  for (const auto& z : topo.zones()) {
    std::size_t n = std::min(per_zone, z.f);
    for (std::size_t i = 0; i < n; ++i) out.push_back(z.members[1 + i]);
  }
  return out;
}

/// What one protocol's deployment hands the shared closed-loop run.
struct ClosedLoop {
  sim::Simulation* sim = nullptr;
  /// The topology and keys the clients see.
  const core::Topology* topology = nullptr;
  const crypto::KeyRegistry* keys = nullptr;
  /// The protocol's client settings; the run fills in topology, keys, home
  /// and peers.
  MobileClient::Config client;
  /// Flat PBFT: every client's home is the single geo-spanning group
  /// (zone 0), whatever region the client sits in.
  bool single_group = false;
  /// Installs one client's starting balance wherever it is served.
  std::function<void(ClientId client, ZoneId home)> open_account;
  /// Replicas crashed once the clients have started.
  std::vector<NodeId> crash;
};

/// The closed-loop run every protocol shares: registers
/// `clients_per_zone` clients in each zone's region, opens their
/// accounts, starts them staggered, crashes the chosen replicas, then runs
/// the warmup and the measurement window and reports the window.
ExperimentResult RunClosedLoop(Protocol protocol, const DeploymentSpec& dep,
                               const WorkloadSpec& wl, const ObsSpec& ospec,
                               const ClosedLoop& loop) {
  sim::Simulation& sim = *loop.sim;
  // Client ids are assigned sequentially at registration, so the full
  // per-zone id layout is known before any client exists — each Config
  // carries its peer list from construction (no mutate-after-construct).
  std::vector<std::vector<ClientId>> per_zone_ids = PredictClientIds(
      sim.num_processes(), dep.zones.size(), wl.clients_per_zone);
  std::vector<std::unique_ptr<MobileClient>> clients;
  for (std::size_t z = 0; z < dep.zones.size(); ++z) {
    for (std::size_t i = 0; i < wl.clients_per_zone; ++i) {
      MobileClient::Config cc = loop.client;
      cc.topology = loop.topology;
      cc.keys = loop.keys;
      cc.home = loop.single_group ? 0 : static_cast<ZoneId>(z);
      cc.peers = PeersExcluding(per_zone_ids[z], per_zone_ids[z][i]);
      auto client = std::make_unique<MobileClient>(std::move(cc));
      NodeId cid = sim.Register(client.get(), dep.zones[z].region);
      ZCHECK(cid == per_zone_ids[z][i]);
      clients.push_back(std::move(client));
    }
  }
  for (std::size_t z = 0; z < dep.zones.size(); ++z) {
    for (ClientId cid : per_zone_ids[z]) {
      loop.open_account(cid, static_cast<ZoneId>(z));
    }
  }
  for (auto& c : clients) c->Start(/*delay=*/sim.rng().NextBounded(2000));
  for (NodeId id : loop.crash) sim.faults().Crash(id);

  sim.RunUntil(wl.warmup);
  for (auto& c : clients) c->ResetStats();
  EnableTracing(sim, ospec);
  std::uint64_t msgs0 = sim.counters().Get(obs::CounterId::kNetMsgsSent);
  ReadCounterSnap reads0 = ReadCounterSnap::Take(sim.counters());
  ConsensusCounterSnap cons0 = ConsensusCounterSnap::Take(sim.counters());
  sim.RunUntil(wl.warmup + wl.measure);
  std::uint64_t msgs =
      sim.counters().Get(obs::CounterId::kNetMsgsSent) - msgs0;
  ExperimentResult r = Collect(protocol, clients, wl.measure, msgs);
  reads0.DeltaInto(sim.counters(), &r);
  cons0.DeltaInto(sim.counters(), &r);
  r.events_dispatched = sim.events_dispatched();
  if (ospec.trace) FinishObservedRun(sim.recorder(), ospec, &r);
  return r;
}

ExperimentResult RunZiziphusLike(Protocol protocol,
                                 const DeploymentSpec& dep,
                                 const WorkloadSpec& wl,
                                 const FaultSpec& faults,
                                 const core::NodeConfig& cfg,
                                 const ObsSpec& ospec) {
  core::ZiziphusSystem sys(wl.seed, sim::LatencyModel::PaperGeoMatrix());
  for (const auto& z : dep.zones) {
    sys.AddZone(z.cluster, z.region, dep.f, dep.nodes_per_zone());
  }
  sys.Finalize(cfg, NewBank);

  const bool steward = protocol == Protocol::kSteward;
  ClosedLoop loop;
  loop.sim = &sys.sim();
  loop.topology = &sys.topology();
  loop.keys = &sys.keys();
  loop.client.mode =
      steward ? MobileClient::Mode::kSteward : MobileClient::Mode::kZiziphus;
  loop.client.mix = wl.mix;
  loop.client.verified_reads = wl.verified_reads;
  loop.client.causal = wl.causal;
  loop.client.stable_leader = cfg.sync.stable_leader;
  loop.client.retry_timeout = Seconds(8);
  loop.open_account = [&sys, steward](ClientId c, ZoneId home) {
    sys.BootstrapClient(c, home, SeedBalance, steward);
  };
  loop.crash = ZoneBackups(sys.topology(), faults.crashed_backups_per_zone);
  return RunClosedLoop(protocol, dep, wl, ospec, loop);
}

ExperimentResult RunTwoLevel(const DeploymentSpec& dep,
                             const WorkloadSpec& wl, const FaultSpec& faults,
                             const ObsSpec& ospec) {
  baselines::TwoLevelSystem sys(wl.seed, sim::LatencyModel::PaperGeoMatrix());
  for (const auto& z : dep.zones) {
    sys.AddZone(z.cluster, z.region, dep.f, dep.nodes_per_zone());
  }
  sys.Finalize(TwoLevelNodeConfig(), NewBank);

  ClosedLoop loop;
  loop.sim = &sys.sim();
  loop.topology = &sys.topology();
  loop.keys = &sys.keys();
  loop.client.mode = MobileClient::Mode::kTwoLevel;
  loop.client.mix = wl.mix;
  loop.client.mix.cross_cluster_fraction = 0.0;
  loop.open_account = [&sys](ClientId c, ZoneId home) {
    sys.BootstrapClient(c, home, SeedBalance);
  };
  loop.crash = ZoneBackups(sys.topology(), faults.crashed_backups_per_zone);
  return RunClosedLoop(Protocol::kTwoLevelPbft, dep, wl, ospec, loop);
}

ExperimentResult RunFlat(const DeploymentSpec& dep, const WorkloadSpec& wl,
                         const FaultSpec& faults, const ObsSpec& ospec) {
  // "PBFT runs on 4 nodes in CA and 3 nodes in other data centers": 3f
  // replicas per zone-region plus one extra in the first region, a single
  // group tolerating Z*f faults.
  sim::Simulation sim(wl.seed, sim::LatencyModel::PaperGeoMatrix());
  crypto::KeyRegistry keys(wl.seed ^ 0x5eedc0deULL);

  std::vector<std::unique_ptr<baselines::PbftReplicaProcess>> replicas;
  std::vector<NodeId> group;
  std::vector<NodeId> crash;
  for (std::size_t z = 0; z < dep.zones.size(); ++z) {
    // Up to f crashes per region, never the group's initial primary
    // (replica 0, in the first region).
    std::size_t to_crash = std::min(faults.crashed_backups_per_zone, dep.f);
    std::size_t count = 3 * dep.f + (z == 0 ? 1 : 0);
    for (std::size_t i = 0; i < count; ++i) {
      auto rep = std::make_unique<baselines::PbftReplicaProcess>();
      NodeId id = sim.Register(rep.get(), dep.zones[z].region);
      group.push_back(id);
      if (!(z == 0 && i == 0) && to_crash > 0) {
        crash.push_back(id);
        --to_crash;
      }
      replicas.push_back(std::move(rep));
    }
  }
  std::size_t flat_f = dep.zones.size() * dep.f;
  const core::NodeConfig base = DefaultNodeConfig();
  pbft::PbftConfig pcfg = base.pbft;
  pcfg.members = group;
  pcfg.f = flat_f;
  pcfg.request_timeout_us = Seconds(5);
  for (auto& rep : replicas) {
    rep->set_costs(base.costs);
    rep->Init(&keys, pcfg, std::make_unique<BankStateMachine>());
  }

  // Clients see the single geo-spanning group as one zone and issue only
  // local transfers into it.
  core::Topology flat;
  flat.AddZone(/*cluster=*/0, dep.zones[0].region, flat_f, group);
  ClosedLoop loop;
  loop.sim = &sim;
  loop.topology = &flat;
  loop.keys = &keys;
  loop.client.mix.global_fraction = 0;
  loop.single_group = true;
  // Accounts exist on every replica (fully replicated).
  loop.open_account = [&replicas](ClientId c, ZoneId) {
    for (auto& rep : replicas) {
      static_cast<BankStateMachine&>(rep->app()).OpenAccount(c, 1000);
    }
  };
  loop.crash = std::move(crash);
  return RunClosedLoop(Protocol::kFlatPbft, dep, wl, ospec, loop);
}

}  // namespace

core::NodeConfig StewardNodeConfig() {
  core::NodeConfig cfg = DefaultNodeConfig();
  cfg.lazy_sync = false;  // every transaction is already global
  return cfg;
}

baselines::TwoLevelNode::Config TwoLevelNodeConfig() {
  const core::NodeConfig base = DefaultNodeConfig();
  baselines::TwoLevelNode::Config cfg;
  cfg.pbft = base.pbft;
  cfg.policy = base.policy;
  cfg.costs = base.costs;
  // Threshold certificates are part of Ziziphus's design (Section IV-B1);
  // the two-level comparator verifies plain 2f+1 signature sets.
  cfg.costs.crypto.threshold_signatures = false;
  return cfg;
}

ExperimentResult RunExperiment(Protocol protocol, const DeploymentSpec& dep,
                               const WorkloadSpec& workload,
                               const FaultSpec& faults, const ObsSpec& obs) {
  return RunExperimentWithConfig(
      protocol, dep, workload,
      protocol == Protocol::kSteward ? StewardNodeConfig()
                                     : DefaultNodeConfig(),
      faults, obs);
}

ExperimentResult RunExperimentWithConfig(Protocol protocol,
                                         const DeploymentSpec& dep,
                                         const WorkloadSpec& workload,
                                         const core::NodeConfig& node_config,
                                         const FaultSpec& faults,
                                         const ObsSpec& obs) {
  switch (protocol) {
    case Protocol::kZiziphus:
    case Protocol::kSteward:
      return RunZiziphusLike(protocol, dep, workload, faults, node_config,
                             obs);
    case Protocol::kTwoLevelPbft:
      return RunTwoLevel(dep, workload, faults, obs);
    case Protocol::kFlatPbft:
      return RunFlat(dep, workload, faults, obs);
  }
  return {};
}

}  // namespace ziziphus::app
