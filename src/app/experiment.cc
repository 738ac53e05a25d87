#include "app/experiment.h"

#include <memory>
#include <set>
#include <sstream>

#include "app/bank.h"
#include "app/client.h"
#include "app/experiment_config.h"
#include "baselines/pbft_process.h"
#include "baselines/steward.h"
#include "baselines/two_level_system.h"
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
  cfg.pbft.batch_max = 64;
  cfg.pbft.batch_timeout_us = Millis(2);
  cfg.pbft.checkpoint_interval = 256;
  cfg.pbft.request_timeout_us = Seconds(3);
  cfg.sync.stable_leader = true;
  cfg.sync.retry_timeout_us = Seconds(3);
  cfg.sync.response_query_timeout_us = Seconds(2);
  // Threshold signatures keep certificate verification constant-cost
  // (Section IV-B1 cites Shoup-style threshold schemes).
  cfg.pbft.costs.crypto.threshold_signatures = true;
  cfg.sync.costs.crypto.threshold_signatures = true;
  cfg.migration.costs.crypto.threshold_signatures = true;
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

struct ClientPool {
  std::vector<std::unique_ptr<MobileClient>> mobile;

  void ResetStats() {
    for (auto& c : mobile) c->ResetStats();
  }
};

ExperimentResult Collect(Protocol protocol, const ClientPool& pool,
                         Duration measure, std::uint64_t messages) {
  ExperimentResult out;
  out.protocol = protocol;
  Histogram all, local, global, reads;
  for (const auto& c : pool.mobile) {
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

/// Ordering-strategy counter totals at one instant; reported as the delta
/// over the measurement window, like the reads.* counters above.
struct ConsensusCounterSnap {
  std::uint64_t fast_commits = 0;
  std::uint64_t fast_fallbacks = 0;
  std::uint64_t rotations = 0;

  static ConsensusCounterSnap Take(const CounterSet& c) {
    ConsensusCounterSnap s;
    s.fast_commits = c.Get(obs::CounterId::kPbftFastCommits);
    s.fast_fallbacks = c.Get(obs::CounterId::kPbftFastFallbacks);
    s.rotations = c.Get(obs::CounterId::kPbftRotations);
    return s;
  }
  void DeltaInto(const CounterSet& c, ExperimentResult* r) const {
    ConsensusCounterSnap now = Take(c);
    r->fast_commits = now.fast_commits - fast_commits;
    r->fast_fallbacks = now.fast_fallbacks - fast_fallbacks;
    r->rotations = now.rotations - rotations;
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

void CrashBackups(sim::Simulation& sim, const core::Topology& topo,
                  std::size_t per_zone) {
  for (const auto& z : topo.zones()) {
    // Never crash the initial primary (member 0) or more than f nodes.
    std::size_t n = std::min(per_zone, z.f);
    for (std::size_t i = 0; i < n; ++i) {
      sim.faults().Crash(z.members[1 + i]);
    }
  }
}

ExperimentResult RunZiziphusLike(Protocol protocol,
                                 const DeploymentSpec& dep,
                                 const WorkloadSpec& wl,
                                 const FaultSpec& faults,
                                 core::NodeConfig cfg,
                                 const ObsSpec& ospec) {

  core::ZiziphusSystem sys(wl.seed, sim::LatencyModel::PaperGeoMatrix());
  for (const auto& z : dep.zones) {
    sys.AddZone(z.cluster, z.region, dep.f, dep.nodes_per_zone());
  }
  sys.Finalize(cfg, [](ZoneId) { return std::make_unique<BankStateMachine>(); });

  // Client ids are assigned sequentially at registration, so the full
  // per-zone id layout is known before any client exists — each Config
  // carries its peer list from construction (no mutate-after-construct).
  std::vector<std::vector<ClientId>> per_zone_ids = PredictClientIds(
      sys.sim().num_processes(), dep.zones.size(), wl.clients_per_zone);
  ClientPool pool;
  for (std::size_t z = 0; z < dep.zones.size(); ++z) {
    for (std::size_t i = 0; i < wl.clients_per_zone; ++i) {
      MobileClient::Config cc;
      cc.mode = protocol == Protocol::kSteward ? MobileClient::Mode::kSteward
                                               : MobileClient::Mode::kZiziphus;
      cc.topology = &sys.topology();
      cc.keys = &sys.keys();
      cc.home = static_cast<ZoneId>(z);
      cc.mix = wl.mix;
      cc.verified_reads = wl.verified_reads;
      cc.causal = wl.causal;
      cc.stable_leader = cfg.sync.stable_leader;
      cc.retry_timeout = Seconds(8);
      cc.peers = PeersExcluding(per_zone_ids[z], per_zone_ids[z][i]);
      auto client = std::make_unique<MobileClient>(std::move(cc));
      NodeId cid = sys.sim().Register(client.get(), dep.zones[z].region);
      ZCHECK(cid == per_zone_ids[z][i]);
      pool.mobile.push_back(std::move(client));
    }
  }
  for (std::size_t z = 0; z < dep.zones.size(); ++z) {
    for (ClientId cid : per_zone_ids[z]) {
      sys.BootstrapClient(cid, static_cast<ZoneId>(z), SeedBalance,
                          protocol == Protocol::kSteward);
    }
  }
  // Start every client (staggered).
  for (auto& c : pool.mobile) {
    c->Start(/*delay=*/sys.sim().rng().NextBounded(2000));
  }

  CrashBackups(sys.sim(), sys.topology(), faults.crashed_backups_per_zone);

  sys.sim().RunUntil(wl.warmup);
  pool.ResetStats();
  EnableTracing(sys.sim(), ospec);
  std::uint64_t msgs0 = sys.sim().counters().Get(obs::CounterId::kNetMsgsSent);
  ReadCounterSnap reads0 = ReadCounterSnap::Take(sys.sim().counters());
  ConsensusCounterSnap cons0 = ConsensusCounterSnap::Take(sys.sim().counters());
  sys.sim().RunUntil(wl.warmup + wl.measure);
  std::uint64_t msgs =
      sys.sim().counters().Get(obs::CounterId::kNetMsgsSent) - msgs0;
  ExperimentResult r = Collect(protocol, pool, wl.measure, msgs);
  reads0.DeltaInto(sys.sim().counters(), &r);
  cons0.DeltaInto(sys.sim().counters(), &r);
  r.events_dispatched = sys.sim().events_dispatched();
  if (ospec.trace) FinishObservedRun(sys.sim().recorder(), ospec, &r);
  return r;
}

ExperimentResult RunTwoLevel(const DeploymentSpec& dep,
                             const WorkloadSpec& wl, const FaultSpec& faults,
                             const ObsSpec& ospec) {
  // Real zones plus witness zones in CA so the top level has 3F+1
  // participants (F = (Z-1)/2, matching the zone-failure tolerance of
  // Ziziphus's majority quorum).
  std::size_t z_real = dep.zones.size();
  std::size_t big_f = (z_real - 1) / 2;
  std::size_t participants = 3 * big_f + 1;
  std::size_t witnesses = participants > z_real ? participants - z_real : 0;

  baselines::TwoLevelSystem sys(wl.seed, sim::LatencyModel::PaperGeoMatrix());
  for (const auto& z : dep.zones) {
    sys.AddZone(z.cluster, z.region, dep.f, dep.nodes_per_zone());
  }
  for (std::size_t w = 0; w < witnesses; ++w) {
    sys.AddWitness(/*cluster=*/0, sim::kCalifornia);
  }

  baselines::TwoLevelNode::Config cfg;
  core::NodeConfig base = DefaultNodeConfig();
  cfg.pbft = base.pbft;
  cfg.migration = base.migration;
  cfg.policy = base.policy;
  cfg.two_level.leader_zone = 0;
  cfg.two_level.big_f = big_f;
  cfg.two_level.costs = base.sync.costs;
  // Threshold certificates are part of Ziziphus's design (Section IV-B1);
  // the two-level comparator verifies plain 2f+1 signature sets.
  cfg.two_level.costs.crypto.threshold_signatures = false;
  cfg.migration.costs.crypto.threshold_signatures = false;
  sys.Finalize(cfg, [](ZoneId) { return std::make_unique<BankStateMachine>(); });

  std::vector<std::vector<ClientId>> per_zone_ids = PredictClientIds(
      sys.sim().num_processes(), z_real, wl.clients_per_zone);
  ClientPool pool;
  for (std::size_t z = 0; z < z_real; ++z) {
    for (std::size_t i = 0; i < wl.clients_per_zone; ++i) {
      MobileClient::Config cc;
      cc.mode = MobileClient::Mode::kTwoLevel;
      cc.topology = &sys.topology();
      cc.keys = &sys.keys();
      cc.home = static_cast<ZoneId>(z);
      cc.mix = wl.mix;
      cc.mix.cross_cluster_fraction = 0.0;
      cc.tl_leader_zone = 0;
      cc.peers = PeersExcluding(per_zone_ids[z], per_zone_ids[z][i]);
      auto client = std::make_unique<MobileClient>(std::move(cc));
      NodeId cid = sys.sim().Register(client.get(), dep.zones[z].region);
      ZCHECK(cid == per_zone_ids[z][i]);
      pool.mobile.push_back(std::move(client));
    }
  }
  for (std::size_t z = 0; z < z_real; ++z) {
    for (ClientId cid : per_zone_ids[z]) {
      sys.BootstrapClient(cid, static_cast<ZoneId>(z), SeedBalance);
    }
  }
  for (auto& c : pool.mobile) {
    c->Start(sys.sim().rng().NextBounded(2000));
  }

  CrashBackups(sys.sim(), sys.topology(), faults.crashed_backups_per_zone);

  sys.sim().RunUntil(wl.warmup);
  pool.ResetStats();
  EnableTracing(sys.sim(), ospec);
  std::uint64_t msgs0 = sys.sim().counters().Get(obs::CounterId::kNetMsgsSent);
  sys.sim().RunUntil(wl.warmup + wl.measure);
  std::uint64_t msgs = sys.sim().counters().Get(obs::CounterId::kNetMsgsSent) - msgs0;
  ExperimentResult r = Collect(Protocol::kTwoLevelPbft, pool, wl.measure, msgs);
  r.events_dispatched = sys.sim().events_dispatched();
  if (ospec.trace) FinishObservedRun(sys.sim().recorder(), ospec, &r);
  return r;
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
  std::vector<std::vector<NodeId>> crash_candidates(dep.zones.size());
  for (std::size_t z = 0; z < dep.zones.size(); ++z) {
    std::size_t count = 3 * dep.f + (z == 0 ? 1 : 0);
    for (std::size_t i = 0; i < count; ++i) {
      auto rep = std::make_unique<baselines::PbftReplicaProcess>();
      NodeId id = sim.Register(rep.get(), dep.zones[z].region);
      group.push_back(id);
      if (!(z == 0 && i == 0)) crash_candidates[z].push_back(id);
      replicas.push_back(std::move(rep));
    }
  }
  std::size_t flat_f = dep.zones.size() * dep.f;
  pbft::PbftConfig pcfg = DefaultNodeConfig().pbft;
  pcfg.members = group;
  pcfg.f = flat_f;
  pcfg.request_timeout_us = Seconds(5);
  for (auto& rep : replicas) {
    rep->Init(&keys, pcfg, std::make_unique<BankStateMachine>());
  }

  // Clients see the single geo-spanning group as one zone and issue only
  // local transfers into it.
  core::Topology flat;
  flat.AddZone(/*cluster=*/0, dep.zones[0].region, flat_f, group);
  std::vector<std::vector<ClientId>> per_zone_ids = PredictClientIds(
      sim.num_processes(), dep.zones.size(), wl.clients_per_zone);
  ClientPool pool;
  for (std::size_t z = 0; z < dep.zones.size(); ++z) {
    for (std::size_t i = 0; i < wl.clients_per_zone; ++i) {
      MobileClient::Config cc;
      cc.topology = &flat;
      cc.keys = &keys;
      cc.mix.global_fraction = 0;
      cc.peers = PeersExcluding(per_zone_ids[z], per_zone_ids[z][i]);
      auto client = std::make_unique<MobileClient>(std::move(cc));
      NodeId cid = sim.Register(client.get(), dep.zones[z].region);
      ZCHECK(cid == per_zone_ids[z][i]);
      pool.mobile.push_back(std::move(client));
    }
  }
  // Accounts exist on every replica (fully replicated).
  for (auto& rep : replicas) {
    auto* bank = dynamic_cast<BankStateMachine*>(&rep->app());
    for (const auto& zone_ids : per_zone_ids) {
      for (ClientId cid : zone_ids) bank->OpenAccount(cid, 1000);
    }
  }
  for (auto& c : pool.mobile) {
    c->Start(sim.rng().NextBounded(2000));
  }

  if (faults.crashed_backups_per_zone > 0) {
    for (auto& cands : crash_candidates) {
      std::size_t n = std::min(faults.crashed_backups_per_zone, dep.f);
      for (std::size_t i = 0; i < n && i < cands.size(); ++i) {
        sim.faults().Crash(cands[i]);
      }
    }
  }

  sim.RunUntil(wl.warmup);
  pool.ResetStats();
  EnableTracing(sim, ospec);
  std::uint64_t msgs0 = sim.counters().Get(obs::CounterId::kNetMsgsSent);
  sim.RunUntil(wl.warmup + wl.measure);
  std::uint64_t msgs = sim.counters().Get(obs::CounterId::kNetMsgsSent) - msgs0;
  ExperimentResult r = Collect(Protocol::kFlatPbft, pool, wl.measure, msgs);
  r.events_dispatched = sim.events_dispatched();
  if (ospec.trace) FinishObservedRun(sim.recorder(), ospec, &r);
  return r;
}

}  // namespace

ExperimentResult RunExperiment(Protocol protocol, const DeploymentSpec& dep,
                               const WorkloadSpec& workload,
                               const FaultSpec& faults, const ObsSpec& obs) {
  core::NodeConfig cfg = DefaultNodeConfig();
  if (protocol == Protocol::kSteward) {
    cfg.lazy_sync = false;  // every transaction is already global
  }
  return RunExperimentWithConfig(protocol, dep, workload, cfg, faults, obs);
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
