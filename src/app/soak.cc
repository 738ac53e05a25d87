#include "app/soak.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "app/bank.h"
#include "app/harness.h"
#include "core/system.h"
#include "sim/latency_model.h"

namespace ziziphus::app {

namespace {

/// Samples fleet-wide memory footprints on a fixed cadence and publishes
/// the running totals as retention.* gauges.
class FootprintSampler : public sim::Process {
 public:
  FootprintSampler(core::ZiziphusSystem* sys, Duration period,
                   SimTime stop_at, std::vector<SoakMemSample>* out)
      : sys_(sys), period_(period), stop_at_(stop_at), out_(out) {}

  void Kick() { SetTimer(period_, 1); }

 protected:
  void OnMessage(const sim::MessagePtr&) override {}

  void OnTimer(std::uint64_t) override {
    SoakMemSample s;
    s.at = Now();
    for (const auto& node : sys_->nodes()) {
      core::ZiziphusNode::MemoryFootprint f = node->Footprint();
      s.live_bytes += f.pbft_bytes + f.sync_bytes;
      s.app_bytes += f.app_bytes;
      s.commit_log_bytes += f.commit_log_bytes;
      s.wal_entries += f.wal_entries;
      s.prepared_proofs += f.prepared_proofs;
      s.reply_cache_entries += f.reply_cache_entries;
      s.sync_requests += f.sync_requests;
    }
    obs::Recorder& rec = sys_->sim().recorder();
    rec.SetGauge(obs::GaugeId::kRetentionLiveBytes, s.live_bytes);
    rec.SetGauge(obs::GaugeId::kRetentionCommitLogBytes, s.commit_log_bytes);
    rec.SetGauge(obs::GaugeId::kRetentionWalEntries, s.wal_entries);
    rec.SetGauge(obs::GaugeId::kRetentionPreparedProofs, s.prepared_proofs);
    rec.SetGauge(obs::GaugeId::kRetentionReplyCacheEntries,
                 s.reply_cache_entries);
    rec.SetGauge(obs::GaugeId::kRetentionSyncRequests, s.sync_requests);
    out_->push_back(s);
    if (Now() < stop_at_) SetTimer(period_, 1);
  }

 private:
  core::ZiziphusSystem* sys_;
  Duration period_;
  SimTime stop_at_;
  std::vector<SoakMemSample>* out_;
};

}  // namespace

double SoakReport::PlateauRatio() const {
  if (samples.size() < 4) return 1.0;
  std::size_t mid = samples.size() / 2;
  std::uint64_t first = 0, second = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    (i < mid ? first : second) =
        std::max(i < mid ? first : second, samples[i].live_bytes);
  }
  if (first == 0) return 1.0;
  return static_cast<double>(second) / static_cast<double>(first);
}

std::string SoakReport::Summary() const {
  std::ostringstream os;
  os << "local " << local_completed << ", global " << global_completed
     << ", " << violations.size() << " violation(s), "
     << (drained ? "drained" : "NOT drained") << ", samples "
     << samples.size() << ", high-water " << high_water_live_bytes
     << "B, final " << final_live_bytes << "B, plateau "
     << PlateauRatio() << ", t=" << end_time / 1000 << "ms";
  for (const auto& v : violations) {
    os << "\n  [" << v.invariant << "] " << v.detail;
  }
  return os.str();
}

SoakReport RunZiziphusSoak(const SoakOptions& opt) {
  SoakReport report;
  core::ZiziphusSystem sys(opt.seed, sim::LatencyModel::PaperGeoMatrix());
  const std::size_t n_per_zone = 3 * opt.f + 1;
  for (std::size_t z = 0; z < opt.zones; ++z) {
    sys.AddZone(0, static_cast<RegionId>(z % 7), opt.f, n_per_zone);
  }

  core::NodeConfig cfg;
  cfg.pbft.request_timeout_us = Millis(400);
  cfg.pbft.checkpoint_interval = opt.checkpoint_interval;
  cfg.pbft.trim_at_checkpoint = opt.trim_at_checkpoint;
  cfg.pbft.delta_state_transfer = opt.delta_state_transfer;
  cfg.sync.compact_decided = opt.compact_sync;
  cfg.sync.decided_keep_window = opt.sync_keep_window;
  cfg.sync.retry_timeout_us = Millis(1500);
  cfg.sync.response_query_timeout_us = Millis(800);
  cfg.sync.relay_watch_timeout_us = Millis(1200);
  sys.Finalize(cfg,
               [](ZoneId) { return std::make_unique<BankStateMachine>(); });

  std::vector<std::vector<NodeId>> zone_members;
  for (std::size_t z = 0; z < opt.zones; ++z) {
    zone_members.push_back(sys.topology().zone(static_cast<ZoneId>(z)).members);
  }
  sim::SoakSchedule schedule(opt.seed, opt.schedule, zone_members);

  const SimTime horizon = opt.schedule.horizon;
  harness::RosterSpec spec;
  spec.zones = opt.zones;
  spec.f = opt.f;
  spec.pairs_per_zone = opt.pairs_per_zone;
  spec.writers_per_zone = opt.writers_per_zone;
  spec.writer_record_window = opt.writer_record_window;
  spec.migrators = opt.migrators;
  spec.migrations_per_client = opt.migrations_per_client;
  spec.migrator_records = opt.migrator_records;
  spec.think = opt.base_think;
  spec.migrator_think = opt.base_think * 4;
  spec.schedule = &schedule;
  spec.stop_at = horizon;
  harness::Roster roster = harness::BuildRoster(sys, spec);

  report.events = schedule.InstallFaults(sys.sim().schedule());

  FootprintSampler sampler(&sys, opt.sample_period, horizon,
                           &report.samples);
  sys.sim().Register(&sampler, 0);
  sampler.Kick();

  report.drained = roster.Run(sys.sim(), horizon + opt.drain,
                              horizon + opt.drain + opt.completion_wait);
  report.end_time = sys.sim().Now();

  for (const auto& c : roster.clients) {
    (c->global() ? report.global_completed : report.local_completed) +=
        c->completed();
  }
  for (const SoakMemSample& s : report.samples) {
    report.high_water_live_bytes =
        std::max(report.high_water_live_bytes, s.live_bytes);
  }
  if (!report.samples.empty()) {
    report.final_live_bytes = report.samples.back().live_bytes;
  }

  sim::InvariantChecker::Options iopt;
  iopt.accounts = std::move(roster.accounts);
  iopt.balance_of = [](const core::ZoneStateMachine& app, ClientId c) {
    return static_cast<const BankStateMachine&>(app).BalanceOf(c);
  };
  iopt.total_balance = [](const core::ZoneStateMachine& app) {
    return static_cast<const BankStateMachine&>(app).TotalBalance();
  };
  sim::InvariantChecker checker(std::move(iopt));
  report.violations = checker.Check(sys);
  report.fingerprint = harness::FingerprintCounters(sys.sim().counters());
  report.counters = sys.sim().counters().All();
  report.obs_json = sys.sim().recorder().ExportJson();
  return report;
}

RejoinProbeResult RunRejoinProbe(const RejoinProbeOptions& opt) {
  RejoinProbeResult result;
  result.records = opt.records;
  result.delta_enabled = opt.delta_state_transfer;

  core::ZiziphusSystem sys(opt.seed, sim::LatencyModel::PaperGeoMatrix());
  sys.AddZone(0, 0, 1, 4);
  core::NodeConfig cfg;
  cfg.pbft.request_timeout_us = Millis(400);
  cfg.pbft.delta_state_transfer = opt.delta_state_transfer;
  sys.Finalize(cfg,
               [](ZoneId) { return std::make_unique<BankStateMachine>(); });

  const std::vector<NodeId>& members = sys.topology().zone(0).members;
  NodeId primary = sys.PrimaryOf(0)->id();
  // The victim is a backup: the probe measures rejoin cost, not the
  // (orthogonal) view change a crashed primary would add.
  NodeId victim = members.back();

  const SimTime crash_at = opt.warmup;
  const SimTime recover_at = opt.warmup + opt.outage;
  // Light XFER load up to the recovery instant fixes the catch-up target.
  harness::Roster roster;
  harness::ScriptedClient::Script script;
  script.target = primary;
  script.group = &members;
  script.stop_at = recover_at;
  script.think = std::max<Duration>(opt.think, Millis(5));
  roster.AddPair(sys.sim(), sys.topology(), sys.keys(), script);
  // The bulk-state owner: a client core with no op source.
  ClientCore heavy;
  ClientId heavy_id = sys.sim().Register(&heavy, 0);
  for (const auto& c : roster.clients) {
    sys.BootstrapClient(c->id(), 0, [](ClientId id) {
      return harness::SeedBalance(id);
    });
  }
  sys.BootstrapClient(heavy_id, 0, [&](ClientId c) {
    return harness::SeedBalance(c, opt.records);
  });

  sys.sim().schedule().CrashAmnesiaAt(crash_at, victim);
  sys.sim().schedule().RecoverAmnesiaAt(recover_at, victim);

  for (auto& c : roster.clients) c->Kick();
  // The recovery entry is scheduled exactly at recover_at, so RunUntil
  // applies it (durable restore is synchronous) but any catch-up traffic
  // is still in flight — the restored seq read below is the WAL state.
  sys.sim().RunUntil(recover_at);

  // Catch-up target: what the rest of the zone executed while the victim
  // was away (the load stopped at recover_at, so the target is fixed).
  SeqNum target = 0;
  for (const auto& node : sys.nodes()) {
    if (node->id() != victim) {
      target = std::max(target, node->pbft().last_executed());
    }
  }
  core::ZiziphusNode* v = sys.node(victim);
  const SeqNum restored = v->pbft().last_executed();
  // 100µs polling: the bandwidth term of a large snapshot is a few ms,
  // a delta a few hundred µs — the step must resolve the difference.
  const Duration kProbeStep = 100;
  const SimTime probe_deadline = recover_at + Seconds(30);
  while (v->pbft().last_executed() < target &&
         sys.sim().Now() < probe_deadline) {
    sys.sim().RunFor(kProbeStep);
  }
  result.caught_up = v->pbft().last_executed() >= target;
  result.time_to_rejoin = sys.sim().Now() - recover_at;

  const std::map<std::string, std::uint64_t> counters =
      sys.sim().counters().All();
  auto counter = [&](const char* name) -> std::uint64_t {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };
  result.delta_transfers = counter("pbft.delta_transfers");
  result.full_transfers = counter("pbft.full_transfers");
  // Wire-size estimate of the install: a snapshot ships the whole zone
  // store, a delta only the missed batches (StateResponseMsg::WireSize).
  if (result.delta_transfers > 0 && result.full_transfers == 0) {
    result.transfer_bytes =
        64 + 144 * static_cast<std::uint64_t>(
                       target > restored ? target - restored : 0);
  } else {
    result.transfer_bytes =
        64 + 48 * static_cast<std::uint64_t>(
                      sys.nodes().front()->app().Snapshot().size());
  }
  return result;
}

}  // namespace ziziphus::app
