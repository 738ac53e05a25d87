#include "workloads.h"

#include <algorithm>
#include <chrono>

#include "app/bank.h"
#include "common/logging.h"
#include "sim/latency_model.h"

namespace perfbench {

namespace app = ziziphus::app;
namespace core = ziziphus::core;
namespace obs = ziziphus::obs;
namespace sim = ziziphus::sim;
using ziziphus::ClientId;
using ziziphus::Histogram;
using ziziphus::Millis;
using ziziphus::NodeId;
using ziziphus::Seconds;
using ziziphus::ZoneId;

const char* OpClassName(OpClass c) {
  switch (c) {
    case OpClass::kLocal:
      return "local";
    case OpClass::kGlobal:
      return "global";
    case OpClass::kRead:
      return "read";
  }
  return "?";
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      // PBFT ordering and the sim kernel only: the control for core and
      // read-path changes.
      {"local", 5, 200, 0.0, 0.0, 0, false, Millis(500), Seconds(1),
       OpClass::kLocal},
      // The paper's 50% global point: endorsement, data sync, migration.
      {"global-heavy", 3, 200, 0.5, 0.0, 0, false, Millis(800), Seconds(2),
       OpClass::kGlobal},
      // Verified edge reads; checkpoint interval 2 as in bench_reads, or
      // most reads fall back to transactions.
      {"read-heavy", 3, 100, 0.05, 0.9, 2, false, Millis(500), Millis(1500),
       OpClass::kRead},
      // Headline 10% global mix with a primary crash and an amnesia
      // rejoin; the window covers the ~8 s client retry and the recovery.
      {"primary-crash", 3, 200, 0.1, 0.0, 0, true, Millis(800), Millis(9500),
       OpClass::kGlobal},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

namespace {

/// Fault times relative to the window start (primary-crash only).
constexpr Duration kCrashOffset = Millis(1500);
constexpr Duration kAmnesiaCrashOffset = Millis(2000);
constexpr Duration kAmnesiaRecoverOffset = Millis(4000);

ClassStats Summarize(const Histogram& h) {
  ClassStats s;
  s.ops = h.count();
  if (s.ops == 0) return s;
  s.p50_ms = h.Quantile(0.5) / 1000.0;
  if (s.ops >= kMinP99Samples) s.p99_ms = h.Quantile(0.99) / 1000.0;
  s.mean_ms = h.Mean() / 1000.0;
  return s;
}

bool SameClass(const ClassStats& a, const ClassStats& b) {
  return a.ops == b.ops && a.p50_ms == b.p50_ms && a.p99_ms == b.p99_ms &&
         a.mean_ms == b.mean_ms;
}

}  // namespace

bool RunResult::SameModel(const RunResult& o) const {
  return tput_ktps == o.tput_ktps && SameClass(local, o.local) &&
         SameClass(global, o.global) && SameClass(read, o.read) &&
         completed == o.completed && timeouts == o.timeouts &&
         read_rejects == o.read_rejects && recovery_ms == o.recovery_ms &&
         failover_ms == o.failover_ms &&
         bucket_completions == o.bucket_completions &&
         counters == o.counters && events == o.events && allocs == o.allocs;
}

app::WorkloadSpec Deployment::AppWorkload(const WorkloadSpec& spec,
                                          std::uint64_t seed) {
  app::WorkloadSpec wl;
  wl.clients_per_zone = spec.clients_per_zone;
  wl.mix.global_fraction = spec.global_fraction;
  wl.mix.read_fraction = spec.read_fraction;
  wl.warmup = spec.warmup;
  wl.measure = spec.window;
  wl.seed = seed;
  return wl;
}

core::NodeConfig Deployment::NodeConfigFor(const WorkloadSpec& spec) {
  core::NodeConfig cfg = app::DefaultNodeConfig();
  if (spec.checkpoint_interval != 0) {
    cfg.pbft.checkpoint_interval = spec.checkpoint_interval;
  }
  return cfg;
}

Deployment::Deployment(const WorkloadSpec& spec, std::uint64_t seed)
    : spec_(spec) {
  auto t0 = std::chrono::steady_clock::now();
  const app::DeploymentSpec dep = app::PaperDeployment(spec.zones);
  const app::WorkloadSpec wl = AppWorkload(spec, seed);
  const core::NodeConfig cfg = NodeConfigFor(spec);

  sys_ = std::make_unique<core::ZiziphusSystem>(
      seed, sim::LatencyModel::PaperGeoMatrix());
  for (const auto& z : dep.zones) {
    sys_->AddZone(z.cluster, z.region, dep.f, dep.nodes_per_zone());
  }
  sys_->Finalize(cfg, [](ZoneId) {
    return std::make_unique<app::BankStateMachine>();
  });

  // Same registration order and peer lists as RunZiziphusLike: client ids
  // are sequential, so each zone's id block is known up front.
  const std::size_t first_id = sys_->sim().num_processes();
  const std::size_t per_zone = spec.clients_per_zone;
  for (std::size_t z = 0; z < dep.zones.size(); ++z) {
    for (std::size_t i = 0; i < per_zone; ++i) {
      app::MobileClient::Config cc;
      cc.mode = app::MobileClient::Mode::kZiziphus;
      cc.topology = &sys_->topology();
      cc.keys = &sys_->keys();
      cc.home = static_cast<ZoneId>(z);
      cc.mix = wl.mix;
      cc.verified_reads = wl.verified_reads;
      cc.causal = wl.causal;
      cc.stable_leader = cfg.sync.stable_leader;
      cc.retry_timeout = Seconds(8);
      // One client in 50 keeps its read witnesses for the read-validity
      // invariant: keeping all of them would grow the process by ~0.7 GB
      // and slow the run loop by a quarter.
      cc.record_witnesses = spec.read_fraction > 0 && i % 50 == 0;
      for (std::size_t p = 0; p < per_zone; ++p) {
        if (p != i) {
          cc.peers.push_back(static_cast<ClientId>(first_id + z * per_zone + p));
        }
      }
      auto client = std::make_unique<app::MobileClient>(std::move(cc));
      NodeId cid = sys_->sim().Register(client.get(), dep.zones[z].region);
      ZCHECK(cid == first_id + z * per_zone + i);
      clients_.push_back(std::move(client));
    }
  }
  for (std::size_t z = 0; z < dep.zones.size(); ++z) {
    for (std::size_t i = 0; i < per_zone; ++i) {
      sys_->BootstrapClient(
          static_cast<ClientId>(first_id + z * per_zone + i),
          static_cast<ZoneId>(z), [](ClientId c) {
            return ziziphus::storage::KvStore::Map{
                {app::BankStateMachine::AccountKey(c), "1000"}};
          });
    }
  }
  for (auto& c : clients_) c->Start(sys_->sim().rng().NextBounded(2000));

  if (spec.faults) {
    crash_at_ = spec.warmup + kCrashOffset;
    sim::FaultSchedule& schedule = sys_->sim().schedule();
    schedule.CrashAt(crash_at_, sys_->PrimaryOf(0)->id());
    NodeId backup = sys_->Member(1, 1)->id();
    schedule.CrashAmnesiaAt(spec.warmup + kAmnesiaCrashOffset, backup);
    schedule.RecoverAmnesiaAt(spec.warmup + kAmnesiaRecoverOffset, backup);
  }
  setup_s_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
}

void Deployment::RunWarmup() {
  sim::Simulation& s = sys_->sim();
  slice_seconds_.clear();
  TimedRunUntil(spec_.warmup);
  for (auto& c : clients_) c->ResetStats();
  counters0_ = s.counters();
  cpu_busy0_.clear();
  cpu_crypto0_.clear();
  for (const auto& node : sys_->nodes()) {
    const ziziphus::CounterSet& nc = s.recorder().node_counters(node->id());
    cpu_busy0_.push_back(nc.Get(obs::CounterId::kNodeCpuBusyUs));
    cpu_crypto0_.push_back(nc.Get(obs::CounterId::kNodeCpuCryptoUs));
  }
}

void Deployment::TimedRunUntil(SimTime t) {
  sim::Simulation& s = sys_->sim();
  for (SimTime next = s.Now(); next < t;) {
    next = std::min(next + kTimingSlice, t);
    auto t0 = std::chrono::steady_clock::now();
    s.RunUntil(next);
    slice_seconds_.push_back(std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count());
  }
}

void Deployment::EnableTracer() {
  obs::Tracer& tracer = sys_->sim().recorder().tracer();
  tracer.set_enabled(true);
  tracer.set_sample_every(1);
}

std::uint64_t Deployment::CompletedOps() const {
  std::uint64_t n = 0;
  for (const auto& c : clients_) {
    const app::ClientStats& s = c->stats();
    n += s.local_completed + s.global_completed + s.reads_completed;
  }
  return n;
}

void Deployment::RunWindow(WallProfile* profile) {
  sim::Simulation& s = sys_->sim();
  const SimTime end = spec_.warmup + spec_.window;
  using Clock = std::chrono::steady_clock;
  if (profile != nullptr) s.EnableTrace(true);
  bucket_completions_.clear();
  bucket_new_views_.clear();
  std::uint64_t done0 = CompletedOps();
  std::uint64_t views0 = s.counters().Get(obs::CounterId::kPbftNewViewsEntered);
  for (SimTime t = spec_.warmup; t < end;) {
    t = std::min(t + kBucket, end);
    if (profile == nullptr) {
      TimedRunUntil(t);
    } else {
      // Step past the slice edge by at most one event; the traced run
      // yields no end-to-end number, so the overshoot is harmless.
      while (s.Now() < t) {
        const std::size_t before = s.trace().size();
        auto t0 = Clock::now();
        const bool stepped = s.Step();
        auto t1 = Clock::now();
        const double secs = std::chrono::duration<double>(t1 - t0).count();
        if (s.trace().size() > before) {
          const sim::MessageType type = s.trace().back().type;
          const Layer layer = LayerOf(type);
          if (layer == Layer::kOther) profile->unmapped.insert(type);
          profile->Charge(layer, secs);
        } else {
          profile->Charge(Layer::kTimer, secs);
        }
        if (s.trace().size() > 4096) s.ClearTrace();
        if (!stepped) break;
      }
    }
    const std::uint64_t done = CompletedOps();
    bucket_completions_.push_back(done - done0);
    done0 = done;
    const std::uint64_t views =
        s.counters().Get(obs::CounterId::kPbftNewViewsEntered);
    bucket_new_views_.push_back(views - views0);
    views0 = views;
  }
  if (profile != nullptr) {
    s.EnableTrace(false);
    s.ClearTrace();
  }
}

RunResult Deployment::Collect() const {
  RunResult r;
  Histogram local, global, reads;
  for (const auto& c : clients_) {
    const app::ClientStats& s = c->stats();
    local.Merge(s.local_latency_us);
    global.Merge(s.global_latency_us);
    reads.Merge(s.read_latency_us);
    r.completed += s.local_completed + s.global_completed + s.reads_completed;
    r.timeouts += s.timeouts;
    r.read_rejects += s.read_rejects;
    r.read_fallbacks += s.read_fallbacks;
    r.read_redirects += s.read_redirects;
    if (!c->idle()) r.in_flight_at_end++;
  }
  r.local = Summarize(local);
  r.global = Summarize(global);
  r.read = Summarize(reads);
  r.tput_ktps = static_cast<double>(r.completed) /
                ziziphus::ToSeconds(spec_.window) / 1000.0;
  r.bucket_completions = bucket_completions_;

  sim::Simulation& s = sys_->sim();
  const ziziphus::CounterSet& now = s.counters();
  r.counters.resize(obs::kNumCounters);
  for (std::size_t i = 0; i < obs::kNumCounters; ++i) {
    auto id = static_cast<obs::CounterId>(i);
    r.counters[i] = now.Get(id) - counters0_.Get(id);
  }
  r.replicas = sys_->nodes().size();
  for (std::size_t i = 0; i < sys_->nodes().size(); ++i) {
    const ziziphus::CounterSet& nc =
        s.recorder().node_counters(sys_->nodes()[i]->id());
    r.replica_cpu_busy_us +=
        nc.Get(obs::CounterId::kNodeCpuBusyUs) - cpu_busy0_[i];
    r.replica_cpu_crypto_us +=
        nc.Get(obs::CounterId::kNodeCpuCryptoUs) - cpu_crypto0_[i];
  }
  const obs::Recorder& rec = s.recorder();
  const Histogram& depth = rec.histogram(obs::HistogramId::kSimQueueDepth);
  r.queue_depth_p50 = depth.Quantile(0.5);
  r.queue_depth_p99 = depth.Quantile(0.99);
  const Histogram& rejoin =
      rec.histogram(obs::HistogramId::kRecoveryTimeToRejoinUs);
  r.time_to_rejoin_ms = rejoin.count() > 0 ? rejoin.Mean() / 1000.0 : 0;

  r.slice_s = slice_seconds_;
  if (spec_.faults) {
    r.failover_ms = FailoverMs();
    r.recovery_ms = RecoveryMs();
  }
  return r;
}

double Deployment::FailoverMs() const {
  SimTime at = spec_.warmup + spec_.window;
  for (std::size_t i = 0; i < bucket_new_views_.size(); ++i) {
    const SimTime bucket_end =
        spec_.warmup + static_cast<SimTime>(i + 1) * kBucket;
    if (bucket_new_views_[i] > 0 && bucket_end > crash_at_) {
      at = bucket_end;
      break;
    }
  }
  return static_cast<double>(at - crash_at_) / 1000.0;
}

double Deployment::RecoveryMs() const {
  const std::vector<std::uint64_t>& completions = bucket_completions_;
  const std::size_t pre =
      static_cast<std::size_t>((crash_at_ - spec_.warmup) / kBucket);
  double mean = 0;
  for (std::size_t i = 0; i < pre && i < completions.size(); ++i) {
    mean += static_cast<double>(completions[i]);
  }
  const double half = pre > 0 ? mean / static_cast<double>(2 * pre) : 0;
  SimTime at = spec_.warmup + spec_.window;
  bool dipped = false;
  for (std::size_t i = pre; i < completions.size(); ++i) {
    const double n = static_cast<double>(completions[i]);
    if (!dipped) {
      dipped = n < half;
    } else if (n >= half) {
      at = spec_.warmup + static_cast<SimTime>(i + 1) * kBucket;
      break;
    }
  }
  return static_cast<double>(at - crash_at_) / 1000.0;
}

std::vector<sim::InvariantViolation> Deployment::CheckInvariants() {
  sim::InvariantChecker::Options opt;
  for (const auto& c : clients_) {
    const auto& w = c->read_witnesses();
    opt.read_witnesses.insert(opt.read_witnesses.end(), w.begin(), w.end());
  }
  sim::InvariantChecker checker(std::move(opt));
  return checker.Check(*sys_);
}

std::string Deployment::MechanismProblem(const RunResult& r) const {
  using obs::CounterId;
  if (r.completed == 0) return "no operation completed in the window";
  if (spec_.global_fraction == 0 && r.global.ops != 0) {
    return "a global op completed in a 0%-global workload";
  }
  if (spec_.global_fraction >= 0.5 &&
      r.Counter(CounterId::kSyncRequestsLed) == 0) {
    return "data sync never led a request";
  }
  if (spec_.read_fraction > 0) {
    if (r.Counter(CounterId::kReadsCertVerified) == 0) {
      return "no verified read";
    }
    if (2 * r.read_fallbacks > r.read.ops) {
      return "most reads fell back to transactions";
    }
  }
  if (spec_.faults) {
    if (r.Counter(CounterId::kPbftNewViewsEntered) == 0) {
      return "the crashed primary was never replaced (no new view)";
    }
    if (r.Counter(CounterId::kRecoveryRejoins) == 0) {
      return "the amnesia-crashed backup never rejoined";
    }
  } else if (r.Counter(CounterId::kPbftNewViewsEntered) != 0 ||
             r.Counter(CounterId::kRecoveryRejoins) != 0) {
    return "view change or rejoin in a fault-free workload";
  }
  return "";
}

}  // namespace perfbench
