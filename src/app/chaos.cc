#include "app/chaos.h"

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <utility>

#include "app/bank.h"
#include "app/harness.h"
#include "baselines/two_level.h"
#include "common/hash.h"
#include "common/random.h"
#include "core/system.h"
#include "sim/byzantine.h"
#include "sim/latency_model.h"
#include "storage/kv_store.h"

namespace ziziphus::app {

namespace {

/// The chaos roster: same-zone XFER pairs plus zone-hopping migrators, all
/// paced by the same think time. Pair clients chase every transfer with a
/// verified read when `reads` is set.
harness::RosterSpec ChaosRoster(const ChaosOptions& opt,
                                std::vector<crypto::ReadWitness>* reads) {
  harness::RosterSpec spec;
  spec.zones = opt.zones;
  spec.f = opt.f;
  spec.pairs_per_zone = opt.pairs_per_zone;
  spec.xfers_per_client = opt.xfers_per_client;
  spec.migrators = opt.migrators;
  spec.migrations_per_client = opt.migrations_per_client;
  spec.think = opt.client_think;
  spec.migrator_think = opt.client_think;
  spec.pair_reads = reads;
  return spec;
}

/// Completion and read outcomes of every client, into `report`.
void TallyClients(const harness::Roster& clients, ChaosReport* report) {
  for (const auto& c : clients.clients) {
    (c->global() ? report->global_completed : report->local_completed) +=
        c->completed();
    (c->global() ? report->global_expected : report->local_expected) +=
        c->scripted();
    report->reads_ok += c->stats().reads_completed;
    report->reads_rejected += c->stats().read_rejects;
    report->reads_abandoned += c->reads_abandoned();
  }
}

/// Appends a randomized fault timeline to `schedule`, all derived from
/// `rng`. Every injected fault is healed no later than `window` (the
/// terminal ResetAllAt recovers crashed nodes and clears network faults),
/// after which the system must converge. Crash targets may coincide with
/// Byzantine replicas — the invariants only promise safety, and liveness is
/// restored once the window closes.
std::size_t GenerateFaultTimeline(sim::FaultSchedule& schedule, Rng& rng,
                                  const std::vector<NodeId>& replicas,
                                  Duration window,
                                  std::size_t amnesia_crashes = 0) {
  const SimTime lo = Millis(500);
  if (window <= lo + Millis(500) || replicas.size() < 2) {
    schedule.ResetAllAt(window);
    return 1;
  }
  auto pick_node = [&] {
    return replicas[rng.NextBounded(replicas.size())];
  };
  auto pick_time = [&] { return rng.NextRange(lo, window - Millis(500)); };

  std::size_t n_events = 4 + rng.NextBounded(5);
  for (std::size_t i = 0; i < n_events; ++i) {
    SimTime at = pick_time();
    switch (rng.NextBounded(7)) {
      case 0: {  // crash, recover mid-window or at the reset
        NodeId victim = pick_node();
        schedule.CrashAt(at, victim);
        if (rng.NextBool(0.6)) {
          schedule.RecoverAt(
              std::min<SimTime>(at + rng.NextRange(Seconds(1), Seconds(3)),
                                window),
              victim);
        }
        break;
      }
      case 1: {  // two-way partition between two replicas
        NodeId a = pick_node();
        NodeId b = pick_node();
        if (a != b) schedule.PartitionAt(at, a, b);
        break;
      }
      case 2: {  // asymmetric cut
        NodeId a = pick_node();
        NodeId b = pick_node();
        if (a != b) schedule.CutOneWayAt(at, a, b);
        break;
      }
      case 3: {  // congested link
        NodeId a = pick_node();
        NodeId b = pick_node();
        if (a != b) {
          schedule.LinkDelayAt(at, a, b,
                               rng.NextRange(Millis(20), Millis(200)));
        }
        break;
      }
      case 4: {  // lossy link
        NodeId a = pick_node();
        NodeId b = pick_node();
        if (a != b) {
          schedule.LinkLossAt(at, a, b, 0.05 + 0.35 * rng.NextDouble());
        }
        break;
      }
      case 5:  // network-wide loss + duplication storm
        schedule.GlobalLossAt(at, 0.01 + 0.07 * rng.NextDouble());
        schedule.DuplicationAt(at, 0.05 + 0.2 * rng.NextDouble());
        break;
      default:  // gray failure: slow CPU
        schedule.CpuFactorAt(at, pick_node(),
                             2.0 + 6.0 * rng.NextDouble());
        break;
    }
  }
  // Amnesia crashes draw from the rng strictly after the base timeline, so
  // a run with amnesia_crashes == 0 replays the base schedule bit-for-bit.
  for (std::size_t i = 0; i < amnesia_crashes; ++i) {
    SimTime at = pick_time();
    NodeId victim = pick_node();
    schedule.CrashAmnesiaAt(at, victim);
    // Recover mid-window so the rejoin runs while faults are still live;
    // the terminal ResetAllAt backstops a recovery clamped to the window.
    schedule.RecoverAmnesiaAt(
        std::min<SimTime>(at + rng.NextRange(Seconds(1), Seconds(3)), window),
        victim);
  }
  schedule.ResetAllAt(window);
  return schedule.size();
}

/// The Byzantine behaviours safe at <= f per zone. The equivocating engine
/// is installed via the PBFT engine factory; the rest are outbound
/// interceptors.
enum class ByzKind {
  kMutePrimary,
  kCommitWithhold,
  kEquivocateEngine,
  kCorruptSignature,
  kStaleReplay,
  kLyingStateResponder,
  // Drawn only when the mix enables reads (NextBounded(7) vs the historic
  // NextBounded(6)), so read-free seeds keep their exact roster.
  kStaleReadResponder,
  // Drawn only under fast-path ordering (the draw widens to 8/9), so
  // stable-ordering rosters replay the historic stream exactly.
  kFastVoteEquivocate,
  kFastVoteWithhold,
  // Never drawn from the main stream: substituted per rostered replica by
  // an appended coin-flip stream when ChaosOptions::byz_forge_reads is on.
  kForgeReads,
};

const char* KindName(ByzKind k) {
  switch (k) {
    case ByzKind::kMutePrimary: return "mute-primary";
    case ByzKind::kCommitWithhold: return "commit-withhold";
    case ByzKind::kEquivocateEngine: return "equivocating-primary";
    case ByzKind::kCorruptSignature: return "corrupt-signature";
    case ByzKind::kStaleReplay: return "stale-cert-replay";
    case ByzKind::kLyingStateResponder: return "lying-state-responder";
    case ByzKind::kStaleReadResponder: return "stale-read-responder";
    case ByzKind::kFastVoteEquivocate: return "fast-vote-equivocator";
    case ByzKind::kFastVoteWithhold: return "fast-vote-withhold";
    default: return "forging-read-responder";
  }
}

struct ByzPick {
  ZoneId zone;
  std::size_t member_index;
  ByzKind kind;
};

}  // namespace

std::string ChaosReport::Summary() const {
  std::ostringstream os;
  os << "local " << local_completed << "/" << local_expected << ", global "
     << global_completed << "/" << global_expected << ", "
     << violations.size() << " violation(s), " << byzantine_roster.size()
     << " byzantine, " << events << " events, t=" << end_time / 1000
     << "ms, fp=" << fingerprint;
  if (reads_ok + reads_rejected + reads_abandoned > 0) {
    os << ", reads ok=" << reads_ok << " rejected=" << reads_rejected
       << " abandoned=" << reads_abandoned;
  }
  for (const auto& v : violations) {
    os << "\n  [" << v.invariant << "] " << v.detail;
  }
  return os.str();
}

ChaosReport RunZiziphusChaos(const ChaosOptions& opt) {
  ChaosReport report;
  core::ZiziphusSystem sys(opt.seed, sim::LatencyModel::PaperGeoMatrix());
  const std::size_t n_per_zone = 3 * opt.f + 1;
  for (std::size_t z = 0; z < opt.zones; ++z) {
    sys.AddZone(0, static_cast<RegionId>(z % 7), opt.f, n_per_zone);
  }

  // All chaos decisions flow from this generator (independent of the
  // simulation's own stream), so the run is a pure function of the seed.
  Rng rng(Mix64(opt.seed) ^ 0xc4a05eedULL);
  // Appended stream for the forge-reads coin flips: drawn only when the
  // flag is on, so legacy seeds never touch it and keep their fingerprints.
  Rng forge_rng(Mix64(opt.seed) ^ 0xf0465eedULL);

  // --- Byzantine roster: member indices chosen before node ids exist. ---
  std::size_t byz_count = opt.byzantine_per_zone;
  if (!opt.allow_over_budget) byz_count = std::min(byz_count, opt.f);
  std::vector<ByzPick> roster;
  for (std::size_t z = 0; z < opt.zones; ++z) {
    std::vector<std::size_t> indices(n_per_zone);
    for (std::size_t i = 0; i < n_per_zone; ++i) indices[i] = i;
    for (std::size_t i = indices.size(); i > 1; --i) {
      std::swap(indices[i - 1], indices[rng.NextBounded(i)]);
    }
    for (std::size_t i = 0; i < byz_count && i < indices.size(); ++i) {
      // The stale-read responder only makes sense (and only changes the
      // draw) when the mix issues reads, and the fast-path attackers only
      // when fast-path ordering is under test — each widening is gated so
      // every pre-existing (ordering, mix) combination replays its exact
      // historic roster stream.
      ByzKind kind;
      const bool reads = opt.mix.read_fraction > 0;
      if (opt.ordering == pbft::Ordering::kFastPath) {
        std::uint64_t v = rng.NextBounded(reads ? 9 : 8);
        // Read-free draws skip kStaleReadResponder (6), mapping 6/7 onto
        // the two fast-path attackers.
        if (!reads && v >= 6) v += 1;
        kind = static_cast<ByzKind>(v);
      } else {
        kind = static_cast<ByzKind>(rng.NextBounded(reads ? 7 : 6));
      }
      // The forging read responder rides an appended stream instead of
      // widening the main draw (which would silently re-seed every
      // existing run): when enabled, a coin flip per rostered replica
      // swaps its behaviour for the forger.
      if (opt.byz_forge_reads && forge_rng.NextBounded(2) == 0) {
        kind = ByzKind::kForgeReads;
      }
      roster.push_back({static_cast<ZoneId>(z), indices[i], kind});
    }
  }

  core::NodeConfig cfg = harness::FaultHarnessNodeConfig();
  cfg.pbft.ordering = opt.ordering;
  if (opt.mix.read_fraction > 0) {
    // Reads anchor on stable checkpoints; the default interval would leave
    // the short chaos workload with no anchor at all. The interval counts
    // sequence numbers, not ops, and the lock-step think timers batch all
    // of a zone's clients into one slot per round — a zone commits only a
    // handful of seqs, so anchor after every other one. Only read-enabled
    // runs change it, keeping read-free seeds bit-for-bit reproducible.
    cfg.pbft.checkpoint_interval = 2;
  }

  // Equivocating engines must be installed at Init; the tweaker maps each
  // node to its member index by counting registrations per zone.
  std::map<ZoneId, std::size_t> next_index;
  sys.Finalize(
      cfg, [](ZoneId) { return std::make_unique<BankStateMachine>(); },
      [&](NodeId /*id*/, ZoneId zone, core::NodeConfig& node_cfg) {
        std::size_t idx = next_index[zone]++;
        for (const ByzPick& p : roster) {
          if (p.zone == zone && p.member_index == idx &&
              p.kind == ByzKind::kEquivocateEngine) {
            node_cfg.pbft_factory =
                [](sim::Process* p, const crypto::KeyRegistry* k,
                   pbft::PbftConfig c, pbft::StateMachine* s) {
                  return std::make_unique<sim::EquivocatingPbftEngine>(
                      p, k, std::move(c), s);
                };
          }
        }
      });

  // --- Attach interceptor behaviours now that node ids are known. ---
  std::set<NodeId> byz_nodes;
  std::vector<std::unique_ptr<sim::ByzantineBehavior>> behaviors;
  for (const ByzPick& p : roster) {
    NodeId id = sys.topology().zone(p.zone).members[p.member_index];
    byz_nodes.insert(id);
    std::ostringstream entry;
    entry << "node " << id << " (zone " << p.zone
          << "): " << KindName(p.kind);
    report.byzantine_roster.push_back(entry.str());
    std::unique_ptr<sim::ByzantineBehavior> b;
    switch (p.kind) {
      case ByzKind::kMutePrimary:
        b = std::make_unique<sim::MutePrimaryBehavior>(&sys.sim(), id);
        break;
      case ByzKind::kCommitWithhold:
        b = std::make_unique<sim::CommitWithholdingBehavior>(&sys.sim(), id);
        break;
      case ByzKind::kEquivocateEngine:
        break;  // engine-level, installed via the factory above
      case ByzKind::kCorruptSignature:
        b = std::make_unique<sim::CorruptSignatureBehavior>(&sys.sim(), id);
        break;
      case ByzKind::kStaleReplay:
        b = std::make_unique<sim::StaleCertificateReplayBehavior>(&sys.sim(),
                                                                  id);
        break;
      case ByzKind::kLyingStateResponder:
        b = std::make_unique<sim::LyingStateResponderBehavior>(
            &sys.sim(), id, BankStateMachine::AccountKey(999999), "31337");
        break;
      case ByzKind::kStaleReadResponder:
        b = std::make_unique<sim::StaleReadResponderBehavior>(&sys.sim(), id);
        break;
      case ByzKind::kFastVoteEquivocate:
        b = std::make_unique<sim::FastVoteEquivocatingBehavior>(
            &sys.sim(), id, &sys.keys());
        break;
      case ByzKind::kFastVoteWithhold:
        b = std::make_unique<sim::FastVoteWithholdingBehavior>(&sys.sim(), id);
        break;
      case ByzKind::kForgeReads:
        b = std::make_unique<sim::ForgingReadResponderBehavior>(
            &sys.sim(), id, "31337");
        break;
    }
    if (b != nullptr) {
      b->Attach();
      behaviors.push_back(std::move(b));
    }
  }

  // --- Clients + conservation bookkeeping. ---
  // Every fast-path read an honest client accepts lands here and is
  // re-verified by the read-validity invariant after the run.
  std::vector<crypto::ReadWitness> witnesses;
  harness::Roster clients = harness::BuildRoster(
      sys, ChaosRoster(opt, opt.mix.read_fraction > 0 ? &witnesses : nullptr));
  if (opt.migrators == 0) {
    // Migration-free run: every zone's total across *all* accounts is
    // pinned, catching minted accounts the workload knows nothing about.
    clients.accounts.strict_zone_totals = clients.accounts.zone_load_totals;
  }

  // --- Fault timeline + run. ---
  report.events = GenerateFaultTimeline(sys.sim().schedule(), rng,
                                        sys.topology().AllNodes(),
                                        opt.fault_window,
                                        opt.amnesia_crashes);
  if (opt.latency_flaps > 0 && opt.fault_window > Seconds(2)) {
    // Flapping links, from an appended stream (legacy schedules replay
    // bit-for-bit with flaps off): congest a link, heal it a few hundred
    // milliseconds later. Adaptive timeouts must ride the swings without
    // spurious view changes; the terminal ResetAllAt backstops any flap
    // still live at the window edge.
    Rng flap_rng(Mix64(opt.seed) ^ 0xf1a75eedULL);
    const std::vector<NodeId> all = sys.topology().AllNodes();
    for (std::size_t i = 0; i < opt.latency_flaps; ++i) {
      NodeId a = all[flap_rng.NextBounded(all.size())];
      NodeId b = all[flap_rng.NextBounded(all.size())];
      if (a == b) continue;
      SimTime at = flap_rng.NextRange(Millis(500),
                                      opt.fault_window - Millis(1000));
      Duration spike = flap_rng.NextRange(Millis(50), Millis(300));
      Duration up = flap_rng.NextRange(Millis(200), Millis(800));
      sys.sim().schedule().LinkDelayAt(at, a, b, spike);
      sys.sim().schedule().LinkDelayAt(
          std::min<SimTime>(at + up, opt.fault_window), a, b, 0);
    }
    report.events = sys.sim().schedule().size();
  }
  report.all_done = clients.Run(
      sys.sim(), opt.fault_window + opt.drain,
      opt.fault_window + opt.drain + opt.completion_wait);
  report.end_time = sys.sim().Now();

  TallyClients(clients, &report);

  // Converged application state per zone: the digest of the honest replica
  // that executed furthest. Ordering-differential tests compare these —
  // different orderings batch differently, so commit-log digests differ
  // even when the resulting state is identical.
  for (ZoneId z = 0; z < sys.topology().num_zones(); ++z) {
    NodeId best = kInvalidNode;
    SeqNum best_exec = 0;
    for (NodeId id : sys.topology().zone(z).members) {
      if (byz_nodes.count(id) > 0 || sys.sim().faults().IsCrashed(id)) {
        continue;
      }
      SeqNum le = sys.node(id)->pbft().last_executed();
      if (best == kInvalidNode || le > best_exec) {
        best = id;
        best_exec = le;
      }
    }
    if (best != kInvalidNode) {
      report.final_state_digests[z] =
          sys.node(best)->pbft().state_machine()->StateDigest();
    }
  }

  sim::InvariantChecker::Options iopt = harness::BankCheckerOptions();
  iopt.byzantine = byz_nodes;
  iopt.accounts = std::move(clients.accounts);
  iopt.read_witnesses = std::move(witnesses);
  report.violations = sim::InvariantChecker(std::move(iopt)).Check(sys);
  report.fingerprint = harness::FingerprintCounters(sys.sim().counters());
  report.counters = sys.sim().counters().All();
  report.obs_json = sys.sim().recorder().ExportJson();
  return report;
}

ChaosReport RunTwoLevelChaos(const ChaosOptions& opt) {
  ChaosReport report;
  baselines::TwoLevelSystem sys(opt.seed, sim::LatencyModel::PaperGeoMatrix());
  for (std::size_t z = 0; z < opt.zones; ++z) {
    sys.AddZone(0, static_cast<RegionId>(z % 7), opt.f, 3 * opt.f + 1);
  }

  Rng rng(Mix64(opt.seed) ^ 0xc4a05eedULL);

  baselines::TwoLevelNode::Config cfg;
  cfg.pbft.request_timeout_us = Millis(400);
  sys.Finalize(cfg,
               [](ZoneId) { return std::make_unique<BankStateMachine>(); });

  harness::Roster clients =
      harness::BuildRoster(sys, ChaosRoster(opt, /*reads=*/nullptr));

  // Crash-fault chaos only: the baseline runs no Byzantine roster.
  report.events = GenerateFaultTimeline(sys.sim().schedule(), rng,
                                        sys.topology().AllNodes(),
                                        opt.fault_window);
  report.all_done = clients.Run(
      sys.sim(), opt.fault_window + opt.drain,
      opt.fault_window + opt.drain + opt.completion_wait);
  report.end_time = sys.sim().Now();
  TallyClients(clients, &report);

  sim::InvariantChecker::Options iopt = harness::BankCheckerOptions();
  iopt.accounts = std::move(clients.accounts);
  report.violations = sim::InvariantChecker(std::move(iopt)).Check(sys);
  report.fingerprint = harness::FingerprintCounters(sys.sim().counters());
  report.counters = sys.sim().counters().All();
  return report;
}

}  // namespace ziziphus::app
