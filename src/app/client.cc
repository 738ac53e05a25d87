#include "app/client.h"

#include "baselines/two_level.h"
#include "common/logging.h"

namespace ziziphus::app {

namespace {

/// A "behind" reply usually means the next stable checkpoint has not
/// covered the session's last write yet — a cadence of a few milliseconds,
/// not an outage. Instead of surrendering to the transaction path
/// immediately, wait this long and retry the fast path, up to
/// kReadBehindWaits times per read; then fall back.
constexpr Duration kReadBehindWait = Millis(1);
constexpr std::size_t kReadBehindWaits = 2;

}  // namespace

MobileClient::MobileClient(Config config)
    : ClientCore(config.keys, config.retry_timeout), cfg_(std::move(config)) {
  causal_ = cfg_.causal;
  if (cfg_.record_witnesses) witness_sink_ = &witnesses_;
}

void MobileClient::Start(Duration delay) {
  ZCHECK(cfg_.topology != nullptr && cfg_.keys != nullptr);
  home_ = cfg_.home;
  IssueAfter(delay);
}

NodeId MobileClient::GuessPrimary(ZoneId zone) const {
  const core::ZoneInfo& zi = cfg_.topology->zone(zone);
  auto it = view_guess_.find(zone);
  ViewId v = it == view_guess_.end() ? 0 : it->second;
  return zi.members[v % zi.members.size()];
}

void MobileClient::OnPrimarySilent(NodeId target) {
  // The guessed primary let an attempt time out: it crashed or lost its
  // view. Send later ops to the next view's primary instead of paying the
  // timeout there again; a ClientReply from the home zone corrects the
  // guess either way.
  const ZoneId zone = cfg_.topology->ZoneOf(target);
  if (GuessPrimary(zone) == target) view_guess_[zone]++;
}

MobileClient::Route MobileClient::ZoneRoute(ZoneId target, ZoneId replying,
                                           ZoneId retry) const {
  const core::Topology& topo = *cfg_.topology;
  return {GuessPrimary(target), &topo.zone(retry).members,
          topo.zone(replying).f + 1, topo.zone(target).f + 1};
}

ZoneId MobileClient::PickDestination() {
  const core::Topology& topo = *cfg_.topology;
  ClusterId my_cluster = topo.zone(home_).cluster;
  bool cross = topo.num_clusters() > 1 &&
               rng().NextBool(cfg_.mix.cross_cluster_fraction);
  if (cross) {
    // Uniform over zones of other clusters.
    std::vector<ZoneId> candidates;
    for (const auto& z : topo.zones()) {
      if (z.cluster != my_cluster) candidates.push_back(z.id);
    }
    if (!candidates.empty()) {
      return candidates[rng().NextBounded(candidates.size())];
    }
  }
  // Uniform over other zones of my cluster.
  const auto& zones = topo.ZonesInCluster(my_cluster);
  if (zones.size() <= 1) return home_;
  for (;;) {
    ZoneId z = zones[rng().NextBounded(zones.size())];
    if (z != home_) return z;
  }
}

ZoneId MobileClient::GlobalTargetZone(ZoneId dest) const {
  if (cfg_.mode == Mode::kTwoLevel) return baselines::kTwoLevelLeaderZone;
  const core::Topology& topo = *cfg_.topology;
  bool cross = topo.zone(home_).cluster != topo.zone(dest).cluster;
  if (cross) return dest;  // cross-cluster: destination zone initiates
  if (cfg_.stable_leader) {
    // Stable leader: the destination cluster's first zone initiates all
    // data synchronization instances.
    return topo.ZonesInCluster(topo.zone(dest).cluster).front();
  }
  return dest;
}

void MobileClient::IssueNext() {
  // Draw order matters for same-seed reproducibility: NextBool(0) draws
  // nothing, so runs with reads disabled consume the rng sequence they
  // always did.
  if (rng().NextBool(cfg_.mix.read_fraction)) {
    IssueRead();
  } else if (cfg_.mode == Mode::kSteward ||
             rng().NextBool(cfg_.mix.global_fraction)) {
    IssueGlobal();
  } else {
    IssueLocal();
  }
}

void MobileClient::SendLocal(std::string command) {
  auto req = std::make_shared<pbft::ClientRequestMsg>();
  req->op.client = id();
  req->op.timestamp = NextTimestamp();
  req->op.command = std::move(command);
  if (cfg_.causal) req->deps = session_.stable_floor;
  SendWrite(std::move(req), ZoneRoute(home_, home_, home_));
}

void MobileClient::IssueLocal() {
  std::string command = "DEP 1";
  if (!cfg_.peers.empty() && rng().NextBool(0.5)) {
    ClientId peer = cfg_.peers[rng().NextBounded(cfg_.peers.size())];
    command = "XFER " + std::to_string(peer) + " 1";
  }
  BeginOp(ClientOp::kTransfer);
  SendLocal(std::move(command));
}

void MobileClient::SendCommand(std::string command) {
  auto req = std::make_shared<core::MigrationRequestMsg>();
  req->op.client = id();
  req->op.timestamp = NextTimestamp();
  req->op.source = home_;
  req->op.destination = home_;
  req->op.command = std::move(command);
  ZoneId target =
      cfg_.topology->ZonesInCluster(cfg_.topology->zone(home_).cluster)[0];
  SendWrite(std::move(req), ZoneRoute(target, target, GlobalTargetZone(home_)));
}

void MobileClient::IssueGlobal() {
  if (cfg_.mode == Mode::kSteward) {
    // Steward: every transaction is a globally replicated command.
    BeginOp(ClientOp::kMigrate);
    SendCommand("DEP 1");
    return;
  }
  auto req = std::make_shared<core::MigrationRequestMsg>();
  req->op.client = id();
  req->op.timestamp = NextTimestamp();
  ZoneId dest = PickDestination();
  if (dest == home_) {  // nowhere to migrate (single-zone deployment)
    IssueLocal();
    return;
  }
  req->op.source = home_;
  req->op.destination = dest;
  pending_dest_ = dest;
  ZoneId target = GlobalTargetZone(dest);
  BeginOp(ClientOp::kMigrate);
  // Completion: f+1 MIGRATION-DONE replies from the destination zone.
  SendWrite(std::move(req), ZoneRoute(target, dest, target));
}

// ------------------------------------------------------- read fast path

void MobileClient::IssueRead() {
  BeginOp(ClientOp::kRead);
  if (cfg_.mode != Mode::kZiziphus || !cfg_.verified_reads) {
    // Baselines (and the bench's control arm) execute reads as ordinary
    // transactions through consensus.
    IssueReadFallback();
    return;
  }
  read_waited_ = 0;
  const core::ZoneInfo& zi = cfg_.topology->zone(home_);
  StartRead(home_, &zi.members, zi.f, /*spread=*/true);
}

void MobileClient::IssueReadFallback() {
  // The fast path cannot serve this read (replica behind the session, every
  // replica exhausted, or verified reads disabled): execute it as a full
  // BAL transaction. It completes into the read stats and, mutating
  // nothing, leaves the session's write watermark alone.
  stats_.read_fallbacks++;
  scoped_counters().Inc(obs::CounterId::kReadsFallbackTxns);
  if (cfg_.mode == Mode::kSteward) {
    SendCommand("BAL");
  } else {
    SendLocal("BAL");
  }
}

void MobileClient::OnReadBehind() {
  // The zone's checkpoints advance in lockstep, so a sibling replica is no
  // more likely to cover the session. But "behind" after a write is
  // normally just the checkpoint cadence — wait one beat and retry the fast
  // path before surrendering to the (far costlier) txn path.
  stats_.read_redirects++;
  if (read_waited_ < kReadBehindWaits) {
    read_waited_++;
    RetryReadAfter(kReadBehindWait);
  } else {
    IssueReadFallback();
  }
}

void MobileClient::OnReadExhausted() { IssueReadFallback(); }

void MobileClient::OnDone(Outcome outcome) {
  const Duration latency = Now() - issued_at();
  obs::Recorder& recorder = simulation()->recorder();
  switch (op()) {
    case ClientOp::kTransfer:
      recorder.Record(obs::HistogramId::kClientLocalLatencyUs, latency);
      break;
    case ClientOp::kMigrate:
      recorder.Record(obs::HistogramId::kClientGlobalLatencyUs, latency);
      if (outcome == Outcome::kCommitted && cfg_.mode != Mode::kSteward) {
        // The client physically moved: its device now talks to the new
        // zone over the local edge network.
        home_ = pending_dest_;
        set_region(cfg_.topology->zone(home_).region);
      }
      break;
    case ClientOp::kRead:
      recorder.Record(obs::HistogramId::kClientReadLatencyUs, latency);
      break;
  }
  Pace(cfg_.think_time);
}

}  // namespace ziziphus::app
