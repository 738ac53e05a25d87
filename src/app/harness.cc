#include "app/harness.h"

#include <algorithm>

#include "app/bank.h"
#include "common/hash.h"
#include "common/logging.h"

namespace ziziphus::app::harness {

namespace {

const std::string kPayload(24, 'z');

}  // namespace

storage::KvStore::Map SeedBalance(ClientId id, std::size_t records) {
  storage::KvStore::Map out = {
      {BankStateMachine::AccountKey(id), std::to_string(kInitialBalance)}};
  for (std::size_t n = 0; n < records; ++n) {
    out[BankStateMachine::DataKey(id, n)] = kPayload;
  }
  return out;
}

std::uint64_t FingerprintCounters(const CounterSet& counters) {
  Hasher h(0xf19e);
  for (const auto& [name, value] : counters.All()) {
    h.Add(name);
    h.Add(value);
  }
  return h.Finish();
}

core::NodeConfig FaultHarnessNodeConfig() {
  core::NodeConfig cfg;
  cfg.pbft.request_timeout_us = Millis(400);
  cfg.sync.retry_timeout_us = Millis(1500);
  cfg.sync.response_query_timeout_us = Millis(800);
  cfg.sync.relay_watch_timeout_us = Millis(1200);
  return cfg;
}

sim::InvariantChecker::Options BankCheckerOptions() {
  sim::InvariantChecker::Options opt;
  opt.balance_of = [](const core::ZoneStateMachine& app, ClientId c) {
    return static_cast<const BankStateMachine&>(app).BalanceOf(c);
  };
  opt.total_balance = [](const core::ZoneStateMachine& app) {
    return static_cast<const BankStateMachine&>(app).TotalBalance();
  };
  return opt;
}

// ------------------------------------------------------- ScriptedClient

ScriptedClient::ScriptedClient(const crypto::KeyRegistry* keys,
                               const Script& script)
    : ClientCore(keys, Millis(1100)),
      script_(script),
      home_(script.home),
      remaining_(script.count) {
  witness_sink_ = script.reads;
}

void ScriptedClient::IssueNext() {
  if (remaining_ == 0 || Now() >= script_.stop_at) return;
  --remaining_;
  const Route route{script_.target, script_.group, script_.f + 1,
                    script_.f + 1};
  if (script_.kind == Kind::kMigrate) {
    pending_dest_ = static_cast<ZoneId>((home_ + 1) % script_.num_zones);
    auto req = std::make_shared<core::MigrationRequestMsg>();
    req->op.client = id();
    req->op.timestamp = NextTimestamp();
    req->op.source = home_;
    req->op.destination = pending_dest_;
    BeginOp(ClientOp::kMigrate);
    SendWrite(std::move(req), route);
    return;
  }
  auto req = std::make_shared<pbft::ClientRequestMsg>();
  req->op.client = id();
  req->op.timestamp = NextTimestamp();
  if (script_.kind == Kind::kXfer) {
    req->op.command = "XFER " + std::to_string(script_.peer) + " " +
                      std::to_string(kXferAmount);
  } else {
    const std::uint64_t record = completed() % script_.put_window;
    req->op.command = "PUT " + std::to_string(record) + " " + kPayload;
  }
  BeginOp(ClientOp::kTransfer);
  SendWrite(std::move(req), route);
}

void ScriptedClient::OnDone(Outcome outcome) {
  if (op() != ClientOp::kRead) {
    if (op() == ClientOp::kMigrate && outcome == Outcome::kCommitted) {
      home_ = pending_dest_;
    }
    if (script_.reads != nullptr) {
      BeginOp(ClientOp::kRead);
      StartRead(home_, script_.group, script_.f, /*spread=*/false);
      return;
    }
  }
  Pace(Think());
}

void ScriptedClient::OnReadExhausted() {
  reads_abandoned_++;
  Finish(Outcome::kAbandoned);
}

Duration ScriptedClient::Think() {
  // Without a think gap the whole workload completes inside the first few
  // hundred milliseconds and most of a fault window hits an idle system.
  if (script_.schedule == nullptr) return script_.think;
  double factor = script_.schedule->LoadFactor(Now());
  if (factor <= 0) factor = 1.0;
  auto think = static_cast<Duration>(static_cast<double>(script_.think) /
                                     factor);
  return std::max<Duration>(think, Millis(5));
}

// --------------------------------------------------------------- Roster

ScriptedClient& Roster::Add(sim::Simulation& sim, const core::Topology& topo,
                            const crypto::KeyRegistry& keys,
                            const ScriptedClient::Script& script) {
  clients.push_back(std::make_unique<ScriptedClient>(&keys, script));
  sim.Register(clients.back().get(), topo.zone(script.home).region);
  return *clients.back();
}

void Roster::AddPair(sim::Simulation& sim, const core::Topology& topo,
                     const crypto::KeyRegistry& keys,
                     ScriptedClient::Script script) {
  // Ids are handed out in registration order, so each side knows its peer.
  const auto a = static_cast<ClientId>(sim.num_processes());
  script.kind = ScriptedClient::Kind::kXfer;
  script.peer = a + 1;
  const ScriptedClient& first = Add(sim, topo, keys, script);
  script.peer = a;
  const ScriptedClient& second = Add(sim, topo, keys, script);
  ZCHECK(first.id() == a && second.id() == a + 1);
  accounts.load_clients[script.home].push_back(a);
  accounts.load_clients[script.home].push_back(a + 1);
  accounts.zone_load_totals[script.home] += 2 * kInitialBalance;
}

bool Roster::Run(sim::Simulation& sim, SimTime settle, SimTime deadline) {
  for (auto& c : clients) c->Kick();
  sim.RunUntil(settle);
  auto all_done = [&] {
    return std::all_of(clients.begin(), clients.end(),
                       [](const auto& c) { return c->done(); });
  };
  while (!all_done() && sim.Now() < deadline) sim.RunFor(Seconds(1));
  return all_done();
}

}  // namespace ziziphus::app::harness
