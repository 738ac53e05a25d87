#ifndef ZIZIPHUS_APP_HARNESS_H_
#define ZIZIPHUS_APP_HARNESS_H_

// Shared by the chaos and soak harnesses (and the fault tests): the
// scripted op source, the client roster, the bank seeding and checker
// hooks, and the fault-tolerant node config.

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "app/client_core.h"
#include "common/metrics.h"
#include "core/node.h"
#include "core/topology.h"
#include "sim/invariants.h"
#include "sim/soak.h"
#include "storage/kv_store.h"

namespace ziziphus::app::harness {

inline constexpr std::int64_t kInitialBalance = 1000;
inline constexpr std::int64_t kXferAmount = 5;
inline constexpr std::size_t kUnbounded =
    std::numeric_limits<std::size_t>::max();

/// The bank account every scripted client starts with, plus `records`
/// bulk data records (migrations then carry real state).
storage::KvStore::Map SeedBalance(ClientId id, std::size_t records = 0);

/// Hash over a run's full counter set (the determinism probe).
std::uint64_t FingerprintCounters(const CounterSet& counters);

/// The node config of the fault harnesses: timeouts short enough that
/// crashed primaries and stalled global instances are replaced within
/// seconds of simulated time.
core::NodeConfig FaultHarnessNodeConfig();

/// Invariant-checker options with the bank's balance hooks installed.
sim::InvariantChecker::Options BankCheckerOptions();

/// The scripted op source: one fixed kind of operation, submitted to a
/// fixed replica and retransmitted to a fixed group, until the script runs
/// out or the clock passes `stop_at`. Survives crashed primaries,
/// partitions, loss and duplication — the client model the paper assumes
/// (Section V-A). Its read policy differs from MobileClient's: reads are
/// bounded probes for the read-validity sweep, not a latency path, so a
/// "behind" reply just lets the armed retry timer pace the next attempt,
/// and one full circuit of the zone without an acceptable reply abandons
/// the read (only *accepting* a bad reply would break the guarantees).
class ScriptedClient : public ClientCore {
 public:
  enum class Kind {
    kXfer,     // XFER kXferAmount to `peer` (a conservation-friendly pair)
    kPut,      // PUT cycling over `put_window` records
    kMigrate,  // hop home -> home+1 -> ... (mod `num_zones`)
  };

  struct Script {
    Kind kind = Kind::kXfer;
    ZoneId home = 0;
    NodeId target = kInvalidNode;
    const std::vector<NodeId>* group = nullptr;  // retry group, read zone
    std::size_t f = 1;
    ClientId peer = kInvalidClient;
    std::size_t put_window = 1;
    std::size_t num_zones = 1;
    std::size_t count = kUnbounded;
    SimTime stop_at = kSimTimeMax;
    /// Pause after each operation, divided by the schedule's load factor
    /// when one is given (diurnal soak pacing, floored at 5 ms).
    Duration think = 0;
    const sim::SoakSchedule* schedule = nullptr;
    /// When set, every completed write is chased by one verified read of
    /// the client's own account; accepted reads are recorded here.
    std::vector<crypto::ReadWitness>* reads = nullptr;
  };

  ScriptedClient(const crypto::KeyRegistry* keys, const Script& script);

  void Kick() { IssueNext(); }
  /// A counted script is done once it ran out and went idle; a script
  /// bounded by `stop_at` is checked only past it, where idle means done.
  bool done() const {
    return idle() && (remaining_ == 0 || script_.stop_at != kSimTimeMax);
  }
  ZoneId home() const { return home_; }
  bool global() const { return script_.kind == Kind::kMigrate; }
  std::uint64_t completed() const {
    return stats().local_completed + stats().global_completed;
  }
  /// Operations scripted so far: submitted, in flight or still to come.
  std::uint64_t scripted() const {
    return remaining_ + completed() +
           (!idle() && op() != ClientOp::kRead ? 1 : 0);
  }
  std::uint64_t reads_abandoned() const { return reads_abandoned_; }

 protected:
  void IssueNext() override;
  void OnDone(Outcome outcome) override;
  void OnReadExhausted() override;

 private:
  Duration Think();

  const Script script_;
  ZoneId home_;
  ZoneId pending_dest_ = 0;
  std::size_t remaining_;
  std::uint64_t reads_abandoned_ = 0;
};

/// The scripted population of one harness run, in registration order
/// (client ids come from it), plus the conservation bookkeeping the
/// invariant sweep checks.
struct Roster {
  std::vector<std::unique_ptr<ScriptedClient>> clients;
  sim::InvariantChecker::Accounts accounts;

  /// Registers one client in its home zone's region.
  ScriptedClient& Add(sim::Simulation& sim, const core::Topology& topo,
                      const crypto::KeyRegistry& keys,
                      const ScriptedClient::Script& script);
  /// Two XFER clients of `script.home` transferring back and forth: the
  /// pair's combined balance is conserved at every committed prefix.
  void AddPair(sim::Simulation& sim, const core::Topology& topo,
               const crypto::KeyRegistry& keys, ScriptedClient::Script script);
  /// Kicks every client, runs to `settle`, then in 1 s steps until every
  /// client is done or `deadline` passes. Returns whether all are done.
  bool Run(sim::Simulation& sim, SimTime settle, SimTime deadline);
};

/// The chaos/soak workload shape: per zone, XFER pairs then PUT writers;
/// then migrators hopping through the zones via zone 0's primary.
struct RosterSpec {
  std::size_t zones = 1;
  std::size_t f = 1;
  std::size_t pairs_per_zone = 0;
  std::size_t xfers_per_client = kUnbounded;
  std::size_t writers_per_zone = 0;
  std::size_t writer_record_window = 1;
  std::size_t migrators = 0;
  std::size_t migrations_per_client = 0;
  std::size_t migrator_records = 0;
  Duration think = 0;
  Duration migrator_think = 0;
  const sim::SoakSchedule* schedule = nullptr;
  SimTime stop_at = kSimTimeMax;
  std::vector<crypto::ReadWitness>* pair_reads = nullptr;
};

/// Registers the roster of `spec` on `sys` (any core::Deployment: Ziziphus
/// or two-level PBFT) and bootstraps every client's account.
template <typename System>
Roster BuildRoster(System& sys, const RosterSpec& spec) {
  Roster roster;
  const core::Topology& topo = sys.topology();
  ScriptedClient::Script base;
  base.f = spec.f;
  base.think = spec.think;
  base.schedule = spec.schedule;
  base.stop_at = spec.stop_at;
  for (std::size_t z = 0; z < spec.zones; ++z) {
    ScriptedClient::Script s = base;
    s.home = static_cast<ZoneId>(z);
    s.target = sys.PrimaryOf(s.home)->id();
    s.group = &topo.zone(s.home).members;
    s.count = spec.xfers_per_client;
    s.reads = spec.pair_reads;
    for (std::size_t p = 0; p < spec.pairs_per_zone; ++p) {
      roster.AddPair(sys.sim(), topo, sys.keys(), s);
    }
    s.kind = ScriptedClient::Kind::kPut;
    s.put_window = spec.writer_record_window;
    s.count = kUnbounded;
    s.reads = nullptr;
    for (std::size_t w = 0; w < spec.writers_per_zone; ++w) {
      ClientId id = roster.Add(sys.sim(), topo, sys.keys(), s).id();
      roster.accounts.fixed_balance_clients[id] = kInitialBalance;
    }
  }
  ScriptedClient::Script m = base;
  m.kind = ScriptedClient::Kind::kMigrate;
  m.target = sys.PrimaryOf(0)->id();
  m.group = &topo.zone(0).members;
  m.num_zones = spec.zones;
  m.count = spec.migrations_per_client;
  m.think = spec.migrator_think;
  for (std::size_t i = 0; i < spec.migrators; ++i) {
    m.home = static_cast<ZoneId>(i % spec.zones);
    ClientId id = roster.Add(sys.sim(), topo, sys.keys(), m).id();
    roster.accounts.fixed_balance_clients[id] = kInitialBalance;
  }
  for (const auto& c : roster.clients) {
    const std::size_t records = c->global() ? spec.migrator_records : 0;
    sys.BootstrapClient(c->id(), c->home(), [records](ClientId id) {
      return SeedBalance(id, records);
    });
  }
  return roster;
}

}  // namespace ziziphus::app::harness

#endif  // ZIZIPHUS_APP_HARNESS_H_
