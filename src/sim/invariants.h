#ifndef ZIZIPHUS_SIM_INVARIANTS_H_
#define ZIZIPHUS_SIM_INVARIANTS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "baselines/two_level.h"
#include "common/types.h"
#include "core/system.h"
#include "core/zone_app.h"
#include "crypto/read_certificate.h"

namespace ziziphus::sim {

/// One detected safety violation: which invariant broke and a
/// human-readable description naming the nodes and values involved.
struct InvariantViolation {
  std::string invariant;
  std::string detail;
};

/// Run-time safety checker for a Ziziphus deployment. Called after (or
/// during) a chaos run, it sweeps every replica's externally observable
/// state and asserts the paper's safety claims:
///
///   1. zone-agreement: honest replicas of one zone never commit different
///      batches at the same PBFT sequence number;
///   2. checkpoint-validity: every stable checkpoint held anywhere (own or
///      lazily replicated) carries a valid 2f+1 certificate of its
///      producing zone, and honest replicas agree on the
///      (state digest, read root) pair per (zone, seq);
///   3. global-agreement: no two honest nodes (any zone) execute different
///      global requests under the same data-synchronization ballot (read
///      from the system-wide core::ExecutionLedger, which every node
///      reports to as it executes);
///   4. balance-conservation: the bank totals honest replicas hold match
///      the funds ever minted (prefix-safe formulations, see Accounts);
///   5. recovery-consistency: a node that came back from an amnesia crash
///      holds a committed prefix of its zone's history (commit log and
///      durable WAL digests match the zone reference per sequence number)
///      and never forgot a data-synchronization ballot promise it
///      persisted before the crash (no promised-then-forgotten);
///   6. read-validity: every fast-path read an honest client accepted
///      (recorded as a crypto::ReadWitness) re-verifies — f+1 zone-member
///      certificate over the anchored checkpoint, Merkle proofs binding the
///      value and the client's coverage to the certified read root, anchor
///      not older than the session floor held at issue time (monotonic
///      reads) — and, beyond what the client alone could check, the
///      witness is compared against ground truth: its anchor's
///      (state digest, read root) must match what honest replicas actually
///      stabilized at that (zone, seq), and the value must match the
///      committed snapshot wherever an honest replica still retains it;
///   7. fast-path-certificate: every slot an honest replica committed via
///      the optimistic fast path (unanimous FastVote round, recorded with
///      the voted digest) carries exactly the batch digest its zone's
///      honest replicas committed at that sequence — a fast certificate
///      never contradicts the classic three-phase outcome, whichever path
///      each replica took.
///
/// Every check skips nodes listed as Byzantine or currently crashed —
/// the paper's guarantees only cover honest replicas, and a crashed
/// node's state is legitimately stale. The global-agreement check skips
/// only Byzantine nodes: its evidence was recorded at execution time.
///
/// A two-level PBFT deployment gets checks 1 and 4: its replicas run the
/// same zone PBFT and bank, but keep no lazily shared checkpoints, no
/// execution ledger, no durable state and serve no fast-path reads.
class InvariantChecker {
 public:
  /// Workload knowledge for the balance-conservation check. All three
  /// formulations are prefix-safe: they hold at every honest replica at any
  /// moment, regardless of in-flight transactions, as long as the workload
  /// obeys the stated discipline.
  struct Accounts {
    /// Clients that never migrate and only transfer among same-zone peers:
    /// each zone's replicas must hold exactly `zone_load_totals[zone]`
    /// across these accounts (XFER conserves the pair sum atomically).
    std::map<ZoneId, std::vector<ClientId>> load_clients;
    std::map<ZoneId, std::int64_t> zone_load_totals;
    /// Clients that only migrate (no deposits/transfers): every copy of
    /// their account anywhere must show exactly this balance.
    std::map<ClientId, std::int64_t> fixed_balance_clients;
    /// Strict mode for migration-free runs: each zone replica's total
    /// across *all* accounts must equal this — catches minted accounts the
    /// workload knows nothing about. Empty disables.
    std::map<ZoneId, std::int64_t> strict_zone_totals;
  };

  struct Options {
    /// Nodes under adversarial control; excluded from all honest checks.
    std::set<NodeId> byzantine;
    Accounts accounts;
    /// App hooks (the checker is app-agnostic): balance of one client at a
    /// replica's state (-1 if absent) and total across all accounts.
    std::function<std::int64_t(const core::ZoneStateMachine&, ClientId)>
        balance_of;
    std::function<std::int64_t(const core::ZoneStateMachine&)> total_balance;
    /// Fast-path reads accepted by honest clients during the run (collect
    /// from MobileClient::read_witnesses / the chaos clients). Empty skips
    /// the read-validity check.
    std::vector<crypto::ReadWitness> read_witnesses;
  };

  explicit InvariantChecker(Options options) : opt_(std::move(options)) {}

  /// Sweeps the whole deployment; returns every violation found.
  std::vector<InvariantViolation> Check(core::ZiziphusSystem& system);
  std::vector<InvariantViolation> Check(baselines::TwoLevelSystem& system);

  const Options& options() const { return opt_; }

 private:
  template <typename Node>
  bool Honest(core::Deployment<Node>& system, NodeId id) const;
  /// Counts the sweep and its violations in the run's counters.
  static void CountSweep(sim::Simulation& sim,
                         const std::vector<InvariantViolation>& found);

  template <typename Node>
  void CheckZoneAgreement(core::Deployment<Node>& system,
                          std::vector<InvariantViolation>* out);
  void CheckFastCertificates(core::ZiziphusSystem& system,
                             std::vector<InvariantViolation>* out);
  void CheckCheckpoints(core::ZiziphusSystem& system,
                        std::vector<InvariantViolation>* out);
  void CheckGlobalAgreement(core::ZiziphusSystem& system,
                            std::vector<InvariantViolation>* out);
  template <typename Node>
  void CheckBalances(core::Deployment<Node>& system,
                     std::vector<InvariantViolation>* out);
  void CheckRecovery(core::ZiziphusSystem& system,
                     std::vector<InvariantViolation>* out);
  void CheckReads(core::ZiziphusSystem& system,
                  std::vector<InvariantViolation>* out);

  /// Certified checkpoint identity honest replicas hold, accumulated by
  /// CheckCheckpoints and consumed by CheckReads as the ground truth read
  /// anchors are judged against.
  struct AnchorRef {
    std::uint64_t state_digest = 0;
    crypto::Digest read_root = 0;
    NodeId holder = kInvalidNode;
  };
  std::map<std::pair<ZoneId, SeqNum>, AnchorRef> anchor_refs_;

  Options opt_;
};

}  // namespace ziziphus::sim

#endif  // ZIZIPHUS_SIM_INVARIANTS_H_
