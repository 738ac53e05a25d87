#ifndef ZIZIPHUS_APP_CLIENT_H_
#define ZIZIPHUS_APP_CLIENT_H_

#include <map>
#include <string>
#include <vector>

#include "app/client_core.h"
#include "app/workload.h"
#include "core/topology.h"
#include "crypto/read_certificate.h"
#include "crypto/signature.h"

namespace ziziphus::app {

/// A closed-loop mobile edge client (patient device / bank customer): the
/// mix op source over ClientCore. Each iteration draws one typed operation
/// from its WorkloadMix:
///
///  - ClientOp::kTransfer — local transaction in the home zone, f+1 replies
///  - ClientOp::kRead     — verified fast-path read: ONE replica returns the
///    value plus a checkpoint-anchored ReadProof; the client verifies the
///    certificate (f+1 signers) and inclusion digest itself and falls back
///    to a full BAL transaction when no replica can cover its session
///  - ClientOp::kMigrate  — global transaction moving the client's data to
///    another zone (the paper's Algorithm 2), f+1 MIGRATION-DONE replies
///
/// The Session token travels with the client across migrations and enforces
/// read-your-writes and monotonic reads (see workload.h). In causal mode
/// the session's floor vector also rides on writes as dependency metadata.
///
/// The same client drives Ziziphus, Steward (100% global command
/// transactions) and two-level PBFT deployments; only Ziziphus serves the
/// read fast path — the baselines execute reads as ordinary transactions.
/// Over a one-zone topology whose zone is the whole group and a mix with
/// no reads and no globals, it is the flat PBFT baseline's client.
class MobileClient : public ClientCore {
 public:
  enum class Mode { kZiziphus, kSteward, kTwoLevel };

  struct Config {
    Mode mode = Mode::kZiziphus;
    const core::Topology* topology = nullptr;
    const crypto::KeyRegistry* keys = nullptr;
    ZoneId home = 0;
    /// Operation mix (read / global / cross-cluster fractions). For Steward
    /// every non-read operation is implicitly global.
    WorkloadMix mix;
    /// Serve reads through the certified single-replica fast path. When
    /// false every read is issued as a full BAL transaction — the baseline
    /// arm of the read benches.
    bool verified_reads = true;
    /// Causal sessions: writes carry the session's floor vector as
    /// dependencies and reads merge the checkpoint's dependency vector.
    bool causal = false;
    /// Retain a crypto::ReadWitness per accepted fast-path read so the
    /// InvariantChecker can re-verify every read the run served.
    bool record_witnesses = false;
    /// Stable-leader routing: migrations go to the destination cluster's
    /// first zone instead of the destination zone itself.
    bool stable_leader = true;
    Duration retry_timeout = Seconds(4);
    Duration think_time = 0;
    /// A "behind" reply usually means the next stable checkpoint has not
    /// covered the session's last write yet — a cadence of a few
    /// milliseconds, not an outage. Instead of surrendering to the
    /// transaction path immediately, wait this long and retry the fast
    /// path, up to `read_behind_waits` times per read; then fall back.
    Duration read_behind_wait = Millis(1);
    std::size_t read_behind_waits = 2;
    /// Same-zone peers for transfer targets. Built by the experiment runner
    /// before construction (client ids are predictable from registration
    /// order), so there is no mutate-after-construct window.
    std::vector<ClientId> peers;
  };

  explicit MobileClient(Config config);

  /// Kicks off the closed loop after `delay` (call after registration).
  void Start(Duration delay);

  ZoneId home() const { return home_; }
  /// Accepted fast-path reads (only populated with record_witnesses set).
  const std::vector<crypto::ReadWitness>& read_witnesses() const {
    return witnesses_;
  }

 protected:
  void IssueNext() override;
  void OnDone(Outcome outcome) override;
  void OnReadBehind() override;
  void OnReadExhausted() override;
  void OnReplyView(ViewId view) override { view_guess_[home_] = view; }
  void OnPrimarySilent(NodeId target) override;

 private:
  void IssueLocal();
  void IssueGlobal();
  void IssueRead();
  void IssueReadFallback();
  /// Sends `command` as a local transaction of the home zone.
  void SendLocal(std::string command);
  /// Steward: sends `command` as a globally replicated command.
  void SendCommand(std::string command);
  Route ZoneRoute(ZoneId target, ZoneId replying, ZoneId retry) const;
  NodeId GuessPrimary(ZoneId zone) const;
  ZoneId PickDestination();
  ZoneId GlobalTargetZone(ZoneId dest) const;

  Config cfg_;
  std::vector<crypto::ReadWitness> witnesses_;
  ZoneId home_ = 0;
  ZoneId pending_dest_ = kInvalidZone;
  std::map<ZoneId, ViewId> view_guess_;
  std::size_t read_waited_ = 0;  // behind-wait retries spent on this read
};

}  // namespace ziziphus::app

#endif  // ZIZIPHUS_APP_CLIENT_H_
