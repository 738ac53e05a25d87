#ifndef ZIZIPHUS_CORE_ENDORSEMENT_H_
#define ZIZIPHUS_CORE_ENDORSEMENT_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/costs.h"
#include "core/messages.h"
#include "core/topology.h"
#include "crypto/certificate.h"
#include "sim/simulation.h"

namespace ziziphus::core {

/// Identifies one endorsement instance: a (global request, phase) pair.
struct EndorseKey {
  std::uint64_t request_id = 0;
  EndorsePhase phase = EndorsePhase::kPropose;

  friend bool operator==(const EndorseKey&, const EndorseKey&) = default;
  friend auto operator<=>(const EndorseKey& a, const EndorseKey& b) {
    if (auto c = a.request_id <=> b.request_id; c != 0) return c;
    return static_cast<int>(a.phase) <=> static_cast<int>(b.phase);
  }
};

struct EndorseKeyHash {
  std::size_t operator()(const EndorseKey& k) const {
    return static_cast<std::size_t>(k.request_id * 0x9e3779b97f4a7c15ULL) ^
           static_cast<std::size_t>(k.phase);
  }
};

/// Runs intra-zone endorsement consensus: the zone primary pre-prepares a
/// top-level message's content digest; nodes optionally run a prepare round
/// (full PBFT — used where the ballot is being *assigned*, Alg. 1 lines
/// 6-15), then multicast signature votes; 2f+1 matching votes form the
/// certificate attached to the outgoing top-level message.
///
/// Votes are multicast to the whole zone, so every node — primary, proxies
/// (Section VI), and the append finalizers of Alg. 2 — can assemble the
/// certificate locally.
///
/// Per-instance state lives only while the instance is in flight: once
/// on_quorum has fired and this node's own vote is out, it shrinks to a
/// fixed-size tombstone (ballot + content digest + which members' votes and
/// prepares arrived) that keeps duplicates no-ops, still flags same-ballot
/// equivocation, and lets a higher ballot re-open the instance. Whoever
/// needs the certificate later keeps its own copy. A tombstone is retired
/// once every member's vote (and prepare, for full-prepare rounds) is in
/// and the host reports the instance settled — its ballot executed, its
/// migration finished. No member has a vote or prepare left to send then,
/// and a later pre-prepare for it (a re-drive, a stale ballot) is dropped
/// unseen when the host calls it settled too.
class ZoneEndorser {
 public:
  struct Callbacks {
    /// Validates the payload (top-level message checks, ballot checks) and
    /// applies voting-time side effects (e.g., lock(c)=FALSE in the source
    /// zone). Return false to refuse to vote.
    std::function<bool(const EndorsePrePrepareMsg&)> validate;
    /// Fires exactly once per key at every node once the certificate is
    /// complete locally.
    std::function<void(const EndorseKey&, const EndorsePrePrepareMsg&,
                       const crypto::Certificate&)>
        on_quorum;
    /// Fires for each valid vote that matches a completed instance's digest
    /// (a signer the certificate may not hold yet; the receiver dedups).
    /// Lets a retained certificate keep growing as it would have in the
    /// endorser.
    std::function<void(const EndorseKey&, const crypto::Signature&)>
        on_late_vote;
    /// Whether the instance `key` is finished at this node at or above
    /// `ballot`. `op` is the pre-prepare's op when asked about one, null
    /// when asked about a tombstone. Null means never.
    std::function<bool(const EndorseKey&, Ballot ballot, const MigrationOp* op)>
        settled;
  };

  ZoneEndorser(sim::Process* process, const crypto::KeyRegistry* keys,
               const ZoneInfo* zone, NodeCosts costs, Callbacks callbacks);

  ViewId view() const { return view_; }
  NodeId primary() const {
    return zone_->members[view_ % zone_->members.size()];
  }
  bool IsPrimary() const { return primary() == process_->id(); }

  /// Installs a new view; clears in-flight endorsements from older views
  /// (the new primary re-initiates pending work).
  void OnViewChange(ViewId view);

  /// Primary API: starts endorsing `content_digest`. `full_prepare` selects
  /// three-phase (pre-prepare/prepare/vote) vs two-phase (pre-prepare/vote).
  void Start(EndorsePhase phase, std::uint64_t request_id, Ballot ballot,
             Ballot prev, crypto::Digest content_digest,
             sim::MessagePtr payload, const MigrationOp& op,
             std::vector<MigrationOp> ops, RecordSet records,
             bool full_prepare);

  /// Routes endorsement messages; returns true if consumed.
  bool HandleMessage(const sim::MessagePtr& msg);

  /// True once this node has observed a quorum for the key (and no higher
  /// ballot has re-opened it since).
  bool IsDone(const EndorseKey& key) const;

  /// The host settled `request_id`'s instances (e.g. executed its ballot):
  /// retires those of its tombstones every member has finished voting on.
  void Settle(std::uint64_t request_id);

  /// Retention introspection: instances still in flight (full per-instance
  /// state) and completed ones reduced to tombstones, which last until
  /// every member is heard and the host settles them. Neither grows with
  /// the number of global ops.
  struct RetentionStats {
    std::size_t live = 0;
    std::size_t tombstones = 0;
    std::size_t approx_bytes = 0;
  };
  RetentionStats retention() const;

 private:
  struct State {
    std::shared_ptr<const EndorsePrePrepareMsg> pre_prepare;
    std::set<NodeId> prepares;
    bool voted = false;
    crypto::CertificateBuilder builder;
    /// Votes that arrived before the pre-prepare fixed the digest.
    std::vector<std::pair<crypto::Signature, crypto::Digest>> early_votes;
    /// Quorum reached and on_quorum fired, but this node's own vote is not
    /// out yet (full-prepare rounds where the other votes outran our
    /// prepare quorum). A later prepare can still trigger that vote, so the
    /// instance stays live until it is cast; then it retires.
    bool done = false;
    /// Trace spans (0 when untraced): the endorsement round as seen by this
    /// node (pre-prepare accepted -> certificate complete) and the
    /// certificate assembly (own vote cast -> certificate complete).
    obs::SpanId round_span = 0;
    obs::SpanId build_span = 0;
    /// Members whose matching vote arrived (MemberBit), kept from the
    /// certificate once it completes.
    std::uint64_t voters = 0;
  };

  bool IsMember(NodeId n) const;
  void HandlePrePrepare(const std::shared_ptr<const EndorsePrePrepareMsg>& m);
  void HandlePrepare(const std::shared_ptr<const EndorsePrepareMsg>& m);
  void HandleVote(const std::shared_ptr<const EndorseVoteMsg>& m);
  void CastVote(const EndorseKey& key, State& st);
  void MulticastPrepare(const EndorsePrePrepareMsg& m);
  void MaybeFinish(const EndorseKey& key, State& st);
  void Retire(const EndorseKey& key);
  /// Bit of member `n` in the voter/preparer masks (0 for non-members).
  std::uint64_t MemberBit(NodeId n) const;

  sim::Process* process_;
  const crypto::KeyRegistry* keys_;
  const ZoneInfo* zone_;
  NodeCosts costs_;
  Callbacks callbacks_;
  ViewId view_ = 0;
  /// Instances in flight. A key is in at most one of states_ / done_.
  std::map<EndorseKey, State> states_;
  /// What a completed instance leaves behind.
  struct Tombstone {
    Ballot ballot;
    crypto::Digest content_digest = 0;
    std::uint64_t voters = 0;
    std::uint64_t preparers = 0;
    bool full_prepare = false;
  };
  /// Every member voted, and prepared if the round had a prepare phase:
  /// nothing more can arrive for the instance but retransmissions.
  bool Heard(const Tombstone& t) const;
  /// Retires `it` if Heard and settled.
  void MaybeForget(
      std::unordered_map<EndorseKey, Tombstone, EndorseKeyHash>::iterator it);
  std::unordered_map<EndorseKey, Tombstone, EndorseKeyHash> done_;
  /// Per chain (ballot zone), the lowest and highest ballot of a tombstone
  /// this endorser retired. A fresh pre-prepare inside that range that the
  /// host calls settled is taken for a retired instance's duplicate; one
  /// below it (say, from before an amnesia crash rebuilt the endorser)
  /// gets the validate path, as it would with no tombstone.
  std::map<ZoneId, std::pair<Ballot, Ballot>> retired_;
  bool InRetiredRange(Ballot ballot) const;
  /// MemberBit of every member; 0 (never Heard) for zones over 64 nodes.
  std::uint64_t all_members_ = 0;
};

}  // namespace ziziphus::core

#endif  // ZIZIPHUS_CORE_ENDORSEMENT_H_
