#ifndef ZIZIPHUS_SIM_BYZANTINE_H_
#define ZIZIPHUS_SIM_BYZANTINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "crypto/signature.h"
#include "pbft/messages.h"
#include "sim/simulation.h"

namespace ziziphus::sim {

/// Base class of pluggable Byzantine behaviours. A behaviour is an
/// OutboundInterceptor bound to one node: once attached, every message the
/// node sends passes through OnSend, which may forward, substitute,
/// corrupt, or suppress it — per destination, so multicasts can equivocate.
/// Behaviours attach by NodeId and therefore work against any process type:
/// the nodes of a core::Deployment (ZiziphusNode, TwoLevelNode) or a flat
/// PbftReplicaProcess. The two-level chaos run attaches none: it injects
/// crash faults only.
///
/// All behaviours are deterministic (no randomness beyond what the caller
/// scripts), keeping chaos runs reproducible from the simulation seed.
class ByzantineBehavior : public OutboundInterceptor {
 public:
  ByzantineBehavior(Simulation* sim, NodeId self) : sim_(sim), self_(self) {}
  ~ByzantineBehavior() override { Detach(); }

  ByzantineBehavior(const ByzantineBehavior&) = delete;
  ByzantineBehavior& operator=(const ByzantineBehavior&) = delete;

  void Attach() { sim_->SetInterceptor(self_, this); }
  void Detach() {
    if (sim_ != nullptr) sim_->SetInterceptor(self_, nullptr);
  }

  NodeId self() const { return self_; }
  virtual const char* name() const = 0;

 protected:
  Simulation* sim_;
  NodeId self_;
};

/// A primary that goes silent on ordering duty: suppresses every outbound
/// pre-prepare and new-view message while leaving all other traffic (so it
/// still looks alive). Backups' progress timers expire and the zone elects
/// a new primary. Harmless when the node is not primary.
class MutePrimaryBehavior : public ByzantineBehavior {
 public:
  using ByzantineBehavior::ByzantineBehavior;
  const char* name() const override { return "mute-primary"; }
  MessagePtr OnSend(NodeId from, NodeId to, const MessagePtr& msg) override;
};

/// A replica that participates in pre-prepare/prepare but withholds every
/// commit vote, draining one vote from every commit quorum. With at most f
/// such replicas the remaining 2f+1 honest votes still commit.
class CommitWithholdingBehavior : public ByzantineBehavior {
 public:
  using ByzantineBehavior::ByzantineBehavior;
  const char* name() const override { return "commit-withhold"; }
  MessagePtr OnSend(NodeId from, NodeId to, const MessagePtr& msg) override;
};

/// An equivocating primary: splits each pre-prepare's destinations by
/// member index — the first ceil(n/2) members of the zone get the true
/// batch, the rest a conflicting twin (the original plus a forged no-op),
/// correctly signed. Honest replicas prepare different digests for one
/// slot, the slot cannot gather a commit quorum in the equivocating view,
/// and the zone recovers via view change. Harmless when the node is not
/// primary. Each forgery counts byz.equivocations_emitted once, in the
/// sender's node scope.
class EquivocatingPrimaryBehavior : public ByzantineBehavior {
 public:
  EquivocatingPrimaryBehavior(Simulation* sim, NodeId self,
                              const crypto::KeyRegistry* keys,
                              std::vector<NodeId> members)
      : ByzantineBehavior(sim, self),
        keys_(keys),
        members_(std::move(members)) {}
  const char* name() const override { return "equivocating-primary"; }
  MessagePtr OnSend(NodeId from, NodeId to, const MessagePtr& msg) override;

 private:
  const crypto::KeyRegistry* keys_;
  std::vector<NodeId> members_;
  /// The last pre-prepare forged and its twin: a multicast hands every
  /// destination the same original, so every victim sees the same lie.
  MessagePtr last_original_;
  MessagePtr last_twin_;
};

/// A replica whose signatures never verify: every signed PBFT vote it emits
/// (prepare, commit, checkpoint, view-change) is flipped before hitting the
/// wire. Honest receivers drop them, so the node contributes nothing to any
/// quorum — a crash-equivalent fault dressed as active misbehaviour.
class CorruptSignatureBehavior : public ByzantineBehavior {
 public:
  using ByzantineBehavior::ByzantineBehavior;
  const char* name() const override { return "corrupt-signature"; }
  MessagePtr OnSend(NodeId from, NodeId to, const MessagePtr& msg) override;
};

/// Replays stale certified top-level messages: remembers the first message
/// it sends of each certificate-bearing type (Accepted, GlobalCommit,
/// Prepared, ZoneCheckpoint) and afterwards substitutes that stale-but-
/// validly-certified original for every other fresh send. Receivers must
/// reject or de-duplicate by ballot/sequence rather than trust the
/// certificate alone.
class StaleCertificateReplayBehavior : public ByzantineBehavior {
 public:
  using ByzantineBehavior::ByzantineBehavior;
  const char* name() const override { return "stale-cert-replay"; }
  MessagePtr OnSend(NodeId from, NodeId to, const MessagePtr& msg) override;

  std::uint64_t replayed() const { return replayed_; }

 private:
  std::map<MessageType, MessagePtr> first_sent_;
  std::map<MessageType, std::uint64_t> sends_;
  std::uint64_t replayed_ = 0;
};

/// Answers PBFT state-transfer requests with a corrupted snapshot whose
/// claimed digest is self-consistent (it hashes to the snapshot it ships),
/// minting money into a hidden account. A lagging replica on the
/// known-digest path rejects it against the certified checkpoint digest;
/// the unknown-digest path needs f+1 matching copies, so with at most f
/// liars per zone it is harmless — and with f+1 it breaks safety, which is
/// exactly what the InvariantChecker misconfiguration test demonstrates.
class LyingStateResponderBehavior : public ByzantineBehavior {
 public:
  /// Every liar in a zone must mint identically for copies to "match";
  /// the forged account and amount are fixed parameters.
  LyingStateResponderBehavior(Simulation* sim, NodeId self,
                              std::string forged_key,
                              std::string forged_value)
      : ByzantineBehavior(sim, self),
        forged_key_(std::move(forged_key)),
        forged_value_(std::move(forged_value)) {}
  const char* name() const override { return "lying-state-responder"; }
  MessagePtr OnSend(NodeId from, NodeId to, const MessagePtr& msg) override;

  std::uint64_t lies_told() const { return lies_; }

 private:
  std::string forged_key_;
  std::string forged_value_;
  std::uint64_t lies_ = 0;
};

/// Serves stale values on the read fast path: remembers the first
/// (value, found) it ever replies for each key and substitutes that frozen
/// answer into every later read reply — while keeping the *fresh* checkpoint
/// proof, because a Byzantine replica cannot forge old certificates for new
/// sequence numbers. The frozen value does not match the Merkle leaf the
/// fresh key proof still binds, so honest clients reject the reply
/// (reads.cert_rejected) and retry elsewhere. Behind-replies pass through
/// untouched: lying "behind" is indistinguishable from slowness and merely
/// redirects the client.
class StaleReadResponderBehavior : public ByzantineBehavior {
 public:
  using ByzantineBehavior::ByzantineBehavior;
  const char* name() const override { return "stale-read-responder"; }
  MessagePtr OnSend(NodeId from, NodeId to, const MessagePtr& msg) override;

  std::uint64_t lies_told() const { return lies_; }

 private:
  /// key -> first (value, found) ever served; later truths are replaced.
  std::map<std::string, std::pair<std::string, bool>> first_answer_;
  std::uint64_t lies_ = 0;
};

/// Forges read replies outright: substitutes a fabricated value into every
/// non-behind read reply AND rewrites the key proof's leaf to match it, so
/// the reply is internally consistent (leaf hashes over the served value).
/// This is the strongest forgery available to a replica holding a valid
/// checkpoint certificate — the attack that broke the old additive
/// sum-digest scheme, where the liar could always solve
/// rest = state_digest - EntryDigest(key, lie). Against the Merkle read
/// tree the patched leaf folds to a root other than the certified one, so
/// honest clients reject the reply. It also inflates the claimed
/// covered_write_ts to the moon; verifiers must ignore the claim and trust
/// only the coverage proof.
class ForgingReadResponderBehavior : public ByzantineBehavior {
 public:
  ForgingReadResponderBehavior(Simulation* sim, NodeId self,
                               std::string forged_value)
      : ByzantineBehavior(sim, self),
        forged_value_(std::move(forged_value)) {}
  const char* name() const override { return "forging-read-responder"; }
  MessagePtr OnSend(NodeId from, NodeId to, const MessagePtr& msg) override;

  std::uint64_t lies_told() const { return lies_; }

 private:
  std::string forged_value_;
  std::uint64_t lies_ = 0;
};

/// Fast-path equivocating voter: sends its honest FastVote to even-id
/// destinations and a correctly signed vote for a forged digest to odd-id
/// destinations (one forged twin per (view, seq), so every victim sees the
/// same lie; only the last is kept, since a multicast hands every
/// destination the same vote before the next vote is cast). Victims detect
/// the conflicting digest, mark the slot fast-conflicted and fall back to
/// the classic prepare/commit rounds; the forged vote never counts toward a
/// prepare quorum (digest laxity check), so safety is untouched and the
/// attack only costs the fast path.
class FastVoteEquivocatingBehavior : public ByzantineBehavior {
 public:
  FastVoteEquivocatingBehavior(Simulation* sim, NodeId self,
                               const crypto::KeyRegistry* keys)
      : ByzantineBehavior(sim, self), keys_(keys) {}
  const char* name() const override { return "fast-vote-equivocator"; }
  MessagePtr OnSend(NodeId from, NodeId to, const MessagePtr& msg) override;

  std::uint64_t equivocations() const { return equivocations_; }

 private:
  const crypto::KeyRegistry* keys_;
  /// The (view, seq) last forged and its twin.
  std::pair<ViewId, SeqNum> last_key_;
  MessagePtr last_twin_;
  std::uint64_t equivocations_ = 0;
};

/// Fast-path vote withholder: suppresses every outbound FastVote (except to
/// itself, keeping local bookkeeping intact). Unanimity becomes unreachable
/// for every slot, so the zone's fast path degrades to perpetual abandon
/// fallback — the worst-case latency regression a single silent backup can
/// inflict. Classic quorums are untouched: 3f remaining votes still exceed
/// 2f+1, so the fallback commits every slot.
class FastVoteWithholdingBehavior : public ByzantineBehavior {
 public:
  using ByzantineBehavior::ByzantineBehavior;
  const char* name() const override { return "fast-vote-withhold"; }
  MessagePtr OnSend(NodeId from, NodeId to, const MessagePtr& msg) override;

  std::uint64_t suppressed() const { return suppressed_; }

 private:
  std::uint64_t suppressed_ = 0;
};

}  // namespace ziziphus::sim

#endif  // ZIZIPHUS_SIM_BYZANTINE_H_
