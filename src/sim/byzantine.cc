#include "sim/byzantine.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"
#include "core/lazy_sync.h"
#include "core/messages.h"
#include "storage/kv_store.h"

namespace ziziphus::sim {

// ------------------------------------------------------------ mute primary

MessagePtr MutePrimaryBehavior::OnSend(NodeId /*from*/, NodeId /*to*/,
                                       const MessagePtr& msg) {
  if (msg->type() == pbft::kPrePrepare || msg->type() == pbft::kNewView) {
    return nullptr;
  }
  return msg;
}

// ------------------------------------------------------- commit withholding

MessagePtr CommitWithholdingBehavior::OnSend(NodeId /*from*/, NodeId to,
                                             const MessagePtr& msg) {
  // Keeps its own commit (its local state stays consistent) but starves
  // everyone else of the vote.
  if (msg->type() == pbft::kCommit && to != self_) return nullptr;
  return msg;
}

// ------------------------------------------------------------- equivocation

MessagePtr EquivocatingPrimaryBehavior::OnSend(NodeId from, NodeId to,
                                               const MessagePtr& msg) {
  if (msg->type() != pbft::kPrePrepare) return msg;
  // The first ceil(n/2) members by index get the truth, the rest the twin.
  auto index = static_cast<std::size_t>(
      std::find(members_.begin(), members_.end(), to) - members_.begin());
  if (index < (members_.size() + 1) / 2) return msg;
  if (msg != last_original_) {
    // Same (view, seq), batch extended with a forged no-op, re-signed.
    auto twin = std::make_shared<pbft::PrePrepareMsg>(
        static_cast<const pbft::PrePrepareMsg&>(*msg));
    pbft::Operation noop;
    noop.client = kInvalidClient;
    noop.timestamp = twin->seq;
    noop.command = "byz-noop";
    twin->batch.ops.push_back(noop);
    twin->batch_digest = twin->batch.ComputeDigest();
    twin->sig = keys_->Sign(from, twin->digest());
    last_original_ = msg;
    last_twin_ = std::move(twin);
    sim_->recorder().node_counters(self_).Inc(
        obs::CounterId::kByzEquivocationsEmitted);
  }
  return last_twin_;
}

MessagePtr FastVoteEquivocatingBehavior::OnSend(NodeId from, NodeId to,
                                                const MessagePtr& msg) {
  if (msg->type() != pbft::kFastVote) return msg;
  // Even-id destinations get the honest vote, odd-id ones the forged twin.
  if (to % 2 == 0) return msg;
  const auto* vote = static_cast<const pbft::FastVoteMsg*>(msg.get());
  auto key = std::make_pair(vote->view, vote->seq);
  if (last_twin_ == nullptr || key != last_key_) {
    auto twin = std::make_shared<pbft::FastVoteMsg>(*vote);
    twin->batch_digest =
        Hasher(0xfab5).Add(vote->batch_digest).Add(vote->seq).Finish();
    twin->sig = keys_->Sign(from, twin->digest());
    twin->set_from(from);
    equivocations_++;
    sim_->counters().Inc(obs::CounterId::kByzEquivocationsEmitted);
    last_key_ = key;
    last_twin_ = std::move(twin);
  }
  return last_twin_;
}

MessagePtr FastVoteWithholdingBehavior::OnSend(NodeId /*from*/, NodeId to,
                                               const MessagePtr& msg) {
  // Keeps its own vote (local state stays consistent) but starves everyone
  // else of the unanimity it requires.
  if (msg->type() == pbft::kFastVote && to != self_) {
    suppressed_++;
    return nullptr;
  }
  return msg;
}

// ------------------------------------------------------- signature garbling

namespace {
template <typename M>
MessagePtr GarbleSignature(const MessagePtr& msg) {
  auto copy = std::make_shared<M>(static_cast<const M&>(*msg));
  copy->sig.tag ^= 0xbad5eedbad5eedULL;
  return copy;
}
}  // namespace

MessagePtr CorruptSignatureBehavior::OnSend(NodeId /*from*/, NodeId to,
                                            const MessagePtr& msg) {
  if (to == self_) return msg;  // keep its own bookkeeping intact
  switch (msg->type()) {
    case pbft::kPrepare:
      return GarbleSignature<pbft::PrepareMsg>(msg);
    case pbft::kCommit:
      return GarbleSignature<pbft::CommitMsg>(msg);
    case pbft::kCheckpoint:
      return GarbleSignature<pbft::CheckpointMsg>(msg);
    case pbft::kViewChange:
      return GarbleSignature<pbft::ViewChangeMsg>(msg);
    default:
      return msg;
  }
}

// -------------------------------------------------- stale-certificate replay

MessagePtr StaleCertificateReplayBehavior::OnSend(NodeId /*from*/,
                                                  NodeId /*to*/,
                                                  const MessagePtr& msg) {
  switch (msg->type()) {
    case core::kAccepted:
    case core::kGlobalCommit:
    case core::kPrepared:
    case core::kZoneCheckpoint:
      break;
    default:
      return msg;
  }
  MessageType t = msg->type();
  std::uint64_t n = sends_[t]++;
  auto it = first_sent_.find(t);
  if (it == first_sent_.end()) {
    first_sent_[t] = msg;
    return msg;
  }
  // Every other send ships the stale original instead of the fresh message.
  if (n % 2 == 1) {
    replayed_++;
    sim_->counters().Inc(obs::CounterId::kByzStaleReplays);
    return it->second;
  }
  return msg;
}

// -------------------------------------------------- lying state responder

MessagePtr LyingStateResponderBehavior::OnSend(NodeId /*from*/, NodeId /*to*/,
                                               const MessagePtr& msg) {
  if (msg->type() != pbft::kStateResponse) return msg;
  auto copy = std::make_shared<pbft::StateResponseMsg>(
      static_cast<const pbft::StateResponseMsg&>(*msg));
  copy->snapshot[forged_key_] = forged_value_;
  // Recompute the claimed digest over the forged snapshot so the receiver's
  // re-hash check passes; only quorum rules can catch this lie.
  storage::KvStore scratch;
  scratch.Restore(copy->snapshot);
  copy->state_digest = scratch.StateDigest();
  lies_++;
  sim_->counters().Inc(obs::CounterId::kByzStateLies);
  return copy;
}

// --------------------------------------------------- stale read responder

MessagePtr StaleReadResponderBehavior::OnSend(NodeId /*from*/, NodeId /*to*/,
                                              const MessagePtr& msg) {
  if (msg->type() != pbft::kReadReply) return msg;
  const auto& reply = static_cast<const pbft::ReadReplyMsg&>(*msg);
  if (reply.behind) return msg;  // redirects carry no value to lie about
  auto [it, inserted] = first_answer_.try_emplace(
      reply.key, reply.value, reply.found);
  if (inserted) return msg;  // first answer for this key becomes the lie
  if (it->second.first == reply.value && it->second.second == reply.found) {
    return msg;  // the truth has not moved yet
  }
  auto copy = std::make_shared<pbft::ReadReplyMsg>(reply);
  copy->value = it->second.first;
  copy->found = it->second.second;
  // Deliberately keep the fresh proof: its Merkle leaf still binds the
  // current truth, so the frozen value mismatches the proven one — exactly
  // what the client's inclusion check catches.
  lies_++;
  sim_->counters().Inc(obs::CounterId::kByzStaleReadLies);
  return copy;
}

// -------------------------------------------------- forging read responder

MessagePtr ForgingReadResponderBehavior::OnSend(NodeId /*from*/,
                                                NodeId /*to*/,
                                                const MessagePtr& msg) {
  if (msg->type() != pbft::kReadReply) return msg;
  const auto& reply = static_cast<const pbft::ReadReplyMsg&>(*msg);
  if (reply.behind) return msg;
  auto copy = std::make_shared<pbft::ReadReplyMsg>(reply);
  copy->found = true;
  copy->value = forged_value_;
  // Patch the proof's leaf so the reply is *internally* consistent: the
  // leaf hashes over the fabricated value, and the audit path keeps the
  // honest sibling digests. Under the old additive sum-digest this was a
  // complete forgery (solve rest = state - entry); against the Merkle tree
  // the patched leaf folds to a root other than the certified one.
  crypto::MerkleProof& proof = copy->proof.key_proof;
  if (!proof.present) {
    // The honest reply proved absence: claim the bracketing leaf's position
    // for the fabricated entry, ahead of the brackets it keeps.
    crypto::MerklePath claimed;
    if (proof.has_succ) {
      claimed = proof.succ();
    } else if (proof.has_pred) {
      claimed = proof.pred();
    }
    proof.present = true;
    proof.paths.insert(proof.paths.begin(), std::move(claimed));
  }
  proof.leaf().key = crypto::ReadDataLeafKey(reply.key);
  proof.leaf().value = forged_value_;
  // Also claim boundless read-your-writes coverage; verifiers must derive
  // coverage from the proof, never this field.
  copy->covered_write_ts = ~0ull;
  lies_++;
  sim_->counters().Inc(obs::CounterId::kByzForgedReadLies);
  return copy;
}

}  // namespace ziziphus::sim
