#ifndef ZIZIPHUS_PBFT_MESSAGES_H_
#define ZIZIPHUS_PBFT_MESSAGES_H_

#include <map>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/types.h"
#include "crypto/certificate.h"
#include "crypto/read_certificate.h"
#include "sim/message.h"
#include "storage/kv_store.h"

namespace ziziphus::pbft {

/// PBFT wire types occupy [10, 30).
enum PbftMessageType : sim::MessageType {
  kClientRequest = 10,
  kClientReply = 11,
  kPrePrepare = 12,
  kPrepare = 13,
  kCommit = 14,
  kCheckpoint = 15,
  kViewChange = 16,
  kNewView = 17,
  kStateRequest = 18,
  kStateResponse = 19,
  kReadRequest = 20,
  kReadReply = 21,
  kFastVote = 22,
};

/// An application operation as carried by consensus: an opaque command
/// string interpreted only by the replicated state machine.
struct Operation {
  ClientId client = kInvalidClient;
  RequestTimestamp timestamp = 0;
  std::string command;

  crypto::Digest ComputeDigest() const {
    return Hasher(0x09)
        .Add(client)
        .Add(timestamp)
        .Add(command)
        .Finish();
  }
  friend bool operator==(const Operation&, const Operation&) = default;
};

/// <REQUEST, o, t, c>_sigma_c — client request (authenticated with a MAC in
/// the cost model; carries a signature object for validity checks).
struct ClientRequestMsg : sim::Message {
  ClientRequestMsg() : Message(kClientRequest) {}

  Operation op;
  crypto::Signature client_sig;
  /// Causal sessions: the writer's per-zone stable-seq floors, max-merged by
  /// replicas into the dependency vector their read replies advertise. Deps
  /// are advisory freshness floors (never a safety input), but they are
  /// client-originated data and requests are relayed through backups — so
  /// they ARE part of the signed digest: a Byzantine forwarder that strips
  /// or lowers them invalidates the client signature instead of silently
  /// weakening causal-mode freshness for every reader downstream.
  std::map<ZoneId, SeqNum> deps;

  crypto::Digest ComputeDigest() const override {
    Hasher h(0x17);
    h.Add(op.ComputeDigest());
    for (const auto& [zone, seq] : deps) h.Add(zone).Add(seq);
    return h.Finish();
  }
  std::size_t WireSize() const override {
    return 64 + op.command.size() + deps.size() * 16;
  }
};

/// <REPLY, v, t, c, r>_sigma_i
struct ClientReplyMsg : sim::Message {
  ClientReplyMsg() : Message(kClientReply) {}

  ViewId view = 0;
  RequestTimestamp timestamp = 0;
  ClientId client = kInvalidClient;
  NodeId replica = kInvalidNode;
  std::string result;

  crypto::Digest ComputeDigest() const override {
    return Hasher(0x0a)
        .Add(view)
        .Add(timestamp)
        .Add(client)
        .Add(result)
        .Finish();
  }
  std::size_t WireSize() const override { return 48 + result.size(); }
};

/// A batch of operations ordered as one PBFT slot.
struct Batch {
  std::vector<Operation> ops;

  crypto::Digest ComputeDigest() const {
    Hasher h(0x0b);
    for (const auto& op : ops) h.Add(op.ComputeDigest());
    return h.Finish();
  }
  std::size_t WireSizeBytes() const {
    std::size_t s = 16;
    for (const auto& op : ops) s += 40 + op.command.size();
    return s;
  }
};

/// <PRE-PREPARE, v, n, d, m>_sigma_p
struct PrePrepareMsg : sim::Message {
  PrePrepareMsg() : Message(kPrePrepare) {}

  ViewId view = 0;
  SeqNum seq = 0;
  crypto::Digest batch_digest = 0;
  Batch batch;
  crypto::Signature sig;

  /// Digest of the ordering assertion (view, seq, batch digest): what
  /// prepare/commit messages refer to and what the primary signs.
  crypto::Digest ComputeDigest() const override {
    return Hasher(0x0c).Add(view).Add(seq).Add(batch_digest).Finish();
  }
  std::size_t WireSize() const override {
    return 64 + batch.WireSizeBytes();
  }
};

/// <PREPARE, v, n, d, i>_sigma_i
struct PrepareMsg : sim::Message {
  PrepareMsg() : Message(kPrepare) {}

  ViewId view = 0;
  SeqNum seq = 0;
  crypto::Digest batch_digest = 0;
  NodeId replica = kInvalidNode;
  crypto::Signature sig;

  crypto::Digest ComputeDigest() const override {
    return Hasher(0x0d).Add(view).Add(seq).Add(batch_digest).Finish();
  }
};

/// <FAST-VOTE, v, n, d, i>_sigma_i — the optimistic fast path's single vote
/// round (Ordering::kFastPath). A fast vote asserts exactly what a prepare
/// asserts — "I accepted pre-prepare (v, n, d)" — so receivers fold it into
/// the prepare tally too: 2f+1 matching fast votes make the slot prepared
/// (classic safety, view-change carryover and durable proofs included),
/// and all 3f+1 matching fast votes commit it without waiting for the
/// commit round.
struct FastVoteMsg : sim::Message {
  FastVoteMsg() : Message(kFastVote) {}

  ViewId view = 0;
  SeqNum seq = 0;
  crypto::Digest batch_digest = 0;
  NodeId replica = kInvalidNode;
  crypto::Signature sig;

  crypto::Digest ComputeDigest() const override {
    return Hasher(0x0f).Add(view).Add(seq).Add(batch_digest).Finish();
  }
};

/// <COMMIT, v, n, d, i>_sigma_i
struct CommitMsg : sim::Message {
  CommitMsg() : Message(kCommit) {}

  ViewId view = 0;
  SeqNum seq = 0;
  crypto::Digest batch_digest = 0;
  NodeId replica = kInvalidNode;
  crypto::Signature sig;

  crypto::Digest ComputeDigest() const override {
    return Hasher(0x0e).Add(view).Add(seq).Add(batch_digest).Finish();
  }
};

/// <CHECKPOINT, n, d, r, i>_sigma_i — state digest and read-tree root at
/// sequence n. The signed digest covers both, so the resulting certificate
/// simultaneously proves the snapshot (state transfer) and anchors
/// key/value/coverage-binding read proofs (crypto::ReadProof).
struct CheckpointMsg : sim::Message {
  CheckpointMsg() : Message(kCheckpoint) {}

  SeqNum seq = 0;
  std::uint64_t state_digest = 0;
  std::uint64_t read_root = 0;
  NodeId replica = kInvalidNode;
  crypto::Signature sig;

  crypto::Digest ComputeDigest() const override {
    return crypto::CheckpointCertDigest(seq, state_digest, read_root);
  }
};

/// Proof that a slot prepared in some view: the pre-prepare's identity plus
/// (implicitly, in this simulation) 2f matching prepares. Carried in
/// view-change messages.
struct PreparedProof {
  ViewId view = 0;
  SeqNum seq = 0;
  crypto::Digest batch_digest = 0;
  Batch batch;

  crypto::Digest ComputeDigest() const {
    return Hasher(0x10).Add(view).Add(seq).Add(batch_digest).Finish();
  }
};

/// <VIEW-CHANGE, v+1, n_stable, C, P, F, i>_sigma_i
struct ViewChangeMsg : sim::Message {
  ViewChangeMsg() : Message(kViewChange) {}

  ViewId new_view = 0;
  SeqNum stable_seq = 0;
  std::vector<PreparedProof> prepared;
  /// Fast votes this replica cast (view, seq, digest, batch — PreparedProof
  /// doubles as the carrier), for slots above the stable checkpoint. A
  /// fast-committed slot leaves no 2f+1 prepared certificate behind at the
  /// other replicas, only the 3f+1 unanimous votes — so those votes must
  /// survive the view change the same way prepared certificates do, or the
  /// new primary no-op-fills a sequence number some replica already
  /// executed (the Zyzzyva view-change bug). Since a fast commit requires
  /// every member's vote, any 2f+1 view-change quorum contains >= f+1
  /// honest reporters of the committed digest; MaybeSendNewView reproposes
  /// on that threshold.
  std::vector<PreparedProof> fast_votes;
  NodeId replica = kInvalidNode;
  crypto::Signature sig;

  crypto::Digest ComputeDigest() const override {
    Hasher h(0x11);
    h.Add(new_view).Add(stable_seq).Add(replica);
    for (const auto& p : prepared) h.Add(p.ComputeDigest());
    // Domain-separated per entry so a proof cannot migrate between the
    // prepared and fast-vote sections without breaking the signature. An
    // empty vector adds nothing: stable-ordering view changes hash (and
    // sign) exactly as before.
    for (const auto& p : fast_votes) h.Add(0xfa).Add(p.ComputeDigest());
    return h.Finish();
  }
  std::size_t WireSize() const override {
    return 96 + prepared.size() * 72 + fast_votes.size() * 72;
  }
};

/// <NEW-VIEW, v+1, V, O>_sigma_p
struct NewViewMsg : sim::Message {
  NewViewMsg() : Message(kNewView) {}

  ViewId new_view = 0;
  /// Signers of the 2f+1 view-change messages justifying this view.
  std::vector<NodeId> view_change_sources;
  /// Re-proposed pre-prepares for prepared-but-uncommitted slots.
  std::vector<PreparedProof> reproposals;
  SeqNum stable_seq = 0;
  crypto::Signature sig;

  crypto::Digest ComputeDigest() const override {
    Hasher h(0x12);
    h.Add(new_view).Add(stable_seq);
    for (NodeId n : view_change_sources) h.Add(n);
    for (const auto& p : reproposals) h.Add(p.ComputeDigest());
    return h.Finish();
  }
  std::size_t WireSize() const override {
    return 96 + reproposals.size() * 72 + view_change_sources.size() * 8;
  }
};

/// Asks a peer for the application snapshot at a stable checkpoint.
struct StateRequestMsg : sim::Message {
  StateRequestMsg() : Message(kStateRequest) {}

  SeqNum seq = 0;
  NodeId replica = kInvalidNode;
  /// Highest sequence number the requester has executed: its delta anchor.
  /// A responder that still holds every committed batch in
  /// (have_seq, last_executed] ships just those ops instead of the full
  /// snapshot. 0 means "no usable anchor, send the snapshot". Not part of
  /// the digest so the wire format stays compatible; a lying `have_seq`
  /// only changes what the requester re-validates on install.
  SeqNum have_seq = 0;

  crypto::Digest ComputeDigest() const override {
    return Hasher(0x13).Add(seq).Add(replica).Finish();
  }
};

/// One committed batch shipped as part of a delta state transfer.
struct DeltaEntry {
  SeqNum seq = 0;
  crypto::Digest batch_digest = 0;
  Batch batch;
};

/// Snapshot transfer; the receiver validates `state_digest` against the
/// 2f+1-agreed checkpoint digest before installing.
///
/// Delta form (`is_delta`): instead of the snapshot, `delta` carries every
/// committed batch in (base_seq, seq] — the requester replays them on top
/// of its own state and then verifies the resulting StateDigest against
/// `state_digest`, so a wrong or malicious delta can never install.
struct StateResponseMsg : sim::Message {
  StateResponseMsg() : Message(kStateResponse) {}

  SeqNum seq = 0;
  std::uint64_t state_digest = 0;
  storage::KvStore::Map snapshot;
  /// Last executed timestamp per client at the responder. Max-merged into
  /// the receiver's client table on install, so a recovered replica regains
  /// exactly-once semantics for requests executed during its outage.
  std::map<ClientId, RequestTimestamp> client_ts;
  /// Delta transfer: ops since the requester's anchor instead of the
  /// snapshot.
  bool is_delta = false;
  SeqNum base_seq = 0;
  std::vector<DeltaEntry> delta;

  crypto::Digest ComputeDigest() const override {
    return Hasher(0x14).Add(seq).Add(state_digest).Finish();
  }
  std::size_t WireSize() const override {
    std::size_t s = 64 + snapshot.size() * 48 + client_ts.size() * 16;
    for (const auto& e : delta) s += 24 + e.batch.WireSizeBytes();
    return s;
  }
};

/// Single-replica read on the fast path: no consensus round, answered from
/// the replica's last stable checkpoint with a checkpoint-anchored proof.
/// The session watermarks ride along so a replica that cannot satisfy them
/// says so (reply.behind) instead of serving a stale view.
struct ReadRequestMsg : sim::Message {
  ReadRequestMsg() : Message(kReadRequest) {}

  ClientId client = kInvalidClient;
  /// Read nonce (separate counter from the write timestamp stream; reads
  /// never enter the replicated client table).
  RequestTimestamp nonce = 0;
  std::string key;
  /// Monotonic-reads floor: lowest checkpoint seq the client will accept
  /// from this zone.
  SeqNum min_stable_seq = 0;
  /// Read-your-writes floor: the client's last mutating timestamp; the
  /// serving checkpoint must cover it.
  RequestTimestamp min_write_ts = 0;
  crypto::Signature client_sig;

  crypto::Digest ComputeDigest() const override {
    return Hasher(0x15)
        .Add(client)
        .Add(nonce)
        .Add(key)
        .Add(min_stable_seq)
        .Add(min_write_ts)
        .Finish();
  }
  std::size_t WireSize() const override { return 72 + key.size(); }
};

/// Reply to a ReadRequest. `behind` means the replica could not satisfy the
/// watermarks (no stable checkpoint yet, checkpoint older than the
/// monotonic floor, or the client's last write not yet covered) and the
/// client should redirect or fall back to a full transaction. Otherwise the
/// value plus proof let the client verify the read against f+1 checkpoint
/// signers without trusting this single replica: the proof's Merkle paths
/// bind the value AND the read-your-writes coverage to the certified root.
struct ReadReplyMsg : sim::Message {
  ReadReplyMsg() : Message(kReadReply) {}

  ClientId client = kInvalidClient;
  RequestTimestamp nonce = 0;
  NodeId replica = kInvalidNode;
  std::string key;
  std::string value;
  bool found = false;
  bool behind = false;
  crypto::ReadProof proof;
  /// Highest timestamp of the requesting client covered by the serving
  /// checkpoint. A claim, not a proof: verifiers derive the provable
  /// coverage from proof.coverage_proof and ignore this field for safety
  /// decisions (it feeds logging/metrics only).
  RequestTimestamp covered_write_ts = 0;
  /// Causal mode: per-zone stable-seq floors merged from writers whose ops
  /// this replica executed (Byz-GentleRain-style stabilization vector,
  /// coarsened to checkpoint granularity). Advisory — raising a floor can
  /// only make the reader demand fresher state, never accept staler.
  std::map<ZoneId, SeqNum> deps;

  crypto::Digest ComputeDigest() const override {
    return Hasher(0x16)
        .Add(client)
        .Add(nonce)
        .Add(replica)
        .Add(key)
        .Add(value)
        .Add(found ? 1 : 0)
        .Add(behind ? 1 : 0)
        .Add(proof.anchor_seq)
        .Add(proof.state_digest)
        .Add(proof.read_root)
        .Add(proof.key_proof.ContentsDigest())
        .Add(proof.coverage_proof.ContentsDigest())
        .Add(covered_write_ts)
        .Finish();
  }
  std::size_t WireSize() const override {
    return 96 + key.size() + value.size() +
           proof.certificate.size() * 24 + deps.size() * 16 +
           proof.key_proof.WireSize() + proof.coverage_proof.WireSize();
  }
};

}  // namespace ziziphus::pbft

#endif  // ZIZIPHUS_PBFT_MESSAGES_H_
