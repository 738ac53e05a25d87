#ifndef ZIZIPHUS_CORE_MESSAGES_H_
#define ZIZIPHUS_CORE_MESSAGES_H_

#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/types.h"
#include "core/metadata.h"
#include "crypto/certificate.h"
#include "sim/message.h"
#include "storage/kv_store.h"

namespace ziziphus::core {

/// Global-protocol wire types occupy [40, 80).
enum CoreMessageType : sim::MessageType {
  kMigrationRequest = 40,
  kMigrationReply = 41,   // first sub-transaction committed (Alg. 1)
  kMigrationDone = 42,    // second sub-transaction done (Alg. 2, line 25)
  kEndorsePrePrepare = 43,
  kEndorsePrepare = 44,
  kEndorseVote = 45,
  kPropose = 46,
  kPromise = 47,
  kAccept = 48,
  kAccepted = 49,
  kGlobalCommit = 50,
  kStateTransfer = 51,
  kResponseQuery = 52,
  kCrossPropose = 53,
  kPrepared = 54,
  // 55 is kZoneCheckpoint (lazy_sync.h).
  kMigrationManifest = 57,  // chunked STATE: certified header + chunk digests
  kMigrationChunk = 58,     // chunked STATE: one slice of the records
};

/// Intra-zone endorsement phases. Each top-level message of the data
/// synchronization (Alg. 1), data migration (Alg. 2) and cross-cluster
/// protocols is endorsed by 2f+1 nodes of the sending zone in one of these
/// phases before leaving the zone.
enum class EndorsePhase : std::uint8_t {
  kPropose = 0,     // full PBFT (pre-prepare/prepare/local-propose)
  kPromise = 1,     // prepare skipped (pre-prepare/local-promise)
  kAccept = 2,      // full PBFT when it is the first phase (stable leader)
  kAccepted = 3,    // prepare skipped
  kCommit = 4,      // prepare skipped
  kMigrationState = 5,   // full PBFT on R(c) in the source zone
  kMigrationAppend = 6,  // prepare skipped; finalizes at every node
  kCrossSource = 7,      // full PBFT assigning the source-leg ballot
  // Used only by the two-level PBFT baseline (the paper's comparator where
  // PBFT, not Paxos, runs at the top level).
  kTLPrePrepare = 8,
  kTLPrepare = 9,
  kTLCommit = 10,
};

/// A migrating client's records R(c). Read once at the source and never
/// modified after, so the pre-prepare, each node's migration state, the
/// STATE message and the durable marker share one map instead of copying
/// it. Null reads as empty.
using RecordSet = std::shared_ptr<const storage::KvStore::Map>;

inline const storage::KvStore::Map& RecordsOf(const RecordSet& records) {
  static const storage::KvStore::Map kEmpty;
  return records != nullptr ? *records : kEmpty;
}

/// <MIG-REQUEST, op, ts_c, c>_sigma_c — sent by a migrating client to the
/// primary of the destination (initiator) zone.
struct MigrationRequestMsg : sim::Message {
  MigrationRequestMsg() : Message(kMigrationRequest) {}

  MigrationOp op;
  crypto::Signature client_sig;

  crypto::Digest ComputeDigest() const override {
    return Hasher(0x60)
        .Add(op.client)
        .Add(op.source)
        .Add(op.destination)
        .Add(op.timestamp)
        .Add(op.command)
        .Add(op.cross_zone ? 1 : 0)
        .Finish();
  }
  std::size_t WireSize() const override { return 96 + op.command.size(); }
};

/// Reply to the client from nodes of the initiator zone (first
/// sub-transaction) or of the destination zone (second sub-transaction,
/// type kMigrationDone). The client waits for f+1 matching replies.
struct MigrationReplyMsg : sim::Message {
  explicit MigrationReplyMsg(bool done = false)
      : Message(done ? kMigrationDone : kMigrationReply) {}

  std::uint64_t request_id = 0;
  ClientId client = kInvalidClient;
  RequestTimestamp timestamp = 0;
  NodeId replica = kInvalidNode;
  std::string result;

  crypto::Digest ComputeDigest() const override {
    return Hasher(0x61).Add(request_id).Add(timestamp).Add(result).Finish();
  }
};

// ------------------------------------------------------------------------
// Intra-zone endorsement messages (the green boxes of Figure 1).
// ------------------------------------------------------------------------

/// Pre-prepare of an endorsement: the zone primary asks its zone to certify
/// a top-level message. Carries the payload so nodes can validate it.
struct EndorsePrePrepareMsg : sim::Message {
  EndorsePrePrepareMsg() : Message(kEndorsePrePrepare) {}

  EndorsePhase phase = EndorsePhase::kPropose;
  std::uint64_t request_id = 0;
  ViewId view = 0;
  Ballot ballot;       // <n, z_i> of the global request
  Ballot prev;         // <l, z_l> — previous global request's ballot
  /// Digest the zone is being asked to certify (the top-level message's
  /// content digest).
  crypto::Digest content_digest = 0;
  /// The message being endorsed (propose/accept/... or the migration op /
  /// client records carried inline below).
  sim::MessagePtr payload;
  MigrationOp op;
  /// Batched global operations (data synchronization phases).
  std::vector<MigrationOp> ops;
  /// Client records for migration phases.
  RecordSet records;
  /// Whether the endorsement runs the prepare round (full PBFT). True where
  /// a ballot is being assigned; false where the zone merely certifies a
  /// message whose order is already fixed (Section IV-B1).
  bool full_prepare = false;
  crypto::Signature sig;

  crypto::Digest ComputeDigest() const override {
    return Hasher(0x62)
        .Add(static_cast<std::uint64_t>(phase))
        .Add(request_id)
        .Add(view)
        .Add(content_digest)
        .Finish();
  }
  std::size_t WireSize() const override {
    return 96 + ops.size() * 32 + RecordsOf(records).size() * 48 +
           (payload != nullptr ? 64 : 0);
  }
};

/// PBFT-style prepare, used only in full-prepare endorsement phases (the
/// initiator zone's initial ordering consensus; Alg. 1 lines 9-11).
struct EndorsePrepareMsg : sim::Message {
  EndorsePrepareMsg() : Message(kEndorsePrepare) {}

  EndorsePhase phase = EndorsePhase::kPropose;
  std::uint64_t request_id = 0;
  ViewId view = 0;
  crypto::Digest content_digest = 0;
  NodeId replica = kInvalidNode;
  crypto::Signature sig;

  crypto::Digest ComputeDigest() const override {
    return Hasher(0x63)
        .Add(static_cast<std::uint64_t>(phase))
        .Add(request_id)
        .Add(view)
        .Add(content_digest)
        .Finish();
  }
};

/// The local-propose / local-promise / local-accept / local-accepted /
/// local-commit / local-state vote: a signature over the content digest
/// that goes into the certificate.
struct EndorseVoteMsg : sim::Message {
  EndorseVoteMsg() : Message(kEndorseVote) {}

  EndorsePhase phase = EndorsePhase::kPropose;
  std::uint64_t request_id = 0;
  ViewId view = 0;
  crypto::Digest content_digest = 0;
  NodeId replica = kInvalidNode;
  /// Signature over content_digest (not over this envelope): votes from
  /// 2f+1 distinct replicas assemble into the certificate.
  crypto::Signature sig;

  crypto::Digest ComputeDigest() const override {
    return Hasher(0x64)
        .Add(static_cast<std::uint64_t>(phase))
        .Add(request_id)
        .Add(content_digest)
        .Add(replica)
        .Finish();
  }
};

// ------------------------------------------------------------------------
// Top-level (cross-zone) messages of the data synchronization protocol.
// ------------------------------------------------------------------------

/// Content digests certified by zone certificates. Free functions so both
/// senders and verifiers derive identical values.
/// Digest over a batch of global operations.
std::uint64_t OpsDigest(const std::vector<MigrationOp>& ops);

crypto::Digest ProposeContentDigest(std::uint64_t request_id, Ballot ballot,
                                    const std::vector<MigrationOp>& ops);
crypto::Digest PromiseContentDigest(std::uint64_t request_id, Ballot ballot,
                                    Ballot last_accepted, ZoneId zone);
crypto::Digest AcceptContentDigest(std::uint64_t request_id, Ballot ballot,
                                   Ballot prev,
                                   const std::vector<MigrationOp>& ops);
crypto::Digest AcceptedContentDigest(std::uint64_t request_id, Ballot ballot,
                                     Ballot prev, ZoneId zone);
crypto::Digest CommitContentDigest(std::uint64_t request_id, Ballot ballot,
                                   Ballot prev,
                                   const std::vector<MigrationOp>& ops);
crypto::Digest StateContentDigest(std::uint64_t request_id, ClientId client,
                                  std::uint64_t records_digest);
crypto::Digest PreparedContentDigest(std::uint64_t request_id,
                                     Ballot source_ballot, ZoneId zone);

/// <PROPOSE, v(z_i), <n,z_i>, C, d, m> — multicast by the global primary to
/// all nodes of every zone in scope.
struct ProposeMsg : sim::Message {
  ProposeMsg() : Message(kPropose) {}

  std::uint64_t request_id = 0;
  Ballot ballot;
  /// The batch of global operations ordered by this ballot (a stable
  /// leader batches concurrent migration requests exactly as a PBFT
  /// primary batches client requests).
  std::vector<MigrationOp> ops;
  crypto::Certificate cert;  // 2f+1 signatures from the initiator zone
  ZoneId initiator_zone = kInvalidZone;

  crypto::Digest ComputeDigest() const override {
    return ProposeContentDigest(request_id, ballot, ops);
  }
  std::size_t WireSize() const override {
    return 96 + ops.size() * 32 + cert.size() * 16;
  }
};

/// <PROMISE, v(z_f), <n,z_i>, <l,z_l>, C_f, d> — follower zone to initiator
/// zone nodes.
struct PromiseMsg : sim::Message {
  PromiseMsg() : Message(kPromise) {}

  std::uint64_t request_id = 0;
  Ballot ballot;
  Ballot last_accepted;  // latest accepted migration ballot at z_f
  ZoneId zone = kInvalidZone;
  crypto::Certificate cert;

  crypto::Digest ComputeDigest() const override {
    return PromiseContentDigest(request_id, ballot, last_accepted, zone);
  }
  std::size_t WireSize() const override { return 112 + cert.size() * 16; }
};

/// <ACCEPT, v(z_i), <n,z_i>, <l,z_l>, C, d> — carries the op so zones that
/// missed the propose (stable-leader mode has none) learn it.
struct AcceptMsg : sim::Message {
  AcceptMsg() : Message(kAccept) {}

  std::uint64_t request_id = 0;
  Ballot ballot;
  Ballot prev;
  std::vector<MigrationOp> ops;
  ZoneId initiator_zone = kInvalidZone;
  crypto::Certificate cert;

  crypto::Digest ComputeDigest() const override {
    return AcceptContentDigest(request_id, ballot, prev, ops);
  }
  std::size_t WireSize() const override {
    return 112 + ops.size() * 32 + cert.size() * 16;
  }
};

/// <ACCEPTED, v(z_f), <n,z_i>, <l,z_l>, C_f, d>
struct AcceptedMsg : sim::Message {
  AcceptedMsg() : Message(kAccepted) {}

  std::uint64_t request_id = 0;
  Ballot ballot;
  Ballot prev;
  ZoneId zone = kInvalidZone;
  crypto::Certificate cert;

  crypto::Digest ComputeDigest() const override {
    return AcceptedContentDigest(request_id, ballot, prev, zone);
  }
  std::size_t WireSize() const override { return 112 + cert.size() * 16; }
};

/// <COMMIT, v(z_i), <n,z_i>, <l,z_l>, C, d> — multicast to all nodes of
/// every zone in scope; every receiver executes once the previous global
/// transaction has executed. For cross-cluster commits the source-leg
/// ballot/cert travel along.
struct GlobalCommitMsg : sim::Message {
  GlobalCommitMsg() : Message(kGlobalCommit) {}

  std::uint64_t request_id = 0;
  Ballot ballot;
  Ballot prev;
  std::vector<MigrationOp> ops;
  ZoneId initiator_zone = kInvalidZone;
  crypto::Certificate cert;

  // Cross-cluster extension (Section VI): the source cluster's ordering.
  bool cross_cluster = false;
  Ballot source_ballot;
  Ballot source_prev;
  ZoneId source_zone = kInvalidZone;
  crypto::Certificate source_cert;

  crypto::Digest ComputeDigest() const override {
    return CommitContentDigest(request_id, ballot, prev, ops);
  }
  std::size_t WireSize() const override {
    return 112 + ops.size() * 32 + (cert.size() + source_cert.size()) * 16;
  }
};

// ------------------------------------------------------------------------
// Data migration protocol (Algorithm 2).
// ------------------------------------------------------------------------

/// <STATE, v(z_s), <n,z_i>, C, R(c), d_c, d> — source zone to destination
/// zone, carrying the client's records with a 2f+1 certificate.
struct StateTransferMsg : sim::Message {
  StateTransferMsg() : Message(kStateTransfer) {}

  std::uint64_t request_id = 0;
  Ballot ballot;
  ClientId client = kInvalidClient;
  RequestTimestamp timestamp = 0;
  ZoneId source_zone = kInvalidZone;
  RecordSet records;
  std::uint64_t records_digest = 0;
  crypto::Certificate cert;

  crypto::Digest ComputeDigest() const override {
    return StateContentDigest(request_id, client, records_digest);
  }
  std::size_t WireSize() const override {
    return 128 + RecordsOf(records).size() * 48 + cert.size() * 16;
  }
};

/// Manifest of a chunked STATE transfer: the certified header of a
/// StateTransferMsg without the records, plus a digest per chunk. Large
/// client states stream as MigrationChunkMsg slices instead of one giant
/// STATE message; the destination reassembles them, checks each slice
/// against its manifest digest, recomputes the full records digest and then
/// synthesizes the ordinary StateTransferMsg. The 2f+1 certificate covers
/// (request_id, client, records_digest) — independent of how the records
/// travelled — so the synthesized message verifies iff the reassembled
/// records are exactly the certified ones.
struct MigrationManifestMsg : sim::Message {
  MigrationManifestMsg() : Message(kMigrationManifest) {}

  std::uint64_t request_id = 0;
  Ballot ballot;
  ClientId client = kInvalidClient;
  RequestTimestamp timestamp = 0;
  ZoneId source_zone = kInvalidZone;
  std::uint64_t records_digest = 0;
  std::vector<std::uint64_t> chunk_digests;
  crypto::Certificate cert;

  crypto::Digest ComputeDigest() const override {
    return StateContentDigest(request_id, client, records_digest);
  }
  std::size_t WireSize() const override {
    return 128 + chunk_digests.size() * 8 + cert.size() * 16;
  }
};

/// One slice of a chunked STATE transfer, identified by (request_id,
/// index). Carries no certificate of its own — authenticity comes from the
/// manifest's per-chunk digest and, ultimately, from the certified records
/// digest of the reassembled whole.
struct MigrationChunkMsg : sim::Message {
  MigrationChunkMsg() : Message(kMigrationChunk) {}

  std::uint64_t request_id = 0;
  std::uint32_t index = 0;
  storage::KvStore::Map records;

  crypto::Digest ComputeDigest() const override {
    return Hasher(0x517e).Add(request_id).Add(index).Finish();
  }
  std::size_t WireSize() const override { return 32 + records.size() * 48; }
};

// ------------------------------------------------------------------------
// Failure handling (Section V-A) and cross-cluster (Section VI).
// ------------------------------------------------------------------------

/// <RESPONSE-QUERY, v(z_f), <n,z_i>, d, r> — probes another zone for the
/// outcome of a request whose next-phase message never arrived.
struct ResponseQueryMsg : sim::Message {
  ResponseQueryMsg() : Message(kResponseQuery) {}

  std::uint64_t request_id = 0;
  Ballot ballot;
  ZoneId zone = kInvalidZone;  // querying zone
  NodeId replica = kInvalidNode;
  crypto::Signature sig;

  crypto::Digest ComputeDigest() const override {
    return Hasher(0x6a).Add(request_id).Add(replica).Add(zone).Finish();
  }
};

/// <CROSS-PROPOSE, v(z_i), <n,z_i>, C, d, m> — sent by the f+1 proxy nodes
/// of the destination zone to all nodes of the source zone. The certificate
/// is the destination zone's accept-phase endorsement, so the digest covers
/// the same (ballot, prev, op) content.
struct CrossProposeMsg : sim::Message {
  CrossProposeMsg() : Message(kCrossPropose) {}

  std::uint64_t request_id = 0;
  Ballot ballot;  // destination-leg ballot <n, z_i>
  Ballot prev;    // destination-leg predecessor
  MigrationOp op;
  ZoneId initiator_zone = kInvalidZone;
  crypto::Certificate cert;

  crypto::Digest ComputeDigest() const override {
    return AcceptContentDigest(request_id, ballot, prev, {op});
  }
  std::size_t WireSize() const override { return 144 + cert.size() * 16; }
};

/// <PREPARED, v(z_j), <m,z_j>, C_s, d, r> — proxies of the source zone tell
/// the destination zone that the source cluster has prepared the request.
struct PreparedMsg : sim::Message {
  PreparedMsg() : Message(kPrepared) {}

  std::uint64_t request_id = 0;
  Ballot source_ballot;
  Ballot source_prev;
  ZoneId source_zone = kInvalidZone;
  crypto::Certificate cert;

  crypto::Digest ComputeDigest() const override {
    return PreparedContentDigest(request_id, source_ballot, source_zone);
  }
  std::size_t WireSize() const override { return 112 + cert.size() * 16; }
};

}  // namespace ziziphus::core

#endif  // ZIZIPHUS_CORE_MESSAGES_H_
