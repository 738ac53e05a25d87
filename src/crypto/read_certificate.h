#ifndef ZIZIPHUS_CRYPTO_READ_CERTIFICATE_H_
#define ZIZIPHUS_CRYPTO_READ_CERTIFICATE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/types.h"
#include "crypto/certificate.h"
#include "crypto/merkle.h"

namespace ziziphus::crypto {

/// Digest a PBFT checkpoint certificate signs: the (seq, state digest,
/// read root) triple every replica multicasts in its CheckpointMsg. The
/// read root is the Merkle root over the checkpoint snapshot *and* the
/// per-client read-coverage table (see BuildReadTree), so both the values a
/// read serves and the read-your-writes coverage it claims are certified by
/// 2f+1 signers — not asserted by the single replying replica. Shared by
/// the engine (when building the certificate), the read path (when
/// anchoring a read proof) and the invariant checker, so all three agree on
/// the construction.
Digest CheckpointCertDigest(SeqNum seq, std::uint64_t state_digest,
                            Digest read_root);

/// Leaf-key namespaces of the read tree. Data keys and coverage entries
/// live in one tree under disjoint prefixes, so one certified root vouches
/// for both and membership/non-membership machinery is shared.
std::string ReadDataLeafKey(const std::string& key);
std::string ReadCoverageLeafKey(ClientId client);

/// Builds the read tree of a checkpoint: one leaf per snapshot entry plus
/// one leaf per client in the coverage table (value = decimal timestamp of
/// the client's highest covered write). Every honest replica derives an
/// identical tree from identical checkpoint state, which is what lets the
/// root ride inside the checkpoint certificate.
MerkleTree BuildReadTree(
    const std::map<std::string, std::string>& snapshot,
    const std::map<ClientId, RequestTimestamp>& coverage);

/// Proof that one key/value pair is (or is not) part of a zone's stable
/// checkpoint, binding to the key and value. The certificate vouches for
/// (anchor_seq, state_digest, read_root); `key_proof` is a Merkle
/// membership (or non-membership) path for the key's data leaf under
/// read_root, and `coverage_proof` the same for the reading client's
/// coverage leaf — proving how much of the client's own write history the
/// anchored checkpoint covers. A Byzantine replica holding a valid
/// certificate still cannot serve a fabricated or stale value: any value
/// other than the committed one (or a false claim of absence) requires a
/// path folding to the certified root, which it cannot construct without
/// the committed snapshot actually containing the lie.
struct ReadProof {
  SeqNum anchor_seq = 0;
  std::uint64_t state_digest = 0;
  Digest read_root = 0;
  MerkleProof key_proof;
  MerkleProof coverage_proof;
  Certificate certificate;
};

/// Verifies a read proof end to end: the checkpoint certificate carries at
/// least `quorum` valid zone-member signatures over
/// CheckpointCertDigest(anchor_seq, state_digest, read_root); the key proof
/// binds `key` to exactly (`found`, `value`) under the certified root; and
/// the coverage proof binds `client`'s covered-write timestamp, returned
/// through `*covered_ts` (0 when the client has no coverage leaf; pass null
/// to skip the output). `quorum` is f+1 for client-side verification — one
/// honest signer suffices to make the anchored state real.
Status VerifyReadProof(const KeyRegistry& keys, const ReadProof& proof,
                       const std::string& key, bool found,
                       const std::string& value, ClientId client,
                       std::size_t quorum,
                       const std::function<bool(NodeId)>& is_member,
                       RequestTimestamp* covered_ts);

/// One accepted fast-path read, retained by honest clients so the
/// InvariantChecker can re-verify every read the run served: certificate
/// validity, Merkle binding of the value, anchor monotonicity against the
/// floor the session held when the read was issued — and, with the
/// checker's global visibility, the witnessed value against the ground
/// truth honest replicas actually committed at the anchor.
///
/// The proof is built once, when the client accepts the read, and shared
/// immutably: copying a witness (as the checker's options do) copies a
/// pointer and two short strings. A test that tampers with a witness
/// replaces the pointer with a fresh proof; it never writes through it.
struct ReadWitness {
  ClientId client = kInvalidClient;
  ZoneId zone = 0;
  std::string key;
  std::string value;
  bool found = false;
  std::shared_ptr<const ReadProof> proof;
  /// Session watermark for `zone` when the read was issued; the accepted
  /// anchor must not be older (monotonic reads).
  SeqNum floor_before = 0;
};

}  // namespace ziziphus::crypto

#endif  // ZIZIPHUS_CRYPTO_READ_CERTIFICATE_H_
