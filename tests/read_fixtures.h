#ifndef ZIZIPHUS_TESTS_READ_FIXTURES_H_
#define ZIZIPHUS_TESTS_READ_FIXTURES_H_

// Hand-built checkpoint certificates and verified-read replies, shared by
// the read-path and client-core suites.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "crypto/read_certificate.h"
#include "pbft/messages.h"
#include "storage/kv_store.h"

namespace ziziphus::testutil {

inline crypto::Certificate MakeCheckpointCert(
    const crypto::KeyRegistry& keys, const std::vector<NodeId>& signers,
    SeqNum seq, std::uint64_t state_digest, crypto::Digest read_root) {
  crypto::Certificate cert;
  cert.digest = crypto::CheckpointCertDigest(seq, state_digest, read_root);
  for (NodeId n : signers) {
    cert.signatures.push_back(keys.Sign(n, cert.digest));
  }
  return cert;
}

/// A reply whose proof verifies against `store` as anchored at `anchor`,
/// certified by every member, covering `client`'s writes up to
/// `covered_ts`.
inline pbft::ReadReplyMsg ReplyFor(const crypto::KeyRegistry& keys,
                                   const std::vector<NodeId>& members,
                                   const storage::KvStore& store,
                                   SeqNum anchor, const std::string& key,
                                   RequestTimestamp covered_ts = 5,
                                   ClientId client = 100) {
  std::map<ClientId, RequestTimestamp> coverage = {{client, covered_ts}};
  crypto::MerkleTree tree = crypto::BuildReadTree(store.Snapshot(), coverage);
  pbft::ReadReplyMsg r;
  r.client = client;
  r.nonce = 1;
  r.replica = members[0];
  r.key = key;
  std::optional<std::string> v = store.Get(key);
  r.found = v.has_value();
  if (r.found) r.value = *v;
  r.proof.anchor_seq = anchor;
  r.proof.state_digest = store.StateDigest();
  r.proof.read_root = tree.root();
  r.proof.key_proof = tree.Prove(crypto::ReadDataLeafKey(key));
  r.proof.coverage_proof = tree.Prove(crypto::ReadCoverageLeafKey(client));
  r.proof.certificate = MakeCheckpointCert(keys, members, anchor,
                                           store.StateDigest(), tree.root());
  r.covered_write_ts = covered_ts;
  return r;
}

}  // namespace ziziphus::testutil

#endif  // ZIZIPHUS_TESTS_READ_FIXTURES_H_
