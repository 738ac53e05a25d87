#ifndef ZIZIPHUS_TESTS_READ_FIXTURES_H_
#define ZIZIPHUS_TESTS_READ_FIXTURES_H_

// Hand-built checkpoint certificates and verified-read replies, shared by
// the read-path and client-core suites, and a short recorded read run for
// the read-validity and read-memory suites.

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/bank.h"
#include "app/harness.h"
#include "core/system.h"
#include "crypto/read_certificate.h"
#include "pbft/messages.h"
#include "sim/invariants.h"
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

/// A short fault-free 3-zone run (seed 7) whose XFER pair clients chase
/// every completed transfer with a verified read of their own account,
/// keeping a witness of each read they accepted next to the deployment
/// that served it, so the invariant checker can judge them afterwards.
struct RecordedReadRun {
  RecordedReadRun() : sys(7, sim::LatencyModel::PaperGeoMatrix()) {
    for (ZoneId z = 0; z < 3; ++z) sys.AddZone(0, z, /*f=*/1, /*nodes=*/4);
    core::NodeConfig cfg = app::harness::FaultHarnessNodeConfig();
    cfg.pbft.checkpoint_interval = 2;  // anchors inside a short run
    sys.Finalize(cfg, [](ZoneId) {
      return std::make_unique<app::BankStateMachine>();
    });
    app::harness::RosterSpec spec;
    spec.zones = 3;
    spec.pairs_per_zone = 2;
    spec.xfers_per_client = 6;
    spec.think = Millis(100);
    spec.pair_reads = &witnesses;
    roster = app::harness::BuildRoster(sys, spec);
    roster.accounts.strict_zone_totals = roster.accounts.zone_load_totals;
    done = roster.Run(sys.sim(), Seconds(3), Seconds(40));
  }
  RecordedReadRun(const RecordedReadRun&) = delete;
  RecordedReadRun& operator=(const RecordedReadRun&) = delete;

  /// The run's invariant violations, judging `reads` as its witnesses.
  std::vector<sim::InvariantViolation> Check(
      std::vector<crypto::ReadWitness> reads) {
    sim::InvariantChecker::Options opt = app::harness::BankCheckerOptions();
    opt.accounts = roster.accounts;
    opt.read_witnesses = std::move(reads);
    return sim::InvariantChecker(std::move(opt)).Check(sys);
  }

  core::ZiziphusSystem sys;
  std::vector<crypto::ReadWitness> witnesses;
  app::harness::Roster roster;
  bool done = false;
};

}  // namespace ziziphus::testutil

#endif  // ZIZIPHUS_TESTS_READ_FIXTURES_H_
