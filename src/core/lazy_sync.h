#ifndef ZIZIPHUS_CORE_LAZY_SYNC_H_
#define ZIZIPHUS_CORE_LAZY_SYNC_H_

#include <map>
#include <memory>

#include "common/costs.h"
#include "core/topology.h"
#include "crypto/certificate.h"
#include "crypto/read_certificate.h"
#include "sim/message.h"
#include "sim/simulation.h"
#include "storage/checkpoint.h"

namespace ziziphus::core {

enum LazySyncMessageType : sim::MessageType {
  kZoneCheckpoint = 55,
};

/// A zone's stable checkpoint shared with other zones: the last persisted
/// state of the zone's local data, certified by 2f+1 zone nodes.
struct ZoneCheckpointMsg : sim::Message {
  ZoneCheckpointMsg() : Message(kZoneCheckpoint) {}

  ZoneId zone = kInvalidZone;
  SeqNum seq = 0;
  std::uint64_t state_digest = 0;
  std::uint64_t read_root = 0;
  storage::KvStore::Map snapshot;
  std::map<ClientId, RequestTimestamp> coverage;
  crypto::Certificate cert;

  crypto::Digest ComputeDigest() const override {
    return crypto::CheckpointCertDigest(seq, state_digest, read_root);
  }
  std::size_t WireSize() const override {
    return 96 + snapshot.size() * 48 + coverage.size() * 16 +
           cert.size() * 16;
  }
};

/// Lazy synchronization (Section V-B): zones periodically replicate their
/// latest stable checkpoint on all other zones, so that if an entire zone
/// fails, transactions executed before its last stable checkpoint survive
/// elsewhere. The certificate is the 2f+1-signed PBFT checkpoint proof.
class LazySyncEngine {
 public:
  LazySyncEngine(sim::Process* process, const crypto::KeyRegistry* keys,
                 const Topology* topology, ZoneId my_zone, NodeCosts costs)
      : process_(process),
        keys_(keys),
        topology_(topology),
        my_zone_(my_zone),
        costs_(costs) {}

  /// Called by the host when the local PBFT instance reaches a stable
  /// checkpoint; the zone primary shares it with every zone in the cluster.
  void OnLocalStableCheckpoint(const storage::Checkpoint& cp,
                               bool i_am_primary);

  /// Routes kZoneCheckpoint; returns true if consumed.
  bool HandleMessage(const sim::MessagePtr& msg);

  /// Checkpoints of other zones replicated here.
  const storage::CheckpointStore& remote_checkpoints() const {
    return remote_;
  }

 private:
  sim::Process* process_;
  const crypto::KeyRegistry* keys_;
  const Topology* topology_;
  ZoneId my_zone_;
  NodeCosts costs_;
  storage::CheckpointStore remote_;
};

}  // namespace ziziphus::core

#endif  // ZIZIPHUS_CORE_LAZY_SYNC_H_
