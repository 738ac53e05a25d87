#ifndef ZIZIPHUS_APP_WORKLOAD_H_
#define ZIZIPHUS_APP_WORKLOAD_H_

#include <cstddef>
#include <map>
#include <vector>

#include "common/types.h"
#include "crypto/read_certificate.h"
#include "crypto/signature.h"
#include "pbft/messages.h"

namespace ziziphus::app {

/// The typed client operation model: everything a mobile edge client can do.
enum class ClientOp {
  kTransfer,  // local transaction in the home zone (XFER / DEP)
  kRead,      // verified fast-path read of the client's own account
  kMigrate,   // global transaction: move the client to another zone
};

/// One knob set describing an operation mix, shared by the experiment
/// runner, chaos, soak and the benches so no call site grows its own loose
/// fraction parameters. Drawn per issued operation: first the read/write
/// coin, then (for writes) the local/global coin, then (for globals) the
/// in-/cross-cluster coin.
struct WorkloadMix {
  /// Fraction of operations that are reads (90/10 and 99/1 cells).
  double read_fraction = 0.0;
  /// Fraction of *non-read* operations that are global (migrations; the
  /// Steward baseline treats every non-read as global regardless).
  double global_fraction = 0.1;
  /// Fraction of *global* operations whose destination lies in another
  /// zone cluster (Figure 8 workloads).
  double cross_cluster_fraction = 0.0;
};

/// Per-client session token carried across operations (and across
/// migrations — the token lives in the client, not in any zone). The
/// watermarks are what make the single-replica read path safe:
///
///  - `last_write_ts` is the client timestamp of its latest *mutating*
///    completed operation; a replica may only serve a read once its stable
///    checkpoint covers that write (read-your-writes).
///  - `stable_floor[z]` is the highest checkpoint sequence zone `z` ever
///    anchored a read for this session; accepting an older anchor would
///    travel back in time (monotonic reads).
///
/// In causal mode the floor vector additionally rides on writes as
/// dependency metadata (Byz-GentleRain style), so a write in one zone
/// cannot be observed before the reads it was based on.
struct Session {
  RequestTimestamp last_write_ts = 0;
  std::map<ZoneId, SeqNum> stable_floor;

  SeqNum FloorFor(ZoneId zone) const {
    auto it = stable_floor.find(zone);
    return it == stable_floor.end() ? 0 : it->second;
  }
  void AdvanceFloor(ZoneId zone, SeqNum seq) {
    SeqNum& floor = stable_floor[zone];
    if (seq > floor) floor = seq;
  }
  /// Max-merges a dependency vector from a read reply (causal mode).
  void MergeDeps(const std::map<ZoneId, SeqNum>& deps) {
    for (const auto& [zone, seq] : deps) AdvanceFloor(zone, seq);
  }
};

/// Client-side verdict on one read reply.
enum class ReadVerdict {
  kOk,              // certificate + Merkle proofs verified, session satisfied
  kBehind,          // replica said it cannot cover the session yet
  kBadCertificate,  // checkpoint certificate failed f+1 verification
  kBadInclusion,    // key proof does not bind the value to the read root
  kBadCoverage,     // coverage proof does not verify under the read root
  kStaleAnchor,     // anchor older than the session's floor for this zone
  kStaleWrite,      // proven coverage below the session's last write
};

const char* ReadVerdictName(ReadVerdict v);

/// Verifies a single-replica read reply against the session token:
/// certificate over the anchored checkpoint (quorum f+1 out of
/// `zone_members`), Merkle binding of (key, value) and of the client's
/// read-your-writes coverage to the certified read root, and the session's
/// monotonic-read / read-your-writes watermarks — the coverage check uses
/// the *proven* timestamp, never the replica's claimed one. Pure function
/// of its inputs so the client core and tests reuse it verbatim.
ReadVerdict VerifyReadReply(const crypto::KeyRegistry& keys,
                            const std::vector<NodeId>& zone_members,
                            std::size_t f, const pbft::ReadReplyMsg& reply,
                            const Session& session, ZoneId zone);

}  // namespace ziziphus::app

#endif  // ZIZIPHUS_APP_WORKLOAD_H_
