#ifndef ZIZIPHUS_CORE_DURABLE_H_
#define ZIZIPHUS_CORE_DURABLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>

#include "common/types.h"
#include "core/messages.h"
#include "core/metadata.h"
#include "pbft/durable.h"
#include "storage/kv_store.h"

namespace ziziphus::core {

/// Durable slice of the data-synchronization engine — the ballot
/// bookkeeping a restarted zone replica must never forget (Section V's
/// failure handling assumes promises survive restarts; forgetting one would
/// let the replica double-vote a global ballot). The engine keeps these
/// fields nowhere else: it reads and writes them here, so there is no copy
/// to fall behind and nothing to reload after a crash.
struct SyncDurableState {
  /// Per-request promise bound (zone-primary path of HandlePropose).
  std::map<std::uint64_t, Ballot> promised;
  /// Latest migration ballot accepted by this zone (the <l, z_l> carried in
  /// promise messages).
  Ballot last_accepted_ballot = kNullBallot;
  /// Ballot-number floor: NextBallot must climb strictly above everything
  /// this node ever saw (in a pre-prepare it voted on, a propose or an
  /// accept) or issued, across restarts.
  std::uint64_t highest_n_seen = 0;
  /// Tail of this zone's chain, and of its cross-chain: cross-cluster and
  /// cross-zone requests chain separately (virtual chain id my_zone +
  /// num_zones), so a slow two-cluster commit never stalls the
  /// intra-cluster pipeline behind it. Global operations commute across
  /// chains; per-client ordering is enforced by the migration lock.
  Ballot my_last_ballot = kNullBallot;
  Ballot my_last_cross_ballot = kNullBallot;
  /// Execution bookkeeping: per-chain watermarks (the highest ballot
  /// executed), the holes below them (predecessors a chain skip stepped
  /// over, until their own commit executes; usually empty), and the
  /// per-client op watermarks that decide exactly-once for every global
  /// op, so a recovered node neither re-executes a migration nor breaks
  /// the per-chain execution order.
  std::map<ZoneId, Ballot> chain_executed;
  std::map<ZoneId, std::set<Ballot>> chain_holes;
  ExecutedOps executed_ops;
  std::uint64_t executed_op_count = 0;
};

/// Durable migration progress markers (Algorithm 2). One marker per
/// migration this node participates in that is in flight or not yet
/// covered: enough for the source to keep answering response-queries with
/// the certified STATE message after a restart, and for the destination to
/// resume waiting (or re-install an already-appended client's records into
/// the rebuilt app). A destination's appended marker retires once this
/// node's stable checkpoint covers its install; the install watermark keeps
/// a late STATE for it a no-op.
struct MigrationDurableState {
  struct Marker {
    /// The migration op, minus its command (always empty for a migration).
    ClientId client = kInvalidClient;
    ZoneId source = kInvalidZone;
    ZoneId destination = kInvalidZone;
    RequestTimestamp timestamp = 0;
    bool cross_zone = false;
    bool appended = false;
    Ballot ballot;
    RecordSet records;  // destination side, once appended
    std::shared_ptr<const StateTransferMsg> state_msg;  // source side cache

    MigrationOp op() const {
      return MigrationOp{client, source, destination, timestamp, "",
                         cross_zone};
    }
    void set_op(const MigrationOp& op) {
      client = op.client;
      source = op.source;
      destination = op.destination;
      timestamp = op.timestamp;
      cross_zone = op.cross_zone;
    }
  };
  std::map<std::uint64_t, Marker> in_flight;  // request id -> marker
  /// Destination install watermark: client -> highest migration timestamp
  /// appended here (one entry per client, retired markers included).
  std::map<ClientId, RequestTimestamp> installed;
};

/// Everything one ZiziphusNode persists across an amnesia crash — what its
/// storage layer would hold on disk. Owned by the node object (which
/// survives the crash; only the engines are rebuilt). The data-sync engine
/// keeps its slice only here; PBFT and migration write theirs through from
/// live state that holds a different fact (see DESIGN.md §8).
/// GlobalMetadata, the lock table and the bootstrap-provisioned records are
/// also treated as durable but live on the node directly; see DESIGN.md's
/// durable-vs-volatile table.
struct DurableStore {
  pbft::DurableState pbft;
  SyncDurableState sync;
  MigrationDurableState migration;
};

}  // namespace ziziphus::core

#endif  // ZIZIPHUS_CORE_DURABLE_H_
