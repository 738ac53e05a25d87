#ifndef ZIZIPHUS_PBFT_DURABLE_H_
#define ZIZIPHUS_PBFT_DURABLE_H_

#include <map>

#include "common/types.h"
#include "pbft/messages.h"
#include "storage/checkpoint.h"
#include "storage/log.h"

namespace ziziphus::pbft {

/// The slice of a PBFT replica that survives an amnesia crash — what a real
/// deployment would fsync. Everything else (slots, vote sets, pending
/// batches, timers, reply cache) is volatile and reconstructed by the
/// rejoin protocol via WAL replay and state transfer.
///
/// Durable:
///  - `view`: the last view this replica entered (one that formed).
///    Forgetting it would let a recovered replica accept a pre-prepare from
///    a deposed primary. The live view can be ahead of it, at a view change
///    that has not formed; a rejoin restarts from the formed one.
///  - `stable_checkpoint`: last 2f+1-certified snapshot; the recovery
///    baseline installed before WAL replay.
///  - `wal`: committed entries above the stable checkpoint (truncated at
///    every checkpoint, mirroring the in-memory commit log).
///  - `prepared_proofs`: prepared certificates above the stable checkpoint.
///    They carry the full batches, which doubles as the WAL's payload:
///    replay pairs each WAL digest with its proof's batch to re-apply ops.
///    The batch is the pre-prepare's, shared with the in-memory proof (see
///    PreparedProof), not a copy.
///  - `fast_votes`: the fast-path votes this replica cast above the stable
///    checkpoint (view, seq, digest, batch). Fast-commit safety across view
///    changes rests on every honest voter reporting its vote in its
///    view-change message (>= f+1 reports in any quorum); an amnesiac that
///    forgot a cast vote could silently drop the count below threshold.
///    A snapshot install trims the live proofs and votes below it; these
///    durable ones wait for the replica's own next stable checkpoint, so a
///    rejoin before then still replays from them.
///  - `checkpoint_client_ts`: the client table as of the stable checkpoint,
///    the only durable client table. WAL replay seeds the live table from
///    it and rebuilds forward, so a recovered replica keeps exactly-once
///    semantics and the replayed execution reproduces the original per-op
///    duplicate decisions exactly (a table as of the crash could not: it is
///    ahead of the checkpoint snapshot the replay starts from). What the
///    replay cannot rebuild, state transfer brings with the responder's
///    table.
struct DurableState {
  ViewId view = 0;
  storage::Checkpoint stable_checkpoint;
  storage::CommitLog wal;
  std::map<SeqNum, PreparedProof> prepared_proofs;
  std::map<SeqNum, PreparedProof> fast_votes;
  std::map<ClientId, RequestTimestamp> checkpoint_client_ts;
};

}  // namespace ziziphus::pbft

#endif  // ZIZIPHUS_PBFT_DURABLE_H_
