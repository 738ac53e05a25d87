#ifndef ZIZIPHUS_PBFT_CONFIG_H_
#define ZIZIPHUS_PBFT_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "pbft/batcher.h"

namespace ziziphus::pbft {

/// How the zone orders requests (selected via PbftConfig::ordering and the
/// app-level --ordering=stable|fast-path flag).
///
///   kStable   — classic fixed-primary PBFT: the primary changes only when a
///               view change deposes it. The default; all timers are the
///               fixed constants below.
///   kFastPath — optimistic fast path: replicas broadcast FastVote instead
///               of Prepare and commit without a commit round when all 3f+1
///               votes match; a missing vote, conflicting vote, or abandon
///               timer falls the slot back to the classic prepare/commit
///               path (idempotent, safe mid-slot). Its progress and abandon
///               timers adapt to observed commit latency (pbft/ordering.h).
///
/// The values are fixed: kFastPath keeps the 2 it had while a rotating
/// ordering held 1, so anything that prints an Ordering as raw bytes (the
/// parameterized consensus sweep names) reads the same as before.
enum class Ordering {
  kStable = 0,
  kFastPath = 2,
};

/// High-watermark window above the last stable checkpoint: a primary
/// proposes, and a backup accepts, only sequence numbers within it.
inline constexpr SeqNum kWatermarkWindow = 2048;

/// Hard ceiling on the view-change retransmission backoff. The classic
/// doubling rule alone lets a lossy zone inflate the timeout without bound;
/// the cap bounds recovery time once the network heals. A small
/// deterministic per-replica jitter (up to 1/8 of the backoff) is added on
/// top to de-synchronize concurrent view changes. A base timeout above the
/// cap raises it to the base (PbftEngine::ViewChangeBackoff).
inline constexpr Duration kViewChangeBackoffCap = Seconds(8);

/// State-transfer retry policy: an unanswered StateRequest is re-sent to a
/// rotated peer after a capped, deterministically jittered backoff
/// (PbftEngine::StateTransferBackoff); after kStateTransferMaxAttempts
/// retries the transfer is abandoned so a later, larger target can start.
inline constexpr Duration kStateTransferBackoffCap = Seconds(4);
inline constexpr std::size_t kStateTransferMaxAttempts = 8;

/// Static configuration of one PBFT group (3f+1 replicas).
struct PbftConfig {
  /// Replica node ids; position in this vector is the replica index used for
  /// primary rotation (primary of view v is members[v % members.size()]).
  std::vector<NodeId> members;

  /// Maximum simultaneous Byzantine replicas tolerated. members.size() must
  /// be >= 3f+1.
  std::size_t f = 1;

  /// Request batching at the primary (pbft/batcher.h).
  std::size_t batch_max = kBatchMax;

  /// Progress timeout before suspecting the primary (local transactions; the
  /// paper notes global transactions use longer timers — the global engines
  /// configure their own).
  Duration request_timeout_us = Millis(600);

  /// Checkpoint every this many sequence numbers.
  SeqNum checkpoint_interval = 128;

  /// Checkpoint-anchored retention: at every stable checkpoint, trim the
  /// commit log / WAL / prepared proofs below the low-water mark and evict
  /// reply-cache entries superseded by the checkpointed client table.
  /// Disabling keeps every log entry forever — only useful as the control
  /// arm of the soak benchmark's memory-bound experiment.
  bool trim_at_checkpoint = true;

  /// Serve delta state transfers (committed ops since the requester's
  /// anchor) when the responder still holds the needed batches; off forces
  /// every transfer onto the full-snapshot path (bench control arm).
  bool delta_state_transfer = true;

  /// How this group orders requests (see enum Ordering above). kStable
  /// keeps every timer and message flow of classic PBFT.
  Ordering ordering = Ordering::kStable;

  std::size_t quorum() const { return 2 * f + 1; }
  std::size_t n() const { return members.size(); }
};

}  // namespace ziziphus::pbft

#endif  // ZIZIPHUS_PBFT_CONFIG_H_
