#ifndef ZIZIPHUS_PBFT_ORDERING_H_
#define ZIZIPHUS_PBFT_ORDERING_H_

#include <cstdint>
#include <optional>
#include <string_view>

#include "common/types.h"
#include "pbft/config.h"

namespace ziziphus::pbft {

/// Canonical flag spelling of an ordering ("stable", "fast-path") and its
/// inverse; ParseOrdering returns nullopt on anything unrecognized so
/// callers can report the bad flag value.
const char* OrderingName(Ordering o);
std::optional<Ordering> ParseOrdering(std::string_view name);

/// Exponentially weighted moving average of observed commit latency
/// (pre-prepare accept -> commit), the input signal for the fault-adaptive
/// timers. alpha = 1/8: ewma += (sample - ewma) / 8, seeded by the first
/// sample. Integer microseconds end to end, so same-seed runs stay
/// byte-identical. Kept in fixed point (accumulator = 8 * ewma) so the
/// sub-alpha residue carries between samples: with a plain integer ewma,
/// a persistent drift under 8us per sample truncates to a zero update and
/// the average stays pinned below real latency forever.
class CommitLatencyEwma {
 public:
  void Observe(Duration sample_us) {
    if (!seeded_) {
      scaled_ = static_cast<std::int64_t>(sample_us) * 8;
      seeded_ = true;
      return;
    }
    // scaled' = scaled + (sample - scaled/8) is the same recurrence as
    // ewma += (sample - ewma) / 8 scaled by 8, except the division happens
    // once (on read-back) instead of on every delta, so small deltas
    // accumulate instead of truncating to zero. Signed throughout: a
    // sample below the average must pull it down, not wrap.
    scaled_ += static_cast<std::int64_t>(sample_us) - scaled_ / 8;
  }

  /// Current estimate; 0 until the first sample (callers fall back to the
  /// configured fixed timeout while unseeded).
  Duration value() const {
    return seeded_ ? static_cast<Duration>(scaled_ / 8) : 0;
  }
  bool seeded() const { return seeded_; }

 private:
  std::int64_t scaled_ = 0;  // 8x the estimate, in microseconds.
  bool seeded_ = false;
};

// Fast-path timer tuning. Under Ordering::kFastPath the progress timer and
// the fast-path abandon timer derive from the commit-latency EWMA (clamped,
// deterministically jittered) instead of the fixed request_timeout_us;
// kStable keeps the fixed timers.

/// Adaptive progress timeout = kAdaptiveTimeoutMultiplier * ewma, clamped
/// to [request_timeout/4, 2 * request_timeout].
inline constexpr std::uint64_t kAdaptiveTimeoutMultiplier = 8;

/// Client retry timer (app::ClientCore): an attempt waits
/// kAdaptiveTimeoutMultiplier times the client's EWMA latency for its op
/// class, doubled per attempt, within [retry_timeout / kClientRetryFloorDiv,
/// retry_timeout]. The floor keeps a healthy run's tail latency from ever
/// reaching a retry: a spurious multicast makes backups relay and suspect a
/// live primary.
inline constexpr std::uint64_t kClientRetryFloorDiv = 4;

/// Fast-path abandon timeout before the EWMA has a sample. The unanimity
/// wait is one intra-zone round, so it is scaled to the message round-trip
/// regime, not the (possibly geo-scale) request_timeout_us.
inline constexpr Duration kFastAbandonColdUs = Millis(25);

/// Fast-path hysteresis: after this many consecutive fallbacks, stop
/// arming the optimistic round (vote a classic Prepare immediately) and
/// only re-probe unanimity every kFastReprobeSlots sequence numbers.
/// Without it a single crashed or withholding replica makes every slot pay
/// the abandon wait, and the commit-latency EWMA then learns its own
/// abandon delay — a feedback loop that ratchets the timeout to its cap.
inline constexpr std::uint64_t kFastDisableAfter = 3;

/// While the fast path is suppressed, re-arm it on sequence numbers
/// divisible by this, so recovery is self-detecting: the first probe that
/// reaches unanimity resets the fallback streak and re-enables the
/// optimistic path for every following slot. seq-keyed so replicas probe
/// the same slots without coordination.
inline constexpr std::uint64_t kFastReprobeSlots = 16;

/// Adaptive progress timeout (the timer whose expiry suspects the primary):
/// clamp(kAdaptiveTimeoutMultiplier * ewma, request_timeout/4,
/// 2 * request_timeout) plus a deterministic per-(replica, view) jitter of
/// up to 1/8 of the clamped value — the same shape as the view-change and
/// state-transfer backoffs, so the bounds are unit-testable as a pure
/// function. An unseeded EWMA (0) falls back to the fixed
/// request_timeout_us.
Duration AdaptiveProgressTimeout(const PbftConfig& config, Duration ewma_us,
                                 NodeId replica, ViewId view);

/// Fast-path abandon timeout: how long a replica waits for unanimity before
/// falling the slot back to the classic prepare/commit path. Much tighter
/// than the progress timeout — clamp(4 * ewma, batch_timeout,
/// request_timeout) with per-(replica, seq) jitter; an unseeded EWMA uses
/// kFastAbandonColdUs.
Duration FastPathAbandonTimeout(const PbftConfig& config, Duration ewma_us,
                                NodeId replica, SeqNum seq);

/// Whether slot `seq` arms the optimistic round after `fallback_streak`
/// consecutive fallbacks: always below kFastDisableAfter, then only on
/// re-probe slots.
bool FastArmAllowed(std::uint64_t fallback_streak, SeqNum seq);

}  // namespace ziziphus::pbft

#endif  // ZIZIPHUS_PBFT_ORDERING_H_
