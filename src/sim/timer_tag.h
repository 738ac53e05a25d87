#ifndef ZIZIPHUS_SIM_TIMER_TAG_H_
#define ZIZIPHUS_SIM_TIMER_TAG_H_

#include <cstdint>

namespace ziziphus::sim {

/// Which protocol engine owns a timer. Several engines share one host
/// Process (core::ZiziphusNode runs pbft, data sync and migration on one
/// core), so every timer names its owner and the host's OnTimer switches
/// on it once.
enum class TimerEngine : std::uint8_t {
  kHost = 0,  // raw Process users (tests, ad-hoc drivers)
  kPbft,
  kDataSync,
  kMigration,
  kTwoLevel,
  kClient,
};

/// What a timer carries back to OnTimer: {engine, kind, key}. `kind` is the
/// engine's own timer enum (batch / retry / view-change / ...); `key` is a
/// full 64-bit engine-chosen id, typically the request, op or sequence
/// number the timer guards, so the engine learns what fired from the tag
/// alone. The process stores the tag beside the timer id until the timer
/// fires or is cancelled.
struct TimerTag {
  TimerEngine engine = TimerEngine::kHost;
  std::uint8_t kind = 0;
  std::uint64_t key = 0;
};

}  // namespace ziziphus::sim

#endif  // ZIZIPHUS_SIM_TIMER_TAG_H_
