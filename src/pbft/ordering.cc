#include "pbft/ordering.h"

#include <algorithm>

#include "common/hash.h"

namespace ziziphus::pbft {

const char* OrderingName(Ordering o) {
  switch (o) {
    case Ordering::kStable:
      return "stable";
    case Ordering::kFastPath:
      return "fast-path";
  }
  return "unknown";
}

std::optional<Ordering> ParseOrdering(std::string_view name) {
  if (name == "stable") return Ordering::kStable;
  if (name == "fast-path") return Ordering::kFastPath;
  return std::nullopt;
}

namespace {

Duration Jittered(Duration base, std::uint64_t domain, std::uint64_t a,
                  std::uint64_t b) {
  Duration jitter_span = base / 8;
  Duration jitter =
      jitter_span == 0
          ? 0
          : Hasher(domain).Add(a).Add(b).Finish() % (jitter_span + 1);
  return base + jitter;
}

}  // namespace

Duration AdaptiveProgressTimeout(const PbftConfig& config, Duration ewma_us,
                                 NodeId replica, ViewId view) {
  if (ewma_us == 0) return config.request_timeout_us;
  const Duration floor = std::max<Duration>(config.request_timeout_us / 4, 1);
  const Duration cap = std::max(config.request_timeout_us * 2, floor);
  Duration base = std::clamp<Duration>(ewma_us * kAdaptiveTimeoutMultiplier,
                                       floor, cap);
  return Jittered(base, 0xada7, replica, view);
}

Duration FastPathAbandonTimeout(const PbftConfig& config, Duration ewma_us,
                                NodeId replica, SeqNum seq) {
  const Duration floor = std::max<Duration>(config.batch_timeout_us, 1);
  const Duration cap = std::max(config.request_timeout_us, floor);
  Duration base = ewma_us == 0 ? kFastAbandonColdUs : ewma_us * 4;
  base = std::clamp(base, floor, cap);
  return Jittered(base, 0xfa57, replica, seq);
}

bool FastArmAllowed(std::uint64_t fallback_streak, SeqNum seq) {
  return fallback_streak < kFastDisableAfter || seq % kFastReprobeSlots == 0;
}

}  // namespace ziziphus::pbft
