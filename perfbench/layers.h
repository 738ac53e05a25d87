#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <array>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "sim/message.h"

namespace perfbench {

/// Wall-time buckets of the traced run. Each delivered message is charged
/// to the module that owns its type; a step that delivered no message (a
/// timer, a drop at a crashed node, a fault-schedule action) is `timer`.
enum class Layer : std::uint8_t {
  kTimer,
  kPbft,
  kClient,
  kReadsServe,
  kReadsVerify,
  kEndorse,
  kSync,
  kMig,
  kLazy,
  kOther,  // a message type missing from the table below
  kCount
};

inline constexpr std::size_t kNumLayers =
    static_cast<std::size_t>(Layer::kCount);

/// Metric-name fragment: "timer", "pbft", "reads_serve", ...
const char* LayerName(Layer layer);

/// Owning layer of a delivered message type; kOther when unmapped.
Layer LayerOf(ziziphus::sim::MessageType type);

/// Every (type, layer) pair the table maps, in type order.
std::vector<std::pair<ziziphus::sim::MessageType, Layer>> LayerTable();

/// Wall time and step counts per layer, accumulated step by step.
struct WallProfile {
  std::array<double, kNumLayers> seconds{};
  std::array<std::uint64_t, kNumLayers> steps{};
  std::set<ziziphus::sim::MessageType> unmapped;

  void Charge(Layer layer, double secs) {
    seconds[static_cast<std::size_t>(layer)] += secs;
    steps[static_cast<std::size_t>(layer)]++;
  }
  double total_seconds() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
