#ifndef ZIZIPHUS_COMMON_TYPES_H_
#define ZIZIPHUS_COMMON_TYPES_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>

namespace ziziphus {

/// Simulated time in microseconds since the start of the run.
using SimTime = std::uint64_t;

/// Duration in microseconds.
using Duration = std::uint64_t;

inline constexpr SimTime kSimTimeMax = std::numeric_limits<SimTime>::max();

/// Convenience literals for building durations.
constexpr Duration Millis(std::uint64_t v) { return v * 1000; }
constexpr Duration Seconds(std::uint64_t v) { return v * 1000 * 1000; }

/// Converts a duration in microseconds to fractional milliseconds.
constexpr double ToMillis(Duration d) { return static_cast<double>(d) / 1000.0; }

/// Converts a duration in microseconds to fractional seconds.
constexpr double ToSeconds(Duration d) {
  return static_cast<double>(d) / 1e6;
}

/// Global identifier of a simulated process (replica node or client).
using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Identifier of a fault-tolerant zone (3f+1 replicas).
using ZoneId = std::uint32_t;
inline constexpr ZoneId kInvalidZone = std::numeric_limits<ZoneId>::max();

/// Identifier of a zone cluster (Section VI of the paper).
using ClusterId = std::uint32_t;
inline constexpr ClusterId kInvalidCluster =
    std::numeric_limits<ClusterId>::max();

/// Identifier of an application client (edge device).
using ClientId = std::uint32_t;
inline constexpr ClientId kInvalidClient =
    std::numeric_limits<ClientId>::max();

/// Geographic region (data center) hosting nodes; indexes the latency matrix.
using RegionId = std::uint32_t;

/// PBFT view number within a zone.
using ViewId = std::uint64_t;

/// PBFT sequence number within a zone.
using SeqNum = std::uint64_t;

/// A monotonically increasing per-client request timestamp providing
/// exactly-once semantics (Section IV-B1).
using RequestTimestamp = std::uint64_t;

/// Global Ballot number `<n, z>` used by the data synchronization protocol
/// (Algorithm 1): `n` is a global sequence number, `zone` the id of the zone
/// whose primary assigned it. Ordered lexicographically.
struct Ballot {
  std::uint64_t n = 0;
  ZoneId zone = kInvalidZone;

  friend bool operator==(const Ballot&, const Ballot&) = default;
  friend auto operator<=>(const Ballot& a, const Ballot& b) {
    if (auto c = a.n <=> b.n; c != 0) return c;
    return a.zone <=> b.zone;
  }
};

/// Zero ballot: precedes every ballot assigned by a zone.
inline constexpr Ballot kNullBallot{0, kInvalidZone};

std::string ToString(const Ballot& b);

}  // namespace ziziphus

template <>
struct std::hash<ziziphus::Ballot> {
  std::size_t operator()(const ziziphus::Ballot& b) const noexcept {
    return std::hash<std::uint64_t>()(b.n * 1000003u + b.zone);
  }
};

#endif  // ZIZIPHUS_COMMON_TYPES_H_
