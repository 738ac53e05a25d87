#ifndef ZIZIPHUS_OBS_RECORDER_H_
#define ZIZIPHUS_OBS_RECORDER_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "common/types.h"
#include "obs/metric_ids.h"
#include "obs/trace.h"

namespace ziziphus::obs {

/// The single front door for observability: typed counters with
/// per-node / per-zone hierarchical scoping, registered histograms, the
/// causal Tracer, and profiling aggregates (per-node CPU busy time,
/// per-link traffic, event-queue depth). One Recorder per Simulation.
///
/// Scoping: node-scoped counter increments roll up automatically through
/// the node's zone scope into the root scope (CounterSet parent chains), so
/// `recorder.counters().Get(...)` always sees system-wide totals while
/// `recorder.node_counters(n)` isolates one replica.
///
/// Everything here is deterministic: iteration orders are by id, never by
/// pointer or hash order, so ExportJson() is byte-stable across same-seed
/// runs.
class Recorder {
 public:
  Recorder() : tracer_(this) {}

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // ---- Counters --------------------------------------------------------

  CounterSet& counters() { return root_; }
  const CounterSet& counters() const { return root_; }

  /// Declares `node` as part of `zone`; its counter scope then rolls up
  /// node -> zone -> root. Unregistered nodes roll up straight to root.
  void RegisterNode(NodeId node, ZoneId zone);

  /// Node-scoped counters (auto-creates the scope on first use). The
  /// returned reference stays valid for the Recorder's lifetime.
  CounterSet& node_counters(NodeId node);
  /// Read-only lookup; nullptr when the node never recorded anything.
  const CounterSet* FindNodeCounters(NodeId node) const;

  CounterSet& zone_counters(ZoneId zone);
  const CounterSet* FindZoneCounters(ZoneId zone) const;

  // ---- Histograms ------------------------------------------------------

  void Record(HistogramId id, std::uint64_t value) {
    hists_[static_cast<std::size_t>(id)].Record(value);
  }
  const Histogram& histogram(HistogramId id) const {
    return hists_[static_cast<std::size_t>(id)];
  }
  Histogram& mutable_histogram(HistogramId id) {
    return hists_[static_cast<std::size_t>(id)];
  }

  // ---- Gauges ----------------------------------------------------------

  /// Last-write-wins level sample (retained bytes, live table sizes).
  void SetGauge(GaugeId id, std::uint64_t value) {
    gauges_[static_cast<std::size_t>(id)] = value;
    gauge_set_[static_cast<std::size_t>(id)] = true;
  }
  std::uint64_t gauge(GaugeId id) const {
    return gauges_[static_cast<std::size_t>(id)];
  }
  bool gauge_set(GaugeId id) const {
    return gauge_set_[static_cast<std::size_t>(id)];
  }

  // ---- Profiling hooks -------------------------------------------------

  /// Attributes `cost` of CPU time to `node` (crypto=true for sign/verify
  /// work). Called by the simulator's cost model on every ChargeCpu.
  void AddCpu(NodeId node, Duration cost, bool crypto);

  /// Accounts one message of `bytes` on the (from_region, to_region) link.
  void AddLinkTraffic(RegionId from, RegionId to, std::uint64_t bytes);

  /// Samples the event-queue depth (called by the simulator at dispatch).
  void RecordQueueDepth(std::size_t depth) {
    hists_[static_cast<std::size_t>(HistogramId::kSimQueueDepth)].Record(
        depth);
  }

  // ---- Tracing ---------------------------------------------------------

  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  // ---- Export / lifecycle ----------------------------------------------

  /// One deterministic JSON document with root counters, registered
  /// histograms, per-zone counters, per-node CPU profile, per-link traffic
  /// and trace summary. Schema: "ziziphus.obs.v1".
  std::string ExportJson() const;

  /// Zeroes counters, histograms, link traffic and traces; keeps node/zone
  /// registrations and configuration (used at measurement-window start).
  void Reset();

 private:
  struct LinkStats {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
  };

  CounterSet root_;
  // std::map: deterministic iteration for export, stable addresses for the
  // CounterSet parent chains.
  std::map<ZoneId, CounterSet> zones_;
  std::map<NodeId, std::pair<ZoneId, CounterSet>> nodes_;
  std::array<Histogram, kNumHistograms> hists_;
  std::array<std::uint64_t, kNumGauges> gauges_{};
  std::array<bool, kNumGauges> gauge_set_{};
  std::map<std::pair<RegionId, RegionId>, LinkStats> links_;
  Tracer tracer_;
};

}  // namespace ziziphus::obs

#endif  // ZIZIPHUS_OBS_RECORDER_H_
