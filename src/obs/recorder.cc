#include "obs/recorder.h"

#include "obs/json.h"

namespace ziziphus::obs {

void Recorder::RegisterNode(NodeId node, ZoneId zone) {
  CounterSet& zone_scope = zone_counters(zone);
  auto [it, inserted] = nodes_.try_emplace(node, zone, CounterSet{});
  it->second.first = zone;
  it->second.second.set_parent(&zone_scope);
}

CounterSet& Recorder::node_counters(NodeId node) {
  auto [it, inserted] = nodes_.try_emplace(node, kInvalidZone, CounterSet{});
  if (inserted) it->second.second.set_parent(&root_);
  return it->second.second;
}

const CounterSet* Recorder::FindNodeCounters(NodeId node) const {
  auto it = nodes_.find(node);
  return it == nodes_.end() ? nullptr : &it->second.second;
}

CounterSet& Recorder::zone_counters(ZoneId zone) {
  auto [it, inserted] = zones_.try_emplace(zone);
  if (inserted) it->second.set_parent(&root_);
  return it->second;
}

const CounterSet* Recorder::FindZoneCounters(ZoneId zone) const {
  auto it = zones_.find(zone);
  return it == zones_.end() ? nullptr : &it->second;
}

void Recorder::AddCpu(NodeId node, Duration cost, bool crypto) {
  CounterSet& scope = node_counters(node);
  scope.Inc(CounterId::kNodeCpuBusyUs, cost);
  if (crypto) scope.Inc(CounterId::kNodeCpuCryptoUs, cost);
}

void Recorder::AddLinkTraffic(RegionId from, RegionId to,
                              std::uint64_t bytes) {
  LinkStats& link = links_[{from, to}];
  link.msgs++;
  link.bytes += bytes;
}

namespace {

void WriteCounters(JsonWriter& w, const CounterSet& counters) {
  w.BeginObject();
  for (const auto& [name, value] : counters.All()) {
    w.Field(name, value);
  }
  w.EndObject();
}

void WriteHistogram(JsonWriter& w, const Histogram& h) {
  w.BeginObject();
  w.Field("count", h.count());
  w.Field("min", h.min());
  w.Field("max", h.max());
  w.Field("mean", h.Mean());
  w.Field("p50", h.Quantile(0.5));
  w.Field("p90", h.Quantile(0.9));
  w.Field("p99", h.Quantile(0.99));
  w.EndObject();
}

}  // namespace

std::string Recorder::ExportJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Field("schema", "ziziphus.obs.v1");

  w.Key("counters");
  WriteCounters(w, root_);

  w.Key("histograms").BeginObject();
  for (std::size_t i = 0; i < kNumHistograms; ++i) {
    const Histogram& h = hists_[i];
    if (h.count() == 0) continue;
    w.Key(HistogramName(static_cast<HistogramId>(i)));
    WriteHistogram(w, h);
  }
  w.EndObject();

  w.Key("gauges").BeginObject();
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    if (!gauge_set_[i]) continue;
    w.Field(GaugeName(static_cast<GaugeId>(i)), gauges_[i]);
  }
  w.EndObject();

  w.Key("zones").BeginArray();
  for (const auto& [zone, counters] : zones_) {
    w.BeginObject();
    w.Field("zone", zone);
    w.Key("counters");
    WriteCounters(w, counters);
    w.EndObject();
  }
  w.EndArray();

  w.Key("nodes").BeginArray();
  for (const auto& [node, entry] : nodes_) {
    std::uint64_t busy = entry.second.Get(CounterId::kNodeCpuBusyUs);
    if (busy == 0) continue;  // pure clients; keep the export compact
    w.BeginObject();
    w.Field("node", node);
    if (entry.first != kInvalidZone) w.Field("zone", entry.first);
    w.Field("cpu_busy_us", busy);
    w.Field("cpu_crypto_us", entry.second.Get(CounterId::kNodeCpuCryptoUs));
    w.EndObject();
  }
  w.EndArray();

  w.Key("links").BeginArray();
  for (const auto& [key, stats] : links_) {
    w.BeginObject();
    w.Field("from_region", key.first);
    w.Field("to_region", key.second);
    w.Field("msgs", stats.msgs);
    w.Field("bytes", stats.bytes);
    w.EndObject();
  }
  w.EndArray();

  w.Key("trace").BeginObject();
  w.Field("spans", static_cast<std::uint64_t>(tracer_.size()));
  w.Field("open", static_cast<std::uint64_t>(tracer_.open_count()));
  w.Field("orphans", static_cast<std::uint64_t>(tracer_.Orphans().size()));
  w.Field("completed",
          static_cast<std::uint64_t>(tracer_.CompletedTraces().size()));
  w.EndObject();

  w.EndObject();
  return w.TakeString();
}

void Recorder::Reset() {
  root_.Reset();
  for (auto& [zone, counters] : zones_) counters.Reset();
  for (auto& [node, entry] : nodes_) entry.second.Reset();
  for (Histogram& h : hists_) h.Reset();
  gauges_.fill(0);
  gauge_set_.fill(false);
  links_.clear();
  tracer_.Clear();
}

}  // namespace ziziphus::obs
