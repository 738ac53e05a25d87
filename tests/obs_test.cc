// Tests for the observability layer: Tracer span lifecycle, causal parent
// links, sampling, critical-path decomposition, and the determinism
// contract of Recorder::ExportJson (byte-stable across same-seed runs).

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "app/experiment_config.h"
#include "gtest/gtest.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace ziziphus::obs {
namespace {

// ---- Span lifecycle ----------------------------------------------------

TEST(TracerTest, DisabledTracerIsInert) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  TraceContext ctx = tracer.StartTrace(/*node=*/0, /*now=*/100);
  EXPECT_FALSE(ctx.active());
  EXPECT_EQ(tracer.OpenChild(ctx, SpanKind::kTransit, 1, 100), 0u);
  EXPECT_FALSE(tracer.Close(0, 200));
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.open_count(), 0u);
}

TEST(TracerTest, OpenCloseBalance) {
  Tracer tracer;
  tracer.set_enabled(true);

  TraceContext root = tracer.StartTrace(0, 100, /*attr=*/7);
  ASSERT_TRUE(root.active());
  SpanId transit = tracer.OpenChild(root, SpanKind::kTransit, 0, 100);
  SpanId handle = tracer.OpenChild({root.trace_id, transit},
                                   SpanKind::kHandle, 1, 150);
  EXPECT_EQ(tracer.open_count(), 3u);
  EXPECT_EQ(tracer.OpenSpans().size(), 3u);

  EXPECT_TRUE(tracer.Close(handle, 180));
  EXPECT_TRUE(tracer.Close(transit, 150));
  tracer.CompleteTrace(root, handle, 200);
  EXPECT_EQ(tracer.open_count(), 0u);
  EXPECT_TRUE(tracer.OpenSpans().empty());

  // Root span carries the workload attr and the full op duration.
  const Span* r = tracer.Root(root.trace_id);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->attr, 7u);
  EXPECT_EQ(r->duration(), 100);
  EXPECT_EQ(tracer.CompletionOf(root.trace_id), handle);
  EXPECT_EQ(tracer.CompletedTraces(), std::vector<TraceId>{root.trace_id});
}

TEST(TracerTest, DoubleCloseAndInvalidIdsAreTolerated) {
  Tracer tracer;
  tracer.set_enabled(true);
  TraceContext root = tracer.StartTrace(0, 0);
  SpanId child = tracer.OpenChild(root, SpanKind::kCertVerify, 0, 10);

  EXPECT_TRUE(tracer.Close(child, 20));
  EXPECT_FALSE(tracer.Close(child, 30));        // double close
  EXPECT_EQ(tracer.at(child).end, 20);          // first close wins
  EXPECT_FALSE(tracer.Close(0, 30));            // inactive id
  EXPECT_FALSE(tracer.Close(999, 30));          // out of range
  tracer.AddCpu(0, 5, false);                   // no-ops, must not crash
  tracer.SetTransitInfo(999, 1, 2, true);
  tracer.SetArrival(0, 1);
}

TEST(TracerTest, CloseClampsEndToStart) {
  Tracer tracer;
  tracer.set_enabled(true);
  TraceContext root = tracer.StartTrace(0, 100);
  SpanId child = tracer.OpenChild(root, SpanKind::kHandle, 0, 100);
  EXPECT_TRUE(tracer.Close(child, 50));  // end before start
  EXPECT_EQ(tracer.at(child).duration(), 0);
}

TEST(TracerTest, SamplingAdmitsEveryNth) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_sample_every(3);
  int active = 0;
  for (int i = 0; i < 9; ++i) {
    if (tracer.StartTrace(0, i).active()) ++active;
  }
  EXPECT_EQ(active, 3);

  tracer.set_sample_every(0);  // 0 = admit none
  EXPECT_FALSE(tracer.StartTrace(0, 100).active());
}

TEST(TracerTest, MaxSpansStopsAdmission) {
  Recorder recorder;
  Tracer& tracer = recorder.tracer();
  tracer.set_enabled(true);
  tracer.set_max_spans(2);
  TraceContext a = tracer.StartTrace(0, 0);
  SpanId child = tracer.OpenChild(a, SpanKind::kHandle, 0, 1);
  EXPECT_NE(child, 0u);
  // Arena full: new roots and children are rejected and counted.
  EXPECT_FALSE(tracer.StartTrace(0, 2).active());
  EXPECT_EQ(tracer.OpenChild(a, SpanKind::kHandle, 0, 3), 0u);
  EXPECT_EQ(recorder.counters().Get(CounterId::kObsSpansDropped), 2u);
}

// ---- Causal parent links -----------------------------------------------

TEST(TracerTest, ParentLinksChainAcrossHops) {
  Tracer tracer;
  tracer.set_enabled(true);

  // client op -> transit -> handle -> transit -> handle (two hops).
  TraceContext root = tracer.StartTrace(0, 0);
  SpanId t1 = tracer.OpenChild(root, SpanKind::kTransit, 0, 0);
  SpanId h1 = tracer.OpenChild({root.trace_id, t1}, SpanKind::kHandle, 1, 40);
  SpanId t2 = tracer.OpenChild({root.trace_id, h1}, SpanKind::kTransit, 1, 60);
  SpanId h2 = tracer.OpenChild({root.trace_id, t2}, SpanKind::kHandle, 2, 90);

  EXPECT_TRUE(tracer.Orphans().empty());
  EXPECT_EQ(tracer.SpansOf(root.trace_id).size(), 5u);

  // Walking parents from the deepest span reaches the root through every
  // hop that causally produced it.
  std::vector<SpanId> walk;
  for (SpanId id = h2; id != 0; id = tracer.at(id).parent) {
    walk.push_back(id);
  }
  EXPECT_EQ(walk, (std::vector<SpanId>{h2, t2, h1, t1, root.parent_span}));
}

TEST(TracerTest, OrphanDetectionFlagsCrossTraceParents) {
  Tracer tracer;
  tracer.set_enabled(true);
  TraceContext a = tracer.StartTrace(0, 0);
  TraceContext b = tracer.StartTrace(0, 0);
  // A child of trace b wired (incorrectly) under trace a's root.
  SpanId bad = tracer.OpenChild({b.trace_id, a.parent_span},
                                SpanKind::kHandle, 1, 10);
  ASSERT_NE(bad, 0u);
  EXPECT_EQ(tracer.Orphans(), std::vector<SpanId>{bad});
}

// ---- Critical-path decomposition ---------------------------------------

// Synthetic two-hop chain with known gaps; checks that every microsecond
// between root open and close lands in exactly one component and that the
// exact-sum invariant total == wan + lan + queue + crypto + sum(phases)
// holds on constructed data.
TEST(TracerTest, CriticalPathAccountsEveryMicrosecond) {
  Tracer tracer;
  tracer.set_enabled(true);

  TraceContext root = tracer.StartTrace(0, 1000);
  // Client thinks 10us, then the request departs on a WAN link (40us).
  SpanId t1 = tracer.OpenChild(root, SpanKind::kTransit, 0, 1010);
  tracer.SetTransitInfo(t1, /*msg_type=*/10, /*bytes=*/256, /*wan=*/true);
  tracer.Close(t1, 1050);
  // Receiver core busy 5us (arrival 1050, handling starts 1055), handler
  // burns 20us of which 8us is crypto, then replies on a LAN link (15us).
  SpanId h1 = tracer.OpenChild({root.trace_id, t1}, SpanKind::kHandle, 1,
                               1055);
  tracer.SetArrival(h1, 1050);
  tracer.SetAttr(h1, 10);
  tracer.AddCpu(h1, 20, /*crypto=*/false);
  tracer.AddCpu(h1, 8, /*crypto=*/true);
  tracer.Close(h1, 1075);
  SpanId t2 = tracer.OpenChild({root.trace_id, h1}, SpanKind::kTransit, 1,
                               1075);
  tracer.SetTransitInfo(t2, /*msg_type=*/11, /*bytes=*/128, /*wan=*/false);
  tracer.Close(t2, 1090);
  // Reply handling at the client: 10us until the op completes.
  SpanId h2 = tracer.OpenChild({root.trace_id, t2}, SpanKind::kHandle, 0,
                               1090);
  tracer.SetAttr(h2, 11);
  tracer.Close(h2, 1100);
  tracer.CompleteTrace(root, h2, 1100);

  auto labeler = [](std::uint64_t type) {
    return type == 10 ? std::string("pbft.request") : std::string("pbft.reply");
  };
  Tracer::Breakdown b = tracer.CriticalPath(root.trace_id, labeler);
  ASSERT_TRUE(b.complete);
  EXPECT_EQ(b.total_us, 100);
  EXPECT_EQ(b.wan_us, 40);
  EXPECT_EQ(b.lan_us, 15);
  EXPECT_EQ(b.queue_us, 5);
  EXPECT_EQ(b.crypto_us, 8);
  EXPECT_EQ(b.phase_us.at("client"), 10);       // pre-send think time
  EXPECT_EQ(b.phase_us.at("pbft.request"), 12); // 20us gap minus 8us crypto
  EXPECT_EQ(b.phase_us.at("pbft.reply"), 10);   // completion handling
  EXPECT_EQ(b.Sum(), b.total_us);
}

TEST(TracerTest, CriticalPathIncompleteWithoutCompletionSpan) {
  Tracer tracer;
  tracer.set_enabled(true);
  TraceContext root = tracer.StartTrace(0, 0);
  tracer.CompleteTrace(root, /*completing_span=*/0, 100);
  Tracer::Breakdown b = tracer.CriticalPath(root.trace_id, nullptr);
  EXPECT_FALSE(b.complete);
  EXPECT_EQ(b.total_us, 100);  // root duration still reported
}

// ---- Recorder integration ----------------------------------------------

TEST(RecorderTest, SpanCloseFeedsHistogramsAndCounters) {
  Recorder recorder;
  Tracer& tracer = recorder.tracer();
  tracer.set_enabled(true);

  TraceContext root = tracer.StartTrace(0, 0);
  SpanId t = tracer.OpenChild(root, SpanKind::kTransit, 0, 0);
  tracer.SetTransitInfo(t, 1, 64, /*wan=*/true);
  tracer.Close(t, 40);
  tracer.CompleteTrace(root, t, 50);

  EXPECT_EQ(recorder.counters().Get(CounterId::kObsTracesStarted), 1u);
  EXPECT_EQ(recorder.counters().Get(CounterId::kObsTracesCompleted), 1u);
  EXPECT_EQ(recorder.counters().Get(CounterId::kObsSpansOpened), 2u);
  EXPECT_EQ(recorder.histogram(HistogramId::kSpanTransitWanUs).count(), 1u);
  EXPECT_EQ(recorder.histogram(HistogramId::kSpanTransitWanUs).max(), 40u);
  EXPECT_EQ(recorder.histogram(HistogramId::kSpanClientOpUs).count(), 1u);
}

// ---- End-to-end: traced experiment decomposition -----------------------

app::ExperimentConfig SmallTracedConfig() {
  app::ExperimentConfig cfg;
  cfg.WithZones(3)
      .WithClients(10)
      .WithGlobalFraction(0.2)
      .WithWarmup(Millis(200))
      .WithMeasure(Millis(400))
      .WithSeed(42)
      .WithTracing();
  return cfg;
}

TEST(ObsExperimentTest, TracedRunDecomposesLatency) {
  app::ExperimentResult r = SmallTracedConfig().Run();
  ASSERT_GT(r.traces_completed, 0u);

  // The traced mean breakdown must reproduce the measured mean end-to-end
  // latency: total == wan + lan + queue + crypto + sum(phases).
  double parts = r.trace_wan_ms + r.trace_lan_ms + r.trace_queue_ms +
                 r.trace_crypto_ms;
  for (const auto& [label, ms] : r.trace_phase_ms) {
    EXPECT_GE(ms, 0.0) << label;
    parts += ms;
  }
  EXPECT_NEAR(parts, r.trace_total_ms, 1e-6);
  EXPECT_GT(r.trace_total_ms, 0.0);

  // A 3-zone run with global transactions must show WAN transit and PBFT
  // phase components on the critical path.
  EXPECT_GT(r.trace_wan_ms, 0.0);
  EXPECT_GT(r.trace_crypto_ms, 0.0);
  bool has_pbft_phase = false;
  for (const auto& [label, ms] : r.trace_phase_ms) {
    if (label.rfind("pbft.", 0) == 0 && ms > 0.0) has_pbft_phase = true;
  }
  EXPECT_TRUE(has_pbft_phase);
}

TEST(ObsExperimentTest, SamplingReducesTraceCount) {
  app::ExperimentResult all = SmallTracedConfig().Run();
  app::ExperimentResult sampled =
      SmallTracedConfig().WithTraceSampling(8).Run();
  ASSERT_GT(all.traces_completed, 0u);
  ASSERT_GT(sampled.traces_completed, 0u);
  EXPECT_LT(sampled.traces_completed, all.traces_completed);
  // The sampling rate must not perturb the simulation itself.
  EXPECT_EQ(all.local_ops + all.global_ops,
            sampled.local_ops + sampled.global_ops);
  // Nor may tracing at all (ObsSpec's contract): a traced run's modeled
  // numbers equal the untraced run's at full precision.
  app::ExperimentResult untraced = SmallTracedConfig().WithTracing(false).Run();
  EXPECT_EQ(untraced.traces_completed, 0u);
  EXPECT_EQ(all.throughput_tps, untraced.throughput_tps);
  EXPECT_EQ(all.avg_latency_ms, untraced.avg_latency_ms);
  EXPECT_EQ(all.p50_ms, untraced.p50_ms);
  EXPECT_EQ(all.p99_ms, untraced.p99_ms);
  EXPECT_EQ(all.local_avg_ms, untraced.local_avg_ms);
  EXPECT_EQ(all.global_avg_ms, untraced.global_avg_ms);
  EXPECT_EQ(all.local_ops, untraced.local_ops);
  EXPECT_EQ(all.global_ops, untraced.global_ops);
  EXPECT_EQ(all.timeouts, untraced.timeouts);
  EXPECT_EQ(all.messages_sent, untraced.messages_sent);
  EXPECT_EQ(all.events_dispatched, untraced.events_dispatched);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ObsExperimentTest, ExportJsonIsByteStableAcrossSameSeedRuns) {
  std::string path_a = testing::TempDir() + "/obs_export_a.json";
  std::string path_b = testing::TempDir() + "/obs_export_b.json";

  app::ExperimentConfig cfg;
  cfg.WithZones(2)
      .WithClients(8)
      .WithGlobalFraction(0.1)
      .WithWarmup(Millis(200))
      .WithMeasure(Millis(300))
      .WithSeed(7)
      .WithTracing();

  app::ExperimentResult ra = cfg.WithJsonOut(path_a).Run();
  app::ExperimentResult rb = cfg.WithJsonOut(path_b).Run();
  EXPECT_EQ(ra.local_ops, rb.local_ops);
  EXPECT_EQ(ra.global_ops, rb.global_ops);
  EXPECT_EQ(ra.traces_completed, rb.traces_completed);

  std::string a = ReadFile(path_a);
  std::string b = ReadFile(path_b);
  ASSERT_FALSE(a.empty());
  EXPECT_NE(a.find("\"ziziphus.obs.v1\""), std::string::npos);
  EXPECT_EQ(a, b) << "ExportJson must be byte-stable across same-seed runs";

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(ObsSchemaTest, RecoveryMetricsResolveAndExport) {
  // The recovery subsystem's metric ids must resolve to their wire names
  // and surface in ExportJson once recorded — a schema regression here
  // would silently break the recovery chaos sweep's assertions.
  EXPECT_EQ(CounterName(CounterId::kFaultsAmnesiaCrashes),
            "faults.amnesia_crashes");
  EXPECT_EQ(CounterName(CounterId::kRecoveryRejoins), "recovery.rejoins");
  EXPECT_EQ(CounterName(CounterId::kRecoveryStateTransferRetries),
            "recovery.state_transfer_retries");
  EXPECT_EQ(HistogramName(HistogramId::kRecoveryTimeToRejoinUs),
            "recovery.time_to_rejoin_us");

  Recorder recorder;
  recorder.counters().Inc(CounterId::kFaultsAmnesiaCrashes);
  recorder.counters().Inc(CounterId::kRecoveryRejoins);
  recorder.counters().Inc(CounterId::kRecoveryStateTransferRetries);
  recorder.Record(HistogramId::kRecoveryTimeToRejoinUs, 1234);
  std::string json = recorder.ExportJson();
  EXPECT_NE(json.find("\"faults.amnesia_crashes\""), std::string::npos);
  EXPECT_NE(json.find("\"recovery.rejoins\""), std::string::npos);
  EXPECT_NE(json.find("\"recovery.state_transfer_retries\""),
            std::string::npos);
  EXPECT_NE(json.find("\"recovery.time_to_rejoin_us\""), std::string::npos);
}

}  // namespace
}  // namespace ziziphus::obs
