#ifndef ZIZIPHUS_OBS_METRIC_IDS_H_
#define ZIZIPHUS_OBS_METRIC_IDS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

// Generated-style metric registry: the single grep-able definition of every
// counter and histogram in the system. Call sites hold typed handles
// (obs::CounterId / obs::HistogramId); an unknown metric is a compile error
// instead of a silently new string key.
//
// To add a metric, add one X-macro line below. Keep the lists grouped by
// subsystem prefix and alphabetical within a group: the enum order is the
// storage order, and the JSON export sorts by name regardless.
//
// This header is intentionally self-contained (no project includes) so that
// ziziphus_common can use the ids without linking against ziziphus_obs.

// clang-format off
#define ZIZIPHUS_COUNTER_LIST(X)                                          \
  /* Byzantine interceptors (sim/byzantine.cc) */                         \
  X(kByzEquivocationsEmitted,   "byz.equivocations_emitted")              \
  X(kByzForgedReadLies,         "byz.forged_read_lies")                   \
  X(kByzMsgsSuppressed,         "byz.msgs_suppressed")                    \
  X(kByzStaleReadLies,          "byz.stale_read_lies")                    \
  X(kByzStaleReplays,           "byz.stale_replays")                      \
  X(kByzStateLies,              "byz.state_lies")                         \
  /* Zone endorsement (core/endorsement.cc) */                            \
  X(kEndorseBadSig,             "endorse.bad_sig")                        \
  X(kEndorseBadVote,            "endorse.bad_vote")                       \
  X(kEndorseEquivocationDetected, "endorse.equivocation_detected")        \
  X(kEndorseRejected,           "endorse.rejected")                       \
  /* Fault schedule (sim/simulation.cc) */                                \
  X(kFaultsAmnesiaCrashes,      "faults.amnesia_crashes")                 \
  X(kFaultsCpuSlowdowns,        "faults.cpu_slowdowns")                   \
  X(kFaultsCrashes,             "faults.crashes")                         \
  X(kFaultsLinkDelays,          "faults.link_delays")                     \
  X(kFaultsLinkLoss,            "faults.link_loss")                       \
  X(kFaultsOneWayCuts,          "faults.one_way_cuts")                    \
  X(kFaultsPartitions,          "faults.partitions")                      \
  X(kFaultsRecoveries,          "faults.recoveries")                      \
  X(kFaultsScheduleApplied,     "faults.schedule_applied")                \
  /* Invariant checker (sim/invariants.cc) */                             \
  X(kInvariantsChecksRun,       "invariants.checks_run")                  \
  X(kInvariantsViolations,      "invariants.violations")                  \
  /* Lazy checkpoint sharing (core/lazy_sync.cc) */                       \
  X(kLazyBadCheckpointCert,     "lazy.bad_checkpoint_cert")               \
  X(kLazyCheckpointsInstalled,  "lazy.checkpoints_installed")             \
  X(kLazyCheckpointsShared,     "lazy.checkpoints_shared")                \
  /* Migration engine (core/migration.cc) */                              \
  X(kMigAppendDigestMismatch,   "mig.append_digest_mismatch")             \
  X(kMigAppends,                "mig.appends")                            \
  X(kMigBadAppendDigest,        "mig.bad_append_digest")                  \
  X(kMigBadChunkDigest,         "mig.bad_chunk_digest")                   \
  X(kMigBadStateCert,           "mig.bad_state_cert")                     \
  X(kMigBadStateDigest,         "mig.bad_state_digest")                   \
  X(kMigChunkedTransfers,       "mig.chunked_transfers")                  \
  X(kMigChunksReceived,         "mig.chunks_received")                    \
  X(kMigChunksSent,             "mig.chunks_sent")                        \
  X(kMigManifestsSent,          "mig.manifests_sent")                     \
  X(kMigRecordGenerations,      "mig.record_generations")                 \
  X(kMigStateMismatchRejected,  "mig.state_mismatch_rejected")            \
  X(kMigStateQueriesSent,       "mig.state_queries_sent")                 \
  X(kMigStatesResent,           "mig.states_resent")                      \
  X(kMigStatesSent,             "mig.states_sent")                        \
  /* Simulated network (sim/simulation.cc) */                             \
  X(kNetBytesSent,              "net.bytes_sent")                         \
  X(kNetMsgsDelivered,          "net.msgs_delivered")                     \
  X(kNetMsgsDropped,            "net.msgs_dropped")                       \
  X(kNetMsgsDuplicated,         "net.msgs_duplicated")                    \
  X(kNetMsgsSent,               "net.msgs_sent")                          \
  /* Per-node CPU model (obs::Recorder profiling hooks) */                \
  X(kNodeCpuBusyUs,             "node.cpu_busy_us")                       \
  X(kNodeCpuCryptoUs,           "node.cpu_crypto_us")                     \
  X(kNodeUnlockedClientRejected, "node.unlocked_client_rejected")         \
  X(kNodeUnroutableMessage,     "node.unroutable_message")                \
  /* Tracer bookkeeping (obs/trace.cc) */                                 \
  X(kObsSpansDropped,           "obs.spans_dropped")                      \
  X(kObsSpansOpened,            "obs.spans_opened")                       \
  X(kObsTracesCompleted,        "obs.traces_completed")                   \
  X(kObsTracesStarted,          "obs.traces_started")                     \
  /* Intra-zone PBFT (pbft/engine.cc) */                                  \
  X(kPbftBadBatchDigest,        "pbft.bad_batch_digest")                  \
  X(kPbftBadClientSig,          "pbft.bad_client_sig")                    \
  X(kPbftBadSig,                "pbft.bad_sig")                           \
  X(kPbftBadStateTransfer,      "pbft.bad_state_transfer")                \
  X(kPbftBatchesCommitted,      "pbft.batches_committed")                 \
  X(kPbftBatchesProposed,       "pbft.batches_proposed")                  \
  X(kPbftDeltaTransfers,        "pbft.delta_transfers")                   \
  X(kPbftEquivocationDetected,  "pbft.equivocation_detected")             \
  X(kPbftFallbackGraces,        "pbft.fallback_graces")                   \
  X(kPbftFastCommits,           "pbft.fast_commits")                      \
  X(kPbftFastConflicts,         "pbft.fast_conflicts")                    \
  X(kPbftFastFallbacks,         "pbft.fast_fallbacks")                    \
  X(kPbftFastSuppressed,        "pbft.fast_suppressed")                   \
  X(kPbftFullTransfers,         "pbft.full_transfers")                    \
  X(kPbftLogTrims,              "pbft.log_trims")                         \
  X(kPbftNewViewsEntered,       "pbft.new_views_entered")                 \
  X(kPbftNewViewsSent,          "pbft.new_views_sent")                    \
  X(kPbftOutOfWindow,           "pbft.out_of_window")                     \
  X(kPbftProgressTimeout,       "pbft.progress_timeout")                  \
  X(kPbftReplyCacheEvictions,   "pbft.reply_cache_evictions")             \
  X(kPbftStableCheckpoints,     "pbft.stable_checkpoints")                \
  X(kPbftStateTransfers,        "pbft.state_transfers")                   \
  X(kPbftViewChangesStarted,    "pbft.view_changes_started")              \
  /* Verifiable read fast path (pbft/engine.cc, app/client.cc) */         \
  X(kReadsCertRejected,         "reads.cert_rejected")                    \
  X(kReadsCertVerified,         "reads.cert_verified")                    \
  X(kReadsFallbackTxns,         "reads.fallback_txns")                    \
  X(kReadsRedirects,            "reads.redirects")                        \
  X(kReadsServed,               "reads.served")                           \
  X(kReadsSessionViolationsDetected, "reads.session_violations_detected") \
  /* Crash recovery (core/node.cc, pbft/engine.cc) */                     \
  X(kRecoveryRejoins,              "recovery.rejoins")                    \
  X(kRecoveryStateTransferRetries, "recovery.state_transfer_retries")     \
  /* Data synchronization (core/data_sync.cc) */                          \
  X(kSyncAcceptRejectedStale,   "sync.accept_rejected_stale")             \
  X(kSyncBadAcceptCert,         "sync.bad_accept_cert")                   \
  X(kSyncBadAcceptedCert,       "sync.bad_accepted_cert")                 \
  X(kSyncBadClientSig,          "sync.bad_client_sig")                    \
  X(kSyncBadCommitCert,         "sync.bad_commit_cert")                   \
  X(kSyncBadCommitSourceCert,   "sync.bad_commit_source_cert")            \
  X(kSyncBadCrossProposeCert,   "sync.bad_cross_propose_cert")            \
  X(kSyncBadEndorseDigest,      "sync.bad_endorse_digest")                \
  X(kSyncBadPreparedCert,       "sync.bad_prepared_cert")                 \
  X(kSyncBadPromiseCert,        "sync.bad_promise_cert")                  \
  X(kSyncBadProposeCert,        "sync.bad_propose_cert")                  \
  X(kSyncBatchesFormed,         "sync.batches_formed")                    \
  X(kSyncChainSkip,             "sync.chain_skip")                        \
  X(kSyncCommitsReshipped,      "sync.commits_reshipped")                 \
  X(kSyncCommitsSent,           "sync.commits_sent")                      \
  X(kSyncCrossProposesSent,     "sync.cross_proposes_sent")               \
  X(kSyncPreparedReceived,      "sync.prepared_received")                 \
  X(kSyncPreparedSent,          "sync.prepared_sent")                     \
  X(kSyncPrimarySuspected,      "sync.primary_suspected")                 \
  X(kSyncProposeRejectedStale,  "sync.propose_rejected_stale")            \
  X(kSyncRelayWatchExpired,     "sync.relay_watch_expired")               \
  X(kSyncReleadsAfterViewChange, "sync.releads_after_view_change")        \
  X(kSyncRequestsCompacted,     "sync.requests_compacted")                \
  X(kSyncRequestsLed,           "sync.requests_led")                      \
  X(kSyncResponseQueriesReceived, "sync.response_queries_received")       \
  X(kSyncResponseQueriesSent,   "sync.response_queries_sent")             \
  X(kSyncRetries,               "sync.retries")                           \
  X(kSyncSourceLegsStarted,     "sync.source_legs_started")               \
  /* Two-level PBFT baseline (baselines/two_level.cc) */                  \
  X(kTlBadGCommitCert,          "tl.bad_gcommit_cert")                    \
  X(kTlBadGPrepareCert,         "tl.bad_gprepare_cert")                   \
  X(kTlBadGPrePrepareCert,      "tl.bad_gpreprepare_cert")                \
  X(kTlCommitted,               "tl.committed")

#define ZIZIPHUS_HISTOGRAM_LIST(X)                                        \
  /* Client-observed end-to-end latency */                                \
  X(kClientGlobalLatencyUs,     "client.global_latency_us")               \
  X(kClientLocalLatencyUs,      "client.local_latency_us")                \
  X(kClientReadLatencyUs,       "client.read_latency_us")                 \
  /* Per-message wire size */                                             \
  X(kNetMsgBytes,               "net.msg_bytes")                         \
  /* Sim time from amnesia recovery to first post-rejoin execution */     \
  X(kRecoveryTimeToRejoinUs,    "recovery.time_to_rejoin_us")             \
  /* Event-queue depth, sampled at dispatch */                            \
  X(kSimQueueDepth,             "sim.queue_depth")                        \
  /* Span durations, recorded by the Tracer when a span closes */         \
  X(kSpanCertBuildUs,           "span.cert_build_us")                     \
  X(kSpanCertVerifyUs,          "span.cert_verify_us")                    \
  X(kSpanClientOpUs,            "span.client_op_us")                      \
  X(kSpanEndorseRoundUs,        "span.endorse_round_us")                  \
  X(kSpanHandleUs,              "span.handle_us")                         \
  X(kSpanMigDestInstallUs,      "span.mig_dest_install_us")               \
  X(kSpanMigSourceReadUs,       "span.mig_source_read_us")                \
  X(kSpanPbftCommitPhaseUs,     "span.pbft_commit_phase_us")              \
  X(kSpanPbftConsensusUs,       "span.pbft_consensus_us")                 \
  X(kSpanPbftExecuteUs,         "span.pbft_execute_us")                   \
  X(kSpanPbftPreparePhaseUs,    "span.pbft_prepare_phase_us")             \
  X(kSpanProxyRelayUs,          "span.proxy_relay_us")                    \
  X(kSpanReadServeUs,           "span.read_serve_us")                     \
  X(kSpanSyncBallotUs,          "span.sync_ballot_us")                    \
  X(kSpanTransitLanUs,          "span.transit_lan_us")                    \
  X(kSpanTransitWanUs,          "span.transit_wan_us")                    \
  X(kSpanViewChangeUs,          "span.view_change_us")

// Gauges are last-write-wins level samples (as opposed to monotonically
// increasing counters): the soak harness publishes the fleet's current
// retained-state footprint here each sampling tick. A gauge never written
// during a run is omitted from the export.
#define ZIZIPHUS_GAUGE_LIST(X)                                            \
  /* Checkpoint-anchored retention (sampled by app/soak.cc) */            \
  X(kRetentionCommitLogBytes,   "retention.commit_log_bytes")             \
  X(kRetentionLiveBytes,        "retention.live_bytes")                   \
  X(kRetentionPreparedProofs,   "retention.prepared_proofs")              \
  X(kRetentionReplyCacheEntries, "retention.reply_cache_entries")         \
  X(kRetentionSyncRequests,     "retention.sync_requests")                \
  X(kRetentionWalEntries,       "retention.wal_entries")
// clang-format on

namespace ziziphus::obs {

enum class CounterId : std::uint16_t {
#define ZIZIPHUS_OBS_ENUM_(id, name) id,
  ZIZIPHUS_COUNTER_LIST(ZIZIPHUS_OBS_ENUM_)
#undef ZIZIPHUS_OBS_ENUM_
      kCount
};

enum class HistogramId : std::uint16_t {
#define ZIZIPHUS_OBS_ENUM_(id, name) id,
  ZIZIPHUS_HISTOGRAM_LIST(ZIZIPHUS_OBS_ENUM_)
#undef ZIZIPHUS_OBS_ENUM_
      kCount
};

enum class GaugeId : std::uint16_t {
#define ZIZIPHUS_OBS_ENUM_(id, name) id,
  ZIZIPHUS_GAUGE_LIST(ZIZIPHUS_OBS_ENUM_)
#undef ZIZIPHUS_OBS_ENUM_
      kCount
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(CounterId::kCount);
inline constexpr std::size_t kNumHistograms =
    static_cast<std::size_t>(HistogramId::kCount);
inline constexpr std::size_t kNumGauges =
    static_cast<std::size_t>(GaugeId::kCount);

namespace detail {
inline constexpr const char* kCounterNames[] = {
#define ZIZIPHUS_OBS_NAME_(id, name) name,
    ZIZIPHUS_COUNTER_LIST(ZIZIPHUS_OBS_NAME_)
#undef ZIZIPHUS_OBS_NAME_
};
inline constexpr const char* kHistogramNames[] = {
#define ZIZIPHUS_OBS_NAME_(id, name) name,
    ZIZIPHUS_HISTOGRAM_LIST(ZIZIPHUS_OBS_NAME_)
#undef ZIZIPHUS_OBS_NAME_
};
inline constexpr const char* kGaugeNames[] = {
#define ZIZIPHUS_OBS_NAME_(id, name) name,
    ZIZIPHUS_GAUGE_LIST(ZIZIPHUS_OBS_NAME_)
#undef ZIZIPHUS_OBS_NAME_
};
}  // namespace detail

inline constexpr std::string_view CounterName(CounterId id) {
  return detail::kCounterNames[static_cast<std::size_t>(id)];
}
inline constexpr std::string_view HistogramName(HistogramId id) {
  return detail::kHistogramNames[static_cast<std::size_t>(id)];
}
inline constexpr std::string_view GaugeName(GaugeId id) {
  return detail::kGaugeNames[static_cast<std::size_t>(id)];
}

}  // namespace ziziphus::obs

#endif  // ZIZIPHUS_OBS_METRIC_IDS_H_
