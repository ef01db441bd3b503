// Canonical metric names for the instrumented layers.
//
// Every series palu emits is declared here once, so exporters, tests, and
// dashboards agree on spelling, and the sweep determinism suites can
// enumerate exactly which families exist.  Conventions follow the
// Prometheus guidance: `palu_` prefix, `_total` suffix on counters, unit
// suffix (`_ns`) on duration histograms, labels for low-cardinality
// dimensions only (reader, stage, path, outcome).
#pragma once

namespace palu::obs {

class Registry;

namespace names {

// --- ingest (src/io) ---------------------------------------------------
/// Counter{reader}: calls into a policy-aware reader.
inline constexpr char kIngestReads[] = "palu_ingest_reads_total";
/// Counter{reader, outcome=kept|repaired|dropped}: per-line dispositions.
inline constexpr char kIngestLines[] = "palu_ingest_lines_total";
/// Counter{reader}: reads aborted because max_bad_lines was exhausted.
inline constexpr char kIngestBudgetExhausted[] =
    "palu_ingest_budget_exhausted_total";

// --- window sweeps (src/traffic) ---------------------------------------
/// Counter: sweep_windows invocations.
inline constexpr char kSweepRuns[] = "palu_sweep_runs_total";
/// Counter{outcome=completed|failed|skipped}: per-window dispositions.
inline constexpr char kSweepWindows[] = "palu_sweep_windows_total";
/// Counter: sweeps that observed their cancel flag.
inline constexpr char kSweepCancelled[] = "palu_sweep_cancelled_total";
/// Counter: sweeps that hit their wall-clock deadline.
inline constexpr char kSweepDeadlineExpired[] =
    "palu_sweep_deadline_expired_total";
/// Counter: window failures caused by an armed failpoint.
inline constexpr char kSweepFailpointTrips[] =
    "palu_sweep_failpoint_trips_total";
/// Gauge: worker count of the pool driving the most recent sweep.
inline constexpr char kSweepPoolThreads[] = "palu_sweep_pool_threads";
/// Histogram{stage=sampling|accumulation|binning,
/// path=fast|counts|replay|expected}: per-worker CPU ns spent in each
/// stage (one observation per worker; one per analytic evaluation).
inline constexpr char kSweepStageDurationNs[] =
    "palu_sweep_stage_duration_ns";
/// Histogram: end-to-end wall ns per sweep_windows call.
inline constexpr char kSweepDurationNs[] = "palu_sweep_duration_ns";

// --- PALU fit (src/core/estimate.cpp) ------------------------------------
/// Counter{stage=mle}: profile-likelihood fit attempts.
inline constexpr char kFitStageAttempts[] = "palu_fit_stage_attempts_total";
/// Counter{stage=mle}: attempts that produced parameters.
inline constexpr char kFitStageSuccess[] = "palu_fit_stage_success_total";
/// Histogram{stage=mle}: profile evaluations (weight solves) per attempt.
inline constexpr char kFitStageIterations[] = "palu_fit_stage_iterations";
/// Counter{stage=mle|moments|failed}: which estimator each
/// robust_fit_palu call served.
inline constexpr char kFitResults[] = "palu_fit_results_total";
/// Counter: moment-fit retries inside robust_fit_palu's tail relaxation.
inline constexpr char kFitBaseRetries[] = "palu_fit_base_retries_total";

// --- columnar window store (src/store) ----------------------------------
/// Counter: window blocks appended by capture writers.
inline constexpr char kStoreBlocksWritten[] =
    "palu_store_blocks_written_total";
/// Counter: bytes written by capture writers (headers + payloads +
/// manifest/trailer).
inline constexpr char kStoreBytesWritten[] =
    "palu_store_bytes_written_total";
/// Counter: window blocks read and decoded by replay readers.
inline constexpr char kStoreBlocksRead[] = "palu_store_blocks_read_total";
/// Counter: bytes read by replay readers.
inline constexpr char kStoreBytesRead[] = "palu_store_bytes_read_total";
/// Counter: blocks or manifests rejected for a bad magic, size, or
/// FNV-1a checksum.
inline constexpr char kStoreChecksumFailures[] =
    "palu_store_checksum_failures_total";
/// Counter: store opens that met a torn tail (missing/corrupt manifest).
inline constexpr char kStoreTornTails[] = "palu_store_torn_tails_total";
/// Histogram: per-block varint/delta decode ns on the replay path.
inline constexpr char kStoreDecodeNs[] = "palu_store_decode_ns";

// --- streaming service (src/serve) --------------------------------------
/// Counter: packets admitted into the serve window accumulator.
inline constexpr char kServePackets[] = "palu_serve_packets_total";
/// Counter: window boundaries processed (published result lines).
inline constexpr char kServeWindowsFitted[] =
    "palu_serve_windows_fitted_total";
/// Counter: windows whose tumbling lane degraded to stale parameters.
inline constexpr char kServeWindowsStale[] =
    "palu_serve_windows_stale_total";
/// Counter: windows published from the previous fit after a deadline miss.
inline constexpr char kServeDeadlineMisses[] =
    "palu_serve_fit_deadline_misses_total";
/// Gauge: records currently queued between ingest and fit.
inline constexpr char kServeQueueDepth[] = "palu_serve_queue_depth";
/// Counter{policy=drop-oldest|drop-newest}: records shed by backpressure.
inline constexpr char kServeQueueDropped[] =
    "palu_serve_queue_dropped_total";
/// Counter{stage=ingest|fit}: supervised stage restarts.
inline constexpr char kServeStageRestarts[] =
    "palu_serve_stage_restarts_total";
/// Counter: checkpoints written successfully.
inline constexpr char kServeCheckpointWrites[] =
    "palu_serve_checkpoint_writes_total";
/// Counter: checkpoint writes that failed (service kept running).
inline constexpr char kServeCheckpointFailures[] =
    "palu_serve_checkpoint_failures_total";
/// Gauge: window boundaries since the last successful checkpoint.
inline constexpr char kServeCheckpointAge[] =
    "palu_serve_checkpoint_age_windows";
/// Counter{outcome=ok|failed}: restore attempts at startup.
inline constexpr char kServeRestores[] = "palu_serve_restore_total";
/// Gauge: consecutive windows the tumbling lane has been stale.
inline constexpr char kServeStaleness[] = "palu_serve_staleness_windows";
/// Counter: metrics snapshot files written.
inline constexpr char kServeSnapshotWrites[] =
    "palu_serve_snapshot_writes_total";

}  // namespace names

/// Registers every family above (with help text) so exporters emit a
/// complete, stably-ordered catalogue even for layers that have not run
/// yet.  Idempotent; used by palu_tool --metrics and bench_sweep.
void preregister_palu_metrics(Registry& registry);

}  // namespace palu::obs
