#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/histogram.h"

namespace lakeharbor::rede {

/// Per-stage counters (invocations of the stage function and tuples it
/// emitted). Sized once per run; elements are stable in memory.
struct StageCounters {
  std::atomic<uint64_t> invocations{0};
  std::atomic<uint64_t> emitted{0};
};

/// Executor-side counters, independent of the device-level sim counters.
/// `peak_parallel_derefs` is the headline SMPE observable: how many
/// fine-grained I/O tasks were genuinely in flight at once.
struct ExecMetricsCounters {
  std::atomic<uint64_t> ref_invocations{0};
  std::atomic<uint64_t> deref_invocations{0};
  std::atomic<uint64_t> tuples_emitted{0};
  std::atomic<uint64_t> broadcasts{0};
  std::atomic<uint64_t> output_tuples{0};
  std::atomic<int64_t> active_derefs{0};
  std::atomic<int64_t> peak_parallel_derefs{0};
  /// Retry/backoff accounting (per-task Dereferencer retries on retryable
  /// statuses; see RetryPolicy).
  std::atomic<uint64_t> retries{0};
  std::atomic<uint64_t> retry_backoff_us{0};
  /// Tasks abandoned because the run failed: the task whose error was
  /// recorded plus tasks drained without executing during fail-fast.
  std::atomic<uint64_t> tasks_dropped_on_failure{0};
  /// Tasks the threaded engine ran as a depth-first continuation: a
  /// same-node follow-up the emitting worker kept and ran next, skipping the
  /// queue. Every other task run is a queued one with one queue_dwell_us
  /// sample, so the two add up to the tasks run.
  std::atomic<uint64_t> tasks_continued{0};
  /// Dereference batching: fused ExecuteBatch dispatches and the pointers
  /// they carried (singleton tasks are not counted as batches).
  std::atomic<uint64_t> deref_batches{0};
  std::atomic<uint64_t> deref_batched_pointers{0};
  /// Record-cache activity attributed to this run. Counted at the cache
  /// call sites (builtin_derefs.cc) directly into the run's own counters:
  /// every Lookup hit/miss, committed admission (with the evictions its
  /// insert displaced, via RecordCache::AdmissionOutcome) and call-site
  /// Invalidate is charged to the job that performed it. Per-job exact by
  /// construction — concurrent runs on one executor share the cache but
  /// never each other's counters, and summing these fields across all jobs
  /// of a cache reproduces its global monotonic counters exactly (asserted
  /// by tests/sched_test.cc). This replaced the old snapshot-the-cache-
  /// around-Execute delta scheme, whose per-job split broke under overlap.
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  std::atomic<uint64_t> cache_admissions{0};
  std::atomic<uint64_t> cache_evictions{0};
  std::atomic<uint64_t> cache_invalidations{0};
  /// Replica failover/hedging accounting. `failovers` counts replicas a
  /// read moved past (skipped as known-down, or answered kUnavailable);
  /// `replica_reads` counts reads actually issued against a non-primary
  /// replica; `hedged_reads` counts hedge timers that fired (a second
  /// request raced another replica) and `hedge_wins` the races the hedge
  /// won; `broadcast_redirects` counts broadcast copies re-homed because
  /// their target node was down.
  std::atomic<uint64_t> failovers{0};
  std::atomic<uint64_t> replica_reads{0};
  std::atomic<uint64_t> hedged_reads{0};
  std::atomic<uint64_t> hedge_wins{0};
  std::atomic<uint64_t> broadcast_redirects{0};
  /// Streaming-ingest accounting (src/ingest). Appends are charged at the
  /// StreamAppend call sites (the caller passes its run's counters, exactly
  /// like cache activity), seals where the epoch rolls, and the fold
  /// counters by the epoch-merge jobs into their own job's metrics — so an
  /// ingest-heavy job's JobProfile reconciles appends like reads.
  std::atomic<uint64_t> records_appended{0};
  std::atomic<uint64_t> bytes_appended{0};
  std::atomic<uint64_t> epochs_sealed{0};
  std::atomic<uint64_t> epochs_merged{0};
  std::atomic<uint64_t> records_folded{0};
  /// End-to-end integrity accounting. `corruptions_detected` counts reads
  /// a checksum mismatch failed (each is also a failover when another
  /// replica existed); `read_repairs` counts corrupt replicas rewritten in
  /// place from a clean copy; `unrepairable` counts reads where EVERY
  /// replica was corrupt or unreachable — the job surfaces kCorruption
  /// rather than wrong bytes.
  std::atomic<uint64_t> corruptions_detected{0};
  std::atomic<uint64_t> read_repairs{0};
  std::atomic<uint64_t> unrepairable{0};
  /// Latency/value distributions (log-scale, fixed buckets — see
  /// obs/histogram.h). Always on: Record() is an inline clz plus relaxed
  /// atomic increments, cheap enough for the hot path, and replaces the
  /// "sum-only" view (a mean hides exactly the tail that faults, hedging
  /// and failover exist to manage).
  obs::LatencyHistogram deref_latency_us;   ///< per Dereferencer attempt
  obs::LatencyHistogram queue_dwell_us;     ///< queued task enqueue -> start
  obs::LatencyHistogram deref_batch_size;   ///< pointers per fused batch
  obs::LatencyHistogram retry_backoff_hist_us;  ///< per backoff sleep
  /// One slot per job stage; constructed by the executor at run start.
  std::vector<StageCounters> per_stage;

  void InitStages(size_t num_stages) {
    per_stage = std::vector<StageCounters>(num_stages);
  }
  void CountStage(size_t stage, uint64_t emitted) {
    if (stage >= per_stage.size()) return;
    per_stage[stage].invocations.fetch_add(1, std::memory_order_relaxed);
    per_stage[stage].emitted.fetch_add(emitted, std::memory_order_relaxed);
  }

  void EnterDeref() {
    int64_t now = active_derefs.fetch_add(1, std::memory_order_relaxed) + 1;
    int64_t peak = peak_parallel_derefs.load(std::memory_order_relaxed);
    while (now > peak && !peak_parallel_derefs.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }
  void ExitDeref() { active_derefs.fetch_sub(1, std::memory_order_relaxed); }

  void Reset() {
    ref_invocations = 0;
    deref_invocations = 0;
    tuples_emitted = 0;
    broadcasts = 0;
    output_tuples = 0;
    active_derefs = 0;
    peak_parallel_derefs = 0;
    retries = 0;
    retry_backoff_us = 0;
    tasks_dropped_on_failure = 0;
    tasks_continued = 0;
    deref_batches = 0;
    deref_batched_pointers = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_admissions = 0;
    cache_evictions = 0;
    cache_invalidations = 0;
    failovers = 0;
    replica_reads = 0;
    hedged_reads = 0;
    hedge_wins = 0;
    broadcast_redirects = 0;
    records_appended = 0;
    bytes_appended = 0;
    epochs_sealed = 0;
    epochs_merged = 0;
    records_folded = 0;
    corruptions_detected = 0;
    read_repairs = 0;
    unrepairable = 0;
    deref_latency_us.Reset();
    queue_dwell_us.Reset();
    deref_batch_size.Reset();
    retry_backoff_hist_us.Reset();
    for (auto& stage : per_stage) {
      stage.invocations = 0;
      stage.emitted = 0;
    }
  }
};

/// Plain copyable per-stage snapshot.
struct StageSnapshot {
  uint64_t invocations = 0;
  uint64_t emitted = 0;
};

/// Plain copyable snapshot returned with job results.
struct MetricsSnapshot {
  /// Process-unique id of the run that produced this snapshot (see
  /// obs::NextJobId), so metrics, traces, and profiles correlate. All
  /// counters below — including cache_* — are exact per-job values even
  /// when runs overlap on one executor (see ExecMetricsCounters).
  uint64_t job_id = 0;
  uint64_t ref_invocations = 0;
  uint64_t deref_invocations = 0;
  uint64_t tuples_emitted = 0;
  uint64_t broadcasts = 0;
  uint64_t output_tuples = 0;
  int64_t peak_parallel_derefs = 0;
  uint64_t retries = 0;
  uint64_t retry_backoff_us = 0;
  uint64_t tasks_dropped_on_failure = 0;
  uint64_t tasks_continued = 0;
  uint64_t deref_batches = 0;
  uint64_t deref_batched_pointers = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_admissions = 0;
  uint64_t cache_evictions = 0;
  uint64_t cache_invalidations = 0;
  uint64_t failovers = 0;
  uint64_t replica_reads = 0;
  uint64_t hedged_reads = 0;
  uint64_t hedge_wins = 0;
  uint64_t broadcast_redirects = 0;
  uint64_t records_appended = 0;
  uint64_t bytes_appended = 0;
  uint64_t epochs_sealed = 0;
  uint64_t epochs_merged = 0;
  uint64_t records_folded = 0;
  /// Sealed-but-unmerged epochs as of the snapshot — the index-behind-log
  /// backlog this job observed (derived gauge, not a counter).
  uint64_t merge_backlog = 0;
  uint64_t corruptions_detected = 0;
  uint64_t read_repairs = 0;
  uint64_t unrepairable = 0;
  double wall_ms = 0.0;
  obs::HistogramSnapshot deref_latency_us;
  obs::HistogramSnapshot queue_dwell_us;
  obs::HistogramSnapshot deref_batch_size;
  obs::HistogramSnapshot retry_backoff_us_hist;
  std::vector<StageSnapshot> per_stage;

  /// Expected per-stage invocation counts in stage order — the profiler's
  /// reconciliation input (obs::ProfileInputs::stage_invocations).
  std::vector<uint64_t> StageInvocations() const {
    std::vector<uint64_t> counts;
    counts.reserve(per_stage.size());
    for (const StageSnapshot& stage : per_stage) {
      counts.push_back(stage.invocations);
    }
    return counts;
  }

  static MetricsSnapshot From(const ExecMetricsCounters& c, double wall_ms) {
    MetricsSnapshot s;
    s.ref_invocations = c.ref_invocations.load();
    s.deref_invocations = c.deref_invocations.load();
    s.tuples_emitted = c.tuples_emitted.load();
    s.broadcasts = c.broadcasts.load();
    s.output_tuples = c.output_tuples.load();
    s.peak_parallel_derefs = c.peak_parallel_derefs.load();
    s.retries = c.retries.load();
    s.retry_backoff_us = c.retry_backoff_us.load();
    s.tasks_dropped_on_failure = c.tasks_dropped_on_failure.load();
    s.tasks_continued = c.tasks_continued.load();
    s.deref_batches = c.deref_batches.load();
    s.deref_batched_pointers = c.deref_batched_pointers.load();
    s.cache_hits = c.cache_hits.load();
    s.cache_misses = c.cache_misses.load();
    s.cache_admissions = c.cache_admissions.load();
    s.cache_evictions = c.cache_evictions.load();
    s.cache_invalidations = c.cache_invalidations.load();
    s.failovers = c.failovers.load();
    s.replica_reads = c.replica_reads.load();
    s.hedged_reads = c.hedged_reads.load();
    s.hedge_wins = c.hedge_wins.load();
    s.broadcast_redirects = c.broadcast_redirects.load();
    s.records_appended = c.records_appended.load();
    s.bytes_appended = c.bytes_appended.load();
    s.epochs_sealed = c.epochs_sealed.load();
    s.epochs_merged = c.epochs_merged.load();
    s.records_folded = c.records_folded.load();
    s.merge_backlog =
        s.epochs_sealed > s.epochs_merged ? s.epochs_sealed - s.epochs_merged
                                          : 0;
    s.corruptions_detected = c.corruptions_detected.load();
    s.read_repairs = c.read_repairs.load();
    s.unrepairable = c.unrepairable.load();
    s.wall_ms = wall_ms;
    s.deref_latency_us = c.deref_latency_us.Snapshot();
    s.queue_dwell_us = c.queue_dwell_us.Snapshot();
    s.deref_batch_size = c.deref_batch_size.Snapshot();
    s.retry_backoff_us_hist = c.retry_backoff_hist_us.Snapshot();
    s.per_stage.reserve(c.per_stage.size());
    for (const auto& stage : c.per_stage) {
      s.per_stage.push_back(
          StageSnapshot{stage.invocations.load(), stage.emitted.load()});
    }
    return s;
  }
};

}  // namespace lakeharbor::rede
