#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.h"
#include "obs/trace.h"

/// \file profile.h
/// The query profiler: folds a TraceLog into a per-stage / per-node
/// breakdown — where did the job's time go (I/O vs queue dwell vs CPU vs
/// retry backoff), which stage is the bottleneck, who are the stragglers —
/// and reconciles span counts against the executor's invocation counters so
/// a trace that silently dropped work is flagged instead of trusted.

namespace lakeharbor::obs {

/// External context the profiler checks the trace against. All optional;
/// without it the profile is built from spans alone.
struct ProfileInputs {
  /// Expected per-stage invocation counts (ExecMetricsCounters::per_stage).
  /// When non-empty, a stage whose successful work-span count differs gets
  /// a reconciliation warning.
  std::vector<uint64_t> stage_invocations;
  /// Expected per-stage emission counts, for the report.
  std::vector<uint64_t> stage_emitted;
  /// Tasks run as depth-first continuations, which queue no wait span
  /// (MetricsSnapshot::tasks_continued), for the report.
  uint64_t tasks_continued = 0;
  double wall_ms = 0.0;
  size_t straggler_top_k = 5;
};

/// Aggregates of one job stage.
struct StageBreakdown {
  uint32_t stage = 0;
  std::string name;              ///< name of the stage's work spans
  uint64_t work_spans = 0;       ///< successful ref/deref/batch invocations
  uint64_t failed_spans = 0;     ///< work spans that ended in error
  uint64_t emitted = 0;          ///< tuples emitted (work-span attrs)
  int64_t exec_us = 0;           ///< wall total of work spans
  int64_t io_us = 0;             ///< deref exec minus nested backoff
  int64_t cpu_us = 0;            ///< referencer exec
  int64_t queue_us = 0;          ///< queue-wait dwell
  int64_t backoff_us = 0;        ///< retry backoff sleeps
  int64_t failover_us = 0;
  uint64_t failover_hops = 0;
  int64_t hedge_us = 0;
  uint64_t hedges = 0;
  HistogramSnapshot latency;     ///< work-span durations, microseconds
};

struct NodeBreakdown {
  uint32_t node = 0;
  uint64_t work_spans = 0;
  int64_t exec_us = 0;
  int64_t queue_us = 0;
};

class JobProfile {
 public:
  /// Fold `trace` into the per-stage/per-node aggregate. Deterministic.
  static JobProfile Build(const TraceLog& trace,
                          const ProfileInputs& inputs = {});

  /// Plain-text report: header, per-stage table, per-node table, straggler
  /// top-K, reconciliation verdict.
  std::string ToText() const;

  /// True when every stage's span count matched its invocation counter (or
  /// no counters were supplied) and no other integrity warning fired.
  bool Reconciles() const { return warnings_.empty(); }
  const std::vector<std::string>& warnings() const { return warnings_; }

  const std::vector<StageBreakdown>& stages() const { return stages_; }
  const std::vector<NodeBreakdown>& nodes() const { return nodes_; }
  /// Longest successful work spans, most expensive first.
  const std::vector<Span>& stragglers() const { return stragglers_; }

  uint64_t job_id() const { return job_id_; }
  const std::string& job_name() const { return job_name_; }
  double wall_ms() const { return wall_ms_; }
  uint64_t total_spans() const { return total_spans_; }
  /// Tasks that went through a queue (one queue-wait span each) and tasks
  /// run as a continuation of the task before them on the same worker.
  uint64_t queued_tasks() const { return queued_tasks_; }
  uint64_t tasks_continued() const { return tasks_continued_; }

 private:
  uint64_t job_id_ = 0;
  std::string job_name_;
  std::string executor_;
  double wall_ms_ = 0.0;
  uint64_t total_spans_ = 0;
  uint64_t queued_tasks_ = 0;
  uint64_t tasks_continued_ = 0;
  std::vector<StageBreakdown> stages_;
  std::vector<NodeBreakdown> nodes_;
  std::vector<Span> stragglers_;
  std::vector<std::string> warnings_;
};

}  // namespace lakeharbor::obs
