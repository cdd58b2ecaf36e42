#pragma once

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include <memory>

#include "common/cancel.h"
#include "common/status_or.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "rede/job.h"
#include "rede/metrics.h"

namespace lakeharbor::rede {

/// Receives job output tuples (emissions of the final stage). Called from
/// many executor threads concurrently; implementations must be thread-safe.
using ResultSink = std::function<void(const Tuple& tuple)>;

/// What an executor returns besides the output stream.
struct JobResult {
  MetricsSnapshot metrics;
  /// The run's span trace when this run was traced (see
  /// SmpeOptions::trace_sample_n), nullptr otherwise.
  std::shared_ptr<const obs::TraceLog> trace;
};

/// Build the per-stage/per-node query profile of a traced run, reconciled
/// against the run's invocation counters. Returns an empty profile when the
/// run was not traced.
inline obs::JobProfile ProfileOf(const JobResult& result) {
  if (result.trace == nullptr) return obs::JobProfile();
  obs::ProfileInputs inputs;
  inputs.stage_invocations = result.metrics.StageInvocations();
  inputs.tasks_continued = result.metrics.tasks_continued;
  inputs.wall_ms = result.metrics.wall_ms;
  return obs::JobProfile::Build(*result.trace, inputs);
}

/// Common interface of the two ReDe execution strategies evaluated in
/// Fig 7: SmpeExecutor (w/ SMPE) and PartitionedExecutor (w/o SMPE).
///
/// Execute() is safe to call concurrently from many threads: all per-run
/// state (metrics, trace, in-flight tracking, cancellation) lives in a
/// per-call RunState, and cache activity is charged at its call sites to
/// the performing run — overlapping runs share pools and the record cache
/// but never each other's counters.
class Executor {
 public:
  virtual ~Executor() = default;
  virtual const std::string& name() const = 0;

  /// Run the job, streaming output tuples into `sink` (may be null when
  /// only metrics are wanted). Blocking; returns when the job has drained.
  ///
  /// `cancel` optionally injects an external CancelToken (the scheduler's
  /// per-job token): the run adopts it as its fail-fast flag, so an outside
  /// Cancel() — deadline expiry, tenant eviction — drains the run exactly
  /// like an internal permanent error, interrupting retry backoffs. Pass
  /// nullptr (or use the 2-arg overload) for a self-contained run. The
  /// token must outlive the call and be un-cancelled at entry.
  virtual StatusOr<JobResult> Execute(const Job& job, const ResultSink& sink,
                                      CancelToken* cancel) = 0;

  /// Convenience overload: run without an external cancellation token.
  StatusOr<JobResult> Execute(const Job& job, const ResultSink& sink) {
    return Execute(job, sink, nullptr);
  }

  /// True when Submit() below returns without blocking the calling thread
  /// for the duration of the run — the scheduler then holds an execution
  /// slot with a continuation instead of a parked worker thread.
  virtual bool SupportsAsyncSubmit() const { return false; }

  /// Completion continuation of an async submission. Invoked exactly once,
  /// on an executor-owned thread; must not block for long.
  using SubmitDone = std::function<void(StatusOr<JobResult>)>;

  /// Asynchronous submission: start the job and return; `done` fires when
  /// it drains. `sink` and `cancel` follow the Execute() contract and must
  /// stay valid until `done`. The base implementation degrades to the
  /// blocking Execute (done fires before Submit returns), which keeps
  /// every executor correct behind a scheduler that prefers Submit.
  virtual void Submit(const Job& job, const ResultSink& sink,
                      CancelToken* cancel, SubmitDone done) {
    done(Execute(job, sink, cancel));
  }
};

/// Thread-safe tuple collector for callers that want materialized results.
class TupleCollector {
 public:
  ResultSink AsSink() {
    return [this](const Tuple& tuple) {
      std::lock_guard<std::mutex> lock(mutex_);
      tuples_.push_back(tuple);
    };
  }

  std::vector<Tuple> TakeTuples() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::move(tuples_);
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return tuples_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Tuple> tuples_;
};

}  // namespace lakeharbor::rede
