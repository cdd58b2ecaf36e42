#include "rede/async_executor.h"

#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

#include "common/clock.h"
#include "common/random.h"
#include "concurrent/inflight_tracker.h"
#include "obs/trace.h"
#include "rede/deref_batch.h"
#include "sim/completion_queue.h"

namespace lakeharbor::rede {

namespace {
/// Approximate wire size of a tuple shipped in a broadcast message (kept
/// identical to the threaded engine's so broadcast charges match byte for
/// byte).
size_t ApproxTupleBytes(const Tuple& tuple) {
  size_t bytes = tuple.pointer.key.size() + tuple.pointer.partition_key.size();
  for (const auto& record : tuple.records) bytes += record.size();
  return bytes + 16;
}

void RecordQueueWaitSpan(obs::TraceRecorder* trace, size_t stage,
                         sim::NodeId node, int64_t enqueue_us,
                         int64_t dequeue_us) {
  if (trace == nullptr || enqueue_us <= 0 || dequeue_us < enqueue_us) return;
  obs::Span span;
  span.name = "queue-wait";
  span.kind = obs::SpanKind::kQueueWait;
  span.stage = static_cast<uint32_t>(stage);
  span.node = node;
  span.t_start_us = enqueue_us;
  span.t_end_us = dequeue_us;
  trace->Record(std::move(span));
}

void RecordBackoffSpan(obs::TraceRecorder* trace, size_t stage,
                       sim::NodeId node, int64_t sleep_start_us, size_t retry,
                       uint64_t backoff_us, bool interrupted) {
  if (trace == nullptr) return;
  obs::Span span;
  span.name = "retry-backoff";
  span.kind = obs::SpanKind::kRetryBackoff;
  span.stage = static_cast<uint32_t>(stage);
  span.node = node;
  span.t_start_us = sleep_start_us;
  span.t_end_us = NowMicros();
  span.AddAttr("retry", static_cast<int64_t>(retry));
  span.AddAttr("backoff_us", static_cast<int64_t>(backoff_us));
  if (interrupted) span.AddAttr("interrupted", 1);
  trace->Record(std::move(span));
}
}  // namespace

/// All state of one submission. shared_ptr-owned: task thunks, suspended
/// continuation frames, the completion-queue listeners' pending thunks, and
/// the armed NotifyOnZero callback all keep it alive; the last reference
/// drops shortly after FinalizeRun delivers the result.
struct AsyncExecutor::RunState {
  const Job* job = nullptr;
  std::string job_name;
  uint64_t job_id = 0;
  uint32_t num_nodes = 0;
  uint64_t fanout_epoch = 0;
  obs::TraceRecorder* trace = nullptr;
  std::unique_ptr<obs::TraceRecorder> recorder;
  ExecMetricsCounters metrics;
  InflightTracker inflight;
  StopWatch watch;

  std::mutex sink_mutex;
  ResultSink sink;

  CancelToken* cancel = nullptr;
  CancelToken owned_cancel;
  /// Guards the watchdog against cancelling through a caller-owned token
  /// whose lifetime ended with the completion callback: once `finalized`
  /// flips (under the mutex, before on_done runs), late timers stand down.
  std::mutex finalize_mutex;
  bool finalized = false;

  Executor::SubmitDone on_done;
  /// Continuation runtime handed to stage functions (real-time mode only;
  /// null under deterministic replay, which makes the builtin state
  /// machines skip hedging — same rule as the threaded engine).
  std::unique_ptr<Runtime> runtime;
  /// One completion queue per node: listener mode in real time (forwarding
  /// to the worker pool), pull mode under deterministic replay.
  std::vector<std::unique_ptr<sim::CompletionQueue>> cqs;
  /// Deterministic mode only: per-node task queues drained by the seeded
  /// single-threaded driver.
  std::vector<std::unique_ptr<MpmcQueue<Task>>> det_queues;

  void RecordError(const Status& status, const std::string& where) {
    cancel->Cancel(status.WithContext(where));
  }
  bool Failed() const { return cancel->cancelled(); }
  void Emit(const Tuple& tuple) {
    metrics.output_tuples.fetch_add(1, std::memory_order_relaxed);
    if (!sink) return;
    std::lock_guard<std::mutex> lock(sink_mutex);
    sink(tuple);
  }
  void CancelFromWatchdog(Status cause) {
    std::lock_guard<std::mutex> lock(finalize_mutex);
    if (finalized) return;
    cancel->Cancel(std::move(cause));
  }
};

/// One task's continuation state machine — the async analogue of the
/// threaded engine's RunTask stack frame. Owns the task's tuples, emission
/// buffer, and retry counter across suspensions.
struct AsyncExecutor::TaskFrame {
  std::shared_ptr<RunState> run;
  sim::NodeId node = 0;
  Task task;
  const StageFunction* fn = nullptr;
  ExecContext ctx;
  std::vector<Tuple> outs;
  size_t retry = 0;
  bool batched = false;
  int64_t work_start_us = 0;
  int64_t attempt_start_us = 0;
};

class AsyncExecutor::Runtime final : public AsyncRuntime {
 public:
  Runtime(AsyncExecutor* exec, RunState* run) : exec_(exec), run_(run) {}
  void Post(std::function<void()> fn) override {
    exec_->ready_.Push(std::move(fn));
  }
  void After(uint64_t delay_us, std::function<void()> fn) override {
    // The timer thread only enqueues; the continuation runs on a worker.
    exec_->timers_.After(delay_us,
                         [exec = exec_, fn = std::move(fn)]() mutable {
                           exec->ready_.Push(std::move(fn));
                         });
  }
  void RetainIo() override { run_->inflight.Add(); }
  void ReleaseIo() override { run_->inflight.Done(); }

 private:
  AsyncExecutor* exec_;
  RunState* run_;
};

AsyncExecutor::AsyncExecutor(sim::Cluster* cluster, SmpeOptions options)
    : cluster_(cluster), options_(options), ready_(0, &pool_dwell_) {
  LH_CHECK(cluster_ != nullptr);
  if (options_.cache.enabled) {
    cache_ = std::make_unique<RecordCache>(options_.cache);
  }
  if (options_.deterministic_seed == 0) {
    size_t n = options_.async_workers != 0
                   ? options_.async_workers
                   : static_cast<size_t>(std::thread::hardware_concurrency());
    if (n == 0) n = 1;
    workers_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }
}

AsyncExecutor::~AsyncExecutor() {
  // Contract (as with the threaded engine's pools): no runs in flight.
  // timers_ is destroyed before ready_ by declaration order, so a pending
  // timer closure either fires into the closed queue (dropped) or is
  // dropped by ~TimerService itself.
  ready_.Close();
  for (auto& worker : workers_) worker.join();
}

void AsyncExecutor::WorkerLoop() {
  while (auto fn = ready_.Pop()) {
    (*fn)();
  }
}

void AsyncExecutor::RunTaskAsync(const std::shared_ptr<RunState>& run,
                                 sim::NodeId node, Task task) {
  if (run->Failed()) {
    // Fail-fast drain, identical to the threaded engine.
    run->metrics.tasks_dropped_on_failure.fetch_add(1,
                                                    std::memory_order_relaxed);
    run->inflight.Done();
    return;
  }
  LH_CHECK(!task.tuples.empty());
  const int64_t dequeue_us = NowMicros();
  if (task.enqueue_us > 0 && dequeue_us >= task.enqueue_us) {
    run->metrics.queue_dwell_us.Record(
        static_cast<uint64_t>(dequeue_us - task.enqueue_us));
  }
  RecordQueueWaitSpan(run->trace, task.stage, node, task.enqueue_us,
                      dequeue_us);
  auto frame = std::make_shared<TaskFrame>();
  frame->run = run;
  frame->node = node;
  frame->fn = run->job->stages()[task.stage].get();
  frame->task = std::move(task);
  frame->work_start_us = dequeue_us;
  frame->batched = frame->task.tuples.size() > 1;
  ExecContext ctx{node, cluster_, &run->metrics, cache_.get()};
  ctx.cancel = run->cancel;
  ctx.trace = run->trace;
  ctx.stage = static_cast<uint32_t>(frame->task.stage);
  ctx.completion_queue = run->cqs[node].get();
  if (options_.deterministic_seed == 0) {
    ctx.async = run->runtime.get();
    // Hedging needs the runtime (deadline timers); ctx.stragglers stays
    // null — the async hedge pins the run instead of parking a thread.
    if (options_.hedge.enabled) ctx.hedge = options_.hedge;
  }
  frame->ctx = ctx;
  if (frame->batched) {
    run->metrics.deref_batches.fetch_add(1, std::memory_order_relaxed);
    run->metrics.deref_batched_pointers.fetch_add(frame->task.tuples.size(),
                                                  std::memory_order_relaxed);
    run->metrics.deref_batch_size.Record(frame->task.tuples.size());
  }
  StartAttempt(frame);
}

void AsyncExecutor::StartAttempt(const std::shared_ptr<TaskFrame>& frame) {
  frame->outs.clear();  // discard partial emissions of a failed attempt
  RunState& run = *frame->run;
  const StageFunction& fn = *frame->fn;
  if (fn.IsDereferencer()) {
    run.metrics.deref_invocations.fetch_add(1, std::memory_order_relaxed);
    // EnterDeref..ExitDeref spans the SUSPENSION: a dereference awaiting a
    // device completion is in flight without holding a worker, which is the
    // engine's headline observable (peak_parallel_derefs >> #workers).
    // deref_latency_us likewise measures submit -> completion wall time,
    // the same span the threaded engine measures around its blocked call.
    run.metrics.EnterDeref();
    frame->attempt_start_us = NowMicros();
    auto cb = [this, frame](Status s) { OnAttemptDone(frame, std::move(s)); };
    if (frame->batched) {
      fn.ExecuteBatchAsync(frame->ctx, frame->task.tuples, &frame->outs,
                           std::move(cb));
    } else {
      fn.ExecuteAsync(frame->ctx, frame->task.tuples.front(), &frame->outs,
                      std::move(cb));
    }
    return;
  }
  // Referencer tasks are always singletons and pure CPU: run them to
  // completion right here.
  run.metrics.ref_invocations.fetch_add(1, std::memory_order_relaxed);
  Status status =
      fn.Execute(frame->ctx, frame->task.tuples.front(), &frame->outs);
  OnAttemptDone(frame, std::move(status));
}

void AsyncExecutor::OnAttemptDone(const std::shared_ptr<TaskFrame>& frame,
                                  Status status) {
  RunState& run = *frame->run;
  const StageFunction& fn = *frame->fn;
  if (fn.IsDereferencer()) {
    const int64_t attempt_us = NowMicros() - frame->attempt_start_us;
    run.metrics.deref_latency_us.Record(
        attempt_us > 0 ? static_cast<uint64_t>(attempt_us) : 0);
    run.metrics.ExitDeref();
  }
  // Same retry gate as the threaded engine, verbatim.
  if (status.ok() || !fn.IsDereferencer() || !status.IsRetryable() ||
      frame->retry >= options_.retry.max_retries || run.Failed()) {
    FinishTask(frame, std::move(status));
    return;
  }
  ++frame->retry;
  const uint64_t jitter_seed =
      run.job_id ^ (static_cast<uint64_t>(frame->node) << 32) ^
      static_cast<uint64_t>(frame->task.stage);
  const uint64_t backoff_us =
      options_.retry.JitteredBackoffUs(frame->retry, jitter_seed);
  run.metrics.retries.fetch_add(1, std::memory_order_relaxed);
  run.metrics.retry_backoff_us.fetch_add(backoff_us,
                                         std::memory_order_relaxed);
  run.metrics.retry_backoff_hist_us.Record(backoff_us);
  if (backoff_us == 0) {
    StartAttempt(frame);
    return;
  }
  const int64_t sleep_start_us = NowMicros();
  if (frame->ctx.async != nullptr) {
    // Real-time: the backoff is a timer, not a sleeping worker. The resume
    // thunk re-checks cancellation, so a cancelled job exits its ladder
    // within one backoff quantum (it drains the CURRENT interval rather
    // than waking mid-sleep — the threaded engine's documented promptness
    // bound already allows one full backoff interval).
    const size_t retry = frame->retry;
    frame->ctx.async->After(
        backoff_us, [this, frame, status = std::move(status), sleep_start_us,
                     backoff_us, retry]() mutable {
          ResumeAfterBackoff(frame, std::move(status), sleep_start_us,
                             backoff_us, retry);
        });
    return;
  }
  // Deterministic replay: interruptible inline wait on the driver thread,
  // exactly like the threaded engine's deterministic mode.
  const bool interrupted = run.cancel->WaitFor(backoff_us);
  RecordBackoffSpan(run.trace, frame->task.stage, frame->node, sleep_start_us,
                    frame->retry, backoff_us, interrupted);
  if (interrupted) {
    FinishTask(frame, std::move(status));
    return;
  }
  StartAttempt(frame);
}

void AsyncExecutor::ResumeAfterBackoff(const std::shared_ptr<TaskFrame>& frame,
                                       Status status, int64_t sleep_start_us,
                                       uint64_t backoff_us, size_t retry) {
  RunState& run = *frame->run;
  const bool interrupted = run.Failed();
  RecordBackoffSpan(run.trace, frame->task.stage, frame->node, sleep_start_us,
                    retry, backoff_us, interrupted);
  if (interrupted) {
    FinishTask(frame, std::move(status));
    return;
  }
  StartAttempt(frame);
}

void AsyncExecutor::FinishTask(const std::shared_ptr<TaskFrame>& frame,
                               Status status) {
  RunState& run = *frame->run;
  const StageFunction& fn = *frame->fn;
  if (run.trace != nullptr) {
    // One work span per counted invocation (failed ones marked, so the
    // profiler reconciles successful spans against CountStage exactly).
    obs::Span span;
    span.name = fn.name();
    span.kind = frame->batched       ? obs::SpanKind::kDerefBatch
                : fn.IsDereferencer() ? obs::SpanKind::kDereference
                                      : obs::SpanKind::kReferencer;
    span.stage = static_cast<uint32_t>(frame->task.stage);
    span.node = frame->node;
    span.t_start_us = frame->work_start_us;
    span.t_end_us = NowMicros();
    span.AddAttr("emitted", static_cast<int64_t>(frame->outs.size()));
    span.AddAttr("attempts", static_cast<int64_t>(frame->retry + 1));
    if (frame->batched) {
      span.AddAttr("batch", static_cast<int64_t>(frame->task.tuples.size()));
    }
    if (!status.ok()) span.AddAttr("failed", 1);
    run.trace->Record(std::move(span));
  }
  if (!status.ok()) {
    run.metrics.tasks_dropped_on_failure.fetch_add(1,
                                                   std::memory_order_relaxed);
    run.RecordError(status, "stage " + std::to_string(frame->task.stage) +
                                " (" + fn.name() + ") on node " +
                                std::to_string(frame->node) + " after " +
                                std::to_string(frame->retry + 1) +
                                " attempts");
  } else {
    run.metrics.CountStage(frame->task.stage, frame->outs.size());
    Route(frame->run, frame->node, frame->task.stage + 1,
          std::move(frame->outs));
  }
  // May drive the count to zero and finalize the run on this thread.
  frame->run->inflight.Done();
}

void AsyncExecutor::Route(const std::shared_ptr<RunState>& runp,
                          sim::NodeId node, size_t next_stage,
                          std::vector<Tuple>&& tuples) {
  RunState& state = *runp;
  state.metrics.tuples_emitted.fetch_add(tuples.size(),
                                         std::memory_order_relaxed);
  // Same routing rules as the threaded engine (LIFO work stack, inline
  // referencers, broadcast redirects, batch coalescing), except that every
  // follow-up is dispatched: the threaded engine's depth-first continuation
  // (a worker running its own same-node keyed follow-up next) is not done
  // here. Dispatch() enqueues a continuation thunk instead of pushing into
  // a per-node dispatcher queue. Broadcast ChargeMessage stays
  // synchronous on the routing thread (a known, documented deviation: it
  // charges the identical cost, it just doesn't suspend).
  struct Pending {
    size_t stage;
    Tuple tuple;
  };
  std::vector<Pending> work;
  work.reserve(tuples.size());
  std::map<size_t, std::vector<Tuple>> batch_buffer;
  for (auto it = tuples.rbegin(); it != tuples.rend(); ++it) {
    work.push_back(Pending{next_stage, std::move(*it)});
  }
  while (!work.empty()) {
    if (state.Failed()) return;
    Pending pending = std::move(work.back());
    work.pop_back();
    if (pending.stage >= state.job->num_stages()) {
      state.Emit(pending.tuple);
      continue;
    }
    const StageFunction& next_fn = *state.job->stages()[pending.stage];
    if (!next_fn.IsDereferencer() && options_.inline_referencers) {
      ExecContext ctx{node, cluster_, &state.metrics};
      ctx.trace = state.trace;
      ctx.stage = static_cast<uint32_t>(pending.stage);
      std::vector<Tuple> outs;
      state.metrics.ref_invocations.fetch_add(1, std::memory_order_relaxed);
      const int64_t start_us = state.trace != nullptr ? NowMicros() : 0;
      Status status = next_fn.Execute(ctx, pending.tuple, &outs);
      if (state.trace != nullptr) {
        obs::Span span;
        span.name = next_fn.name();
        span.kind = obs::SpanKind::kReferencer;
        span.stage = static_cast<uint32_t>(pending.stage);
        span.node = node;
        span.t_start_us = start_us;
        span.t_end_us = NowMicros();
        span.AddAttr("emitted", static_cast<int64_t>(outs.size()));
        span.AddAttr("inline", 1);
        if (!status.ok()) span.AddAttr("failed", 1);
        state.trace->Record(std::move(span));
      }
      if (!status.ok()) {
        state.RecordError(status, next_fn.name());
        return;
      }
      state.metrics.CountStage(pending.stage, outs.size());
      state.metrics.tuples_emitted.fetch_add(outs.size(),
                                             std::memory_order_relaxed);
      for (auto it = outs.rbegin(); it != outs.rend(); ++it) {
        work.push_back(Pending{pending.stage + 1, std::move(*it)});
      }
      continue;
    }
    if (next_fn.IsDereferencer() && !pending.tuple.pointer.has_partition &&
        !pending.tuple.resolve_local && next_fn.WantsBroadcast()) {
      state.metrics.broadcasts.fetch_add(1, std::memory_order_relaxed);
      const size_t bytes = ApproxTupleBytes(pending.tuple);
      const sim::NodeId last = state.num_nodes - 1;
      const bool replicated = next_fn.TargetReplication() > 1;
      for (sim::NodeId m = 0; m <= last; ++m) {
        sim::NodeId dest = m;
        uint32_t owner = Tuple::kResolveOnSelf;
        if (m != node) {
          if (replicated && cluster_->NodeIsDown(m)) {
            dest = node;
            owner = m;
            state.metrics.broadcast_redirects.fetch_add(
                1, std::memory_order_relaxed);
          } else {
            Status status = cluster_->ChargeMessage(node, m, bytes);
            if (!status.ok()) {
              if (replicated && status.IsUnavailable()) {
                dest = node;
                owner = m;
                state.metrics.broadcast_redirects.fetch_add(
                    1, std::memory_order_relaxed);
              } else {
                state.RecordError(status, "broadcast");
                return;
              }
            }
          }
        }
        Tuple copy = (m == last) ? std::move(pending.tuple) : pending.tuple;
        copy.resolve_local = true;
        copy.resolve_owner = owner;
        copy.resolve_epoch = state.fanout_epoch;
        state.inflight.Add();
        Dispatch(runp, dest,
                 Task{pending.stage, {std::move(copy)}, NowMicros()});
      }
      continue;
    }
    if (options_.batch.enabled && next_fn.IsDereferencer() &&
        !pending.tuple.is_range && pending.tuple.pointer.has_partition &&
        next_fn.SupportsBatchedDereference()) {
      batch_buffer[pending.stage].push_back(std::move(pending.tuple));
      continue;
    }
    state.inflight.Add();
    Dispatch(runp, node,
             Task{pending.stage, {std::move(pending.tuple)}, NowMicros()});
  }
  for (auto& [stage, buffered] : batch_buffer) {
    if (state.Failed()) return;
    const StageFunction& fn = *state.job->stages()[stage];
    for (PointerBatch& batch : CoalesceByPartition(
             std::move(buffered), fn, options_.batch.max_batch_size)) {
      state.inflight.Add();
      Dispatch(runp, node, Task{stage, std::move(batch.tuples), NowMicros()});
    }
  }
}

void AsyncExecutor::Dispatch(const std::shared_ptr<RunState>& run,
                             sim::NodeId dest, Task task) {
  // The caller registered the task in flight before handing it here.
  if (options_.deterministic_seed != 0) {
    if (!run->det_queues[dest]->Push(std::move(task))) {
      run->inflight.Done();  // rejected enqueue: balance or hang
    }
    return;
  }
  bool pushed =
      ready_.Push([this, run, dest, t = std::move(task)]() mutable {
        RunTaskAsync(run, dest, std::move(t));
      });
  if (!pushed) {
    run->inflight.Done();  // executor shutting down under a live run
  }
}

void AsyncExecutor::SeedInitial(const std::shared_ptr<RunState>& run) {
  const uint32_t num_nodes = run->num_nodes;
  Tuple initial = run->job->initial_input();
  initial.resolve_epoch = run->fanout_epoch;
  if (initial.resolve_local) {
    run->inflight.Add(num_nodes);
    for (uint32_t n = 0; n < num_nodes; ++n) {
      Dispatch(run, n, Task{0, {initial}, NowMicros()});
    }
  } else {
    run->inflight.Add();
    Dispatch(run, 0, Task{0, {std::move(initial)}, NowMicros()});
  }
}

void AsyncExecutor::FinalizeRun(const std::shared_ptr<RunState>& run) {
  // Runs on whichever thread drove the in-flight count to zero — a worker
  // delivering the last completion, or the submitting thread when the run
  // finished during setup. Zero tasks, continuations, or device ops remain:
  // every suspended frame held an in-flight reference until its completion
  // was consumed (hedge losers via RetainIo), so count == 0 is quiescence.
  std::optional<StatusOr<JobResult>> result;
  if (run->cancel->cancelled()) {
    result.emplace(run->cancel->cause());
  } else {
    JobResult jr;
    jr.metrics =
        MetricsSnapshot::From(run->metrics, run->watch.ElapsedMillis());
    jr.metrics.job_id = run->job_id;
    if (run->recorder != nullptr) {
      auto log = std::make_shared<obs::TraceLog>();
      log->job_id = run->job_id;
      log->job_name = run->job_name;
      log->executor = name_;
      log->spans = run->recorder->Collect();
      jr.trace = std::move(log);
    }
    result.emplace(std::move(jr));
  }
  {
    // After this, the deadline watchdog stands down: the caller may destroy
    // its CancelToken as soon as on_done returns.
    std::lock_guard<std::mutex> lock(run->finalize_mutex);
    run->finalized = true;
  }
  run->on_done(std::move(*result));
}

void AsyncExecutor::Submit(const Job& job, const ResultSink& sink,
                           CancelToken* cancel, SubmitDone done) {
  if (options_.deterministic_seed != 0) {
    // Deterministic replay runs on the calling thread by design.
    done(Execute(job, sink, cancel));
    return;
  }
  auto run = std::make_shared<RunState>();
  run->job = &job;
  run->job_name = job.name();
  run->job_id = obs::NextJobId();
  run->sink = sink;
  run->cancel = cancel != nullptr ? cancel : &run->owned_cancel;
  run->on_done = std::move(done);
  run->metrics.InitStages(job.num_stages());
  const uint64_t run_seq = run_seq_.fetch_add(1, std::memory_order_relaxed);
  if (options_.trace_sample_n > 0 && run_seq % options_.trace_sample_n == 0) {
    run->recorder = std::make_unique<obs::TraceRecorder>(run->job_id);
    run->trace = run->recorder.get();
  }
  run->num_nodes = cluster_->num_nodes();
  run->fanout_epoch = cluster_->placement_epoch();
  run->runtime = std::make_unique<Runtime>(this, run.get());
  run->cqs.reserve(run->num_nodes);
  for (uint32_t n = 0; n < run->num_nodes; ++n) {
    auto cq = std::make_unique<sim::CompletionQueue>();
    // Listener mode: completions (from the device timer thread, or inline
    // on a submitting worker) are handed to the pool as thunks — never run
    // in place, so the device stack never re-enters itself.
    cq->SetListener([this](const sim::Completion& c) {
      ready_.Push([c]() { sim::DeliverCallbackTag(c); });
    });
    run->cqs.push_back(std::move(cq));
  }
  // Run guard: hold the count above zero across seeding AND arming so the
  // completion callback cannot fire mid-setup (the race-free pattern
  // documented on InflightTracker::NotifyOnZero).
  run->inflight.Add();
  SeedInitial(run);
  run->inflight.NotifyOnZero([this, run]() { FinalizeRun(run); });
  if (options_.deadline_ms > 0) {
    std::weak_ptr<RunState> weak = run;
    const uint64_t deadline_ms = options_.deadline_ms;
    timers_.After(deadline_ms * 1000, [weak, deadline_ms]() {
      if (auto r = weak.lock()) {
        r->CancelFromWatchdog(Status::DeadlineExceeded(
            "job '" + r->job_name + "' exceeded deadline of " +
            std::to_string(deadline_ms) + "ms"));
      }
    });
  }
  run->inflight.Done();  // drop the guard; the run may finalize any time
}

StatusOr<JobResult> AsyncExecutor::Execute(const Job& job,
                                           const ResultSink& sink,
                                           CancelToken* cancel) {
  if (options_.deterministic_seed != 0) {
    return ExecuteDeterministic(job, sink, cancel);
  }
  std::mutex mutex;
  std::condition_variable cv;
  std::optional<StatusOr<JobResult>> result;
  Submit(job, sink, cancel, [&](StatusOr<JobResult> r) {
    // Notify while holding the lock: the waiter owns `cv` on its stack and
    // destroys it as soon as it sees the predicate, so an unlocked notify
    // could race with that destruction.
    std::lock_guard<std::mutex> lock(mutex);
    result = std::move(r);
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&] { return result.has_value(); });
  return std::move(*result);
}

StatusOr<JobResult> AsyncExecutor::ExecuteDeterministic(const Job& job,
                                                        const ResultSink& sink,
                                                        CancelToken* cancel) {
  auto run = std::make_shared<RunState>();
  run->job = &job;
  run->job_name = job.name();
  run->job_id = obs::NextJobId();
  run->sink = sink;
  run->cancel = cancel != nullptr ? cancel : &run->owned_cancel;
  run->metrics.InitStages(job.num_stages());
  const uint64_t run_seq = run_seq_.fetch_add(1, std::memory_order_relaxed);
  if (options_.trace_sample_n > 0 && run_seq % options_.trace_sample_n == 0) {
    run->recorder = std::make_unique<obs::TraceRecorder>(run->job_id);
    run->trace = run->recorder.get();
  }
  run->num_nodes = cluster_->num_nodes();
  run->fanout_epoch = cluster_->placement_epoch();
  // Pull-mode completion queues (no listener) + per-node task queues: the
  // seeded driver below picks the delivery order. No runtime: stage
  // functions see ctx.async == nullptr and skip hedging.
  run->cqs.reserve(run->num_nodes);
  run->det_queues.reserve(run->num_nodes);
  for (uint32_t n = 0; n < run->num_nodes; ++n) {
    run->cqs.push_back(std::make_unique<sim::CompletionQueue>());
    run->det_queues.push_back(std::make_unique<MpmcQueue<Task>>());
  }
  SeedInitial(run);
  RunDeterministic(run);
  for (auto& queue : run->det_queues) queue->Close();
  if (run->cancel->cancelled()) return run->cancel->cause();
  JobResult jr;
  jr.metrics = MetricsSnapshot::From(run->metrics, run->watch.ElapsedMillis());
  jr.metrics.job_id = run->job_id;
  if (run->recorder != nullptr) {
    auto log = std::make_shared<obs::TraceLog>();
    log->job_id = run->job_id;
    log->job_name = run->job_name;
    log->executor = name_;
    log->spans = run->recorder->Collect();
    jr.trace = std::move(log);
  }
  return jr;
}

void AsyncExecutor::RunDeterministic(const std::shared_ptr<RunState>& run) {
  // One thread, one PRNG, TWO source kinds per node: the task queue and the
  // completion queue. The seed therefore permutes not only which task runs
  // next (as in the threaded engine) but also the ORDER asynchronous device
  // completions are delivered relative to task starts and to each other —
  // every interleaving is a valid schedule of the same DAG, and identical
  // seeds replay identically (exactly reproducible when device timing is
  // disabled; a live timer thread perturbs only WHEN completions become
  // visible, never their per-op results).
  Random rng(options_.deterministic_seed);
  StopWatch watch;
  struct Source {
    bool is_completion;
    uint32_t node;
  };
  std::vector<Source> ready;
  for (;;) {
    if (options_.deadline_ms > 0 && !run->Failed() &&
        watch.ElapsedMillis() >= static_cast<double>(options_.deadline_ms)) {
      run->cancel->Cancel(Status::DeadlineExceeded(
          "job '" + run->job_name + "' exceeded deadline of " +
          std::to_string(options_.deadline_ms) + "ms"));
    }
    ready.clear();
    for (uint32_t n = 0; n < run->num_nodes; ++n) {
      if (!run->det_queues[n]->empty()) ready.push_back(Source{false, n});
      if (!run->cqs[n]->empty()) ready.push_back(Source{true, n});
    }
    if (ready.empty()) {
      if (run->inflight.count() == 0) break;
      // Suspended frames with no deliverable completion: a timed device op
      // is pending on the cluster's timer thread. Poll until it lands.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      continue;
    }
    const Source src = ready[rng.Uniform(ready.size())];
    if (src.is_completion) {
      if (auto c = run->cqs[src.node]->TryPop()) {
        sim::DeliverCallbackTag(*c);
      }
    } else if (auto task = run->det_queues[src.node]->TryPop()) {
      RunTaskAsync(run, src.node, std::move(*task));
    }
  }
  LH_CHECK_MSG(run->inflight.count() == 0,
               "deterministic async schedule drained with work in flight");
}

}  // namespace lakeharbor::rede
