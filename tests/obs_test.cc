#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/string_util.h"
#include "io/key_codec.h"
#include "io/partitioned_file.h"
#include "obs/chrome_trace.h"
#include "obs/histogram.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "rede/builtin_derefs.h"
#include "rede/builtin_refs.h"
#include "rede/engine.h"
#include "rede/functions.h"

namespace lakeharbor::obs {
namespace {

// -------------------------------------------------------------- histogram

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 holds only the value 0; bucket i >= 1 holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(HistogramBucketOf(0), 0u);
  EXPECT_EQ(HistogramBucketOf(1), 1u);
  EXPECT_EQ(HistogramBucketOf(2), 2u);
  EXPECT_EQ(HistogramBucketOf(3), 2u);
  EXPECT_EQ(HistogramBucketOf(4), 3u);
  EXPECT_EQ(HistogramBucketOf(1023), 10u);
  EXPECT_EQ(HistogramBucketOf(1024), 11u);
  EXPECT_EQ(HistogramBucketOf(UINT64_MAX), 64u);
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    const uint64_t lo = HistogramBucketLower(i);
    const uint64_t hi = HistogramBucketUpper(i);
    EXPECT_LE(lo, hi) << "bucket " << i;
    EXPECT_EQ(HistogramBucketOf(lo), i) << "lower bound of bucket " << i;
    EXPECT_EQ(HistogramBucketOf(hi), i) << "upper bound of bucket " << i;
  }
  // Adjacent buckets tile the domain with no gap.
  for (size_t i = 0; i + 1 < kHistogramBuckets; ++i) {
    EXPECT_EQ(HistogramBucketUpper(i) + 1, HistogramBucketLower(i + 1));
  }
}

TEST(Histogram, CountSumMinMax) {
  LatencyHistogram h;
  for (uint64_t v : {5u, 100u, 0u, 1000u, 7u}) h.Record(v);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.sum, 1112u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_DOUBLE_EQ(s.Mean(), 1112.0 / 5.0);
  EXPECT_FALSE(s.Summary().empty());
}

TEST(Histogram, QuantilesOfConstantDistribution) {
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.Record(42);
  HistogramSnapshot s = h.Snapshot();
  // Every quantile of a constant distribution is the constant: min/max
  // clamping must defeat the bucket's [32, 63] spread.
  EXPECT_EQ(s.Quantile(0.0), 42u);
  EXPECT_EQ(s.P50(), 42u);
  EXPECT_EQ(s.P95(), 42u);
  EXPECT_EQ(s.P99(), 42u);
  EXPECT_EQ(s.Quantile(1.0), 42u);
}

TEST(Histogram, QuantilesOfUniformDistribution) {
  LatencyHistogram h;
  for (uint64_t v = 1; v <= 1024; ++v) h.Record(v);
  HistogramSnapshot s = h.Snapshot();
  // Log-bucket interpolation is approximate: the estimate must land in the
  // same power-of-two bucket as the exact quantile and stay monotone.
  const uint64_t p50 = s.P50();
  const uint64_t p95 = s.P95();
  const uint64_t p99 = s.P99();
  EXPECT_EQ(HistogramBucketOf(p50), HistogramBucketOf(512));
  EXPECT_EQ(HistogramBucketOf(p95), HistogramBucketOf(973));
  EXPECT_EQ(HistogramBucketOf(p99), HistogramBucketOf(1014));
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, s.max);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 1024u);
}

TEST(Histogram, TwoPointDistributionTail) {
  // 990 fast ops at 10us, 10 slow at 10000us: p50 must sit in the fast
  // bucket, the extreme tail must see the stragglers' bucket. A mean would
  // report ~110 and hide the bimodality entirely.
  LatencyHistogram h;
  for (int i = 0; i < 990; ++i) h.Record(10);
  for (int i = 0; i < 10; ++i) h.Record(10000);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(HistogramBucketOf(s.P50()), HistogramBucketOf(10));
  EXPECT_EQ(HistogramBucketOf(s.Quantile(0.995)), HistogramBucketOf(10000));
  EXPECT_EQ(s.max, 10000u);
}

TEST(Histogram, MergeCombines) {
  LatencyHistogram a;
  LatencyHistogram b;
  for (int i = 0; i < 10; ++i) a.Record(8);
  for (int i = 0; i < 20; ++i) b.Record(64);
  HistogramSnapshot s = a.Snapshot();
  s.Merge(b.Snapshot());
  EXPECT_EQ(s.count, 30u);
  EXPECT_EQ(s.sum, 10u * 8 + 20u * 64);
  EXPECT_EQ(s.min, 8u);
  EXPECT_EQ(s.max, 64u);
  // Merging an empty snapshot changes nothing.
  s.Merge(HistogramSnapshot{});
  EXPECT_EQ(s.count, 30u);
  EXPECT_EQ(s.min, 8u);
}

TEST(Histogram, ConcurrentRecordLosesNothing) {
  LatencyHistogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(t * kPerThread + i));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, static_cast<uint64_t>(kThreads * kPerThread - 1));
}

// --------------------------------------------------------------- recorder

TEST(TraceRecorder, CollectSortsAcrossThreads) {
  TraceRecorder recorder(NextJobId());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 600;  // > one chunk, forces chunk chaining
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Span span;
        span.name = "s";
        span.kind = SpanKind::kReferencer;
        span.node = static_cast<uint32_t>(t);
        span.t_start_us = t * kPerThread + i;
        span.t_end_us = span.t_start_us + 1;
        span.AddAttr("i", i);
        recorder.Record(std::move(span));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(recorder.spans_recorded(),
            static_cast<uint64_t>(kThreads * kPerThread));
  std::vector<Span> spans = recorder.Collect();
  ASSERT_EQ(spans.size(), static_cast<size_t>(kThreads * kPerThread));
  EXPECT_TRUE(std::is_sorted(
      spans.begin(), spans.end(),
      [](const Span& a, const Span& b) { return a.t_start_us < b.t_start_us; }));
  // Dense thread indices, and attrs survive the chunked storage.
  for (const Span& span : spans) {
    EXPECT_LT(span.thread, static_cast<uint32_t>(kThreads));
    EXPECT_GE(span.AttrOr("i", -1), 0);
    EXPECT_EQ(span.AttrOr("absent", -7), -7);
  }
}

TEST(TraceRecorder, TwoRecordersDoNotCrosstalk) {
  // Back-to-back recorders on the SAME thread: the thread-local chunk cache
  // must not leak spans of the first into the second (the epoch check).
  auto first = std::make_unique<TraceRecorder>(NextJobId());
  Span span;
  span.name = "a";
  span.t_start_us = 1;
  span.t_end_us = 2;
  first->Record(span);
  EXPECT_EQ(first->Collect().size(), 1u);
  first.reset();
  TraceRecorder second(NextJobId());
  span.name = "b";
  second.Record(span);
  std::vector<Span> collected = second.Collect();
  ASSERT_EQ(collected.size(), 1u);
  EXPECT_EQ(collected[0].name, "b");
}

// ------------------------------------------------- end-to-end traced runs

/// Small employees/departments lake with a global index over emp.dept —
/// enough stages (range deref -> referencer -> point deref -> referencer ->
/// point deref) to exercise every span kind a healthy run can produce.
struct TracedEngineTest : ::testing::Test {
  static constexpr int kEmployees = 60;
  static constexpr int kDepts = 6;

  explicit TracedEngineTest(rede::EngineOptions options = MakeOptions())
      : cluster(sim::ClusterOptions::ForNodes(4)),
        engine(&cluster, options) {
    auto emp = std::make_shared<io::PartitionedFile>(
        "emp", std::make_shared<io::HashPartitioner>(8), &cluster);
    for (int i = 0; i < kEmployees; ++i) {
      std::string key = io::EncodeInt64Key(i);
      LH_CHECK(emp->Append(key, key,
                           io::Record(StrFormat("%d|emp%d|%d", i, i,
                                                i % kDepts)))
                   .ok());
    }
    emp->Seal();
    LH_CHECK(engine.catalog().Register(emp).ok());

    auto dept = std::make_shared<io::PartitionedFile>(
        "dept", std::make_shared<io::HashPartitioner>(4), &cluster);
    for (int d = 0; d < kDepts; ++d) {
      std::string key = io::EncodeInt64Key(d);
      LH_CHECK(dept->Append(key, key,
                            io::Record(StrFormat("%d|dept%d", d, d)))
                   .ok());
    }
    dept->Seal();
    LH_CHECK(engine.catalog().Register(dept).ok());

    index::IndexSpec spec;
    spec.index_name = "emp.dept.idx";
    spec.base_file = "emp";
    spec.placement = index::IndexPlacement::kGlobal;
    spec.extract = [](const io::Record& record,
                      std::vector<index::Posting>* out) -> Status {
      std::string_view row = record.slice().view();
      index::Posting posting;
      LH_ASSIGN_OR_RETURN(int64_t dept, ParseInt64(FieldAt(row, '|', 2)));
      LH_ASSIGN_OR_RETURN(int64_t id, ParseInt64(FieldAt(row, '|', 0)));
      posting.index_key = io::EncodeInt64Key(dept);
      posting.target_partition_key = io::EncodeInt64Key(id);
      posting.target_key = posting.target_partition_key;
      out->push_back(std::move(posting));
      return Status::OK();
    };
    LH_CHECK(engine.BuildStructure(spec, "dept").ok());
  }

  static rede::EngineOptions MakeOptions() {
    rede::EngineOptions options;
    options.smpe.trace_sample_n = 1;
    options.smpe.deterministic_seed = 1234;  // replayable schedule
    return options;
  }

  StatusOr<rede::Job> DeptJoinJob() {
    LH_ASSIGN_OR_RETURN(auto emp, engine.catalog().Get("emp"));
    LH_ASSIGN_OR_RETURN(auto dept, engine.catalog().Get("dept"));
    LH_ASSIGN_OR_RETURN(auto idx_file, engine.catalog().Get("emp.dept.idx"));
    auto idx = std::dynamic_pointer_cast<io::BtreeFile>(idx_file);
    LH_CHECK(idx != nullptr);
    return rede::JobBuilder("dept-join")
        .Initial(rede::Tuple::Range(
            io::Pointer::Broadcast(io::EncodeInt64Key(0)),
            io::Pointer::Broadcast(io::EncodeInt64Key(kDepts - 1))))
        .Add(rede::MakeRangeDereferencer("deref-idx", idx))
        .Add(rede::MakeIndexEntryReferencer("ref-entry"))
        .Add(rede::MakePointDereferencer("deref-emp", emp))
        .Add(rede::MakeKeyReferencer("ref-dept",
                                     rede::EncodedInt64FieldInterpreter(2)))
        .Add(rede::MakePointDereferencer("deref-dept", dept))
        .Build();
  }

  sim::Cluster cluster;
  rede::Engine engine;
};

TEST_F(TracedEngineTest, SmpeTraceReconcilesWithCounters) {
  auto job = DeptJoinJob();
  ASSERT_TRUE(job.ok());
  auto result = engine.ExecuteCollect(*job, rede::ExecutionMode::kSmpe);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->tuples.size(), static_cast<size_t>(kEmployees));
  ASSERT_NE(result->trace, nullptr);
  EXPECT_EQ(result->trace->job_id, result->metrics.job_id);
  EXPECT_EQ(result->trace->job_name, "dept-join");

  // Spans are sorted, well-formed, and attributed to real stages/nodes.
  const TraceLog& trace = *result->trace;
  ASSERT_FALSE(trace.spans.empty());
  EXPECT_TRUE(std::is_sorted(trace.spans.begin(), trace.spans.end(),
                             [](const Span& a, const Span& b) {
                               return a.t_start_us < b.t_start_us;
                             }));
  for (const Span& span : trace.spans) {
    EXPECT_GE(span.duration_us(), 0);
    EXPECT_LT(span.stage, job->num_stages());
    EXPECT_LT(span.node, cluster.num_nodes());
  }

  // Exactly one successful work span per counted stage invocation.
  std::vector<uint64_t> per_stage(job->num_stages(), 0);
  uint64_t queue_waits = 0;
  for (const Span& span : trace.spans) {
    if (span.kind == SpanKind::kQueueWait) ++queue_waits;
    if ((span.kind == SpanKind::kReferencer ||
         span.kind == SpanKind::kDereference ||
         span.kind == SpanKind::kDerefBatch) &&
        span.AttrOr("failed", 0) == 0) {
      ++per_stage[span.stage];
    }
  }
  ASSERT_EQ(result->metrics.per_stage.size(), per_stage.size());
  for (size_t i = 0; i < per_stage.size(); ++i) {
    EXPECT_EQ(per_stage[i], result->metrics.per_stage[i].invocations)
        << "stage " << i;
  }
  EXPECT_GT(queue_waits, 0u);

  // The profiler agrees and flags nothing.
  JobProfile profile = rede::ProfileOf(*result);
  EXPECT_TRUE(profile.Reconciles())
      << (profile.warnings().empty() ? "" : profile.warnings()[0]);
  EXPECT_EQ(profile.job_id(), result->metrics.job_id);
  EXPECT_EQ(profile.stages().size(), job->num_stages());
  EXPECT_FALSE(profile.ToText().empty());

  // Executor-side histograms saw the run.
  EXPECT_EQ(result->metrics.deref_latency_us.count,
            result->metrics.deref_invocations);
  EXPECT_GT(result->metrics.queue_dwell_us.count, 0u);
  // A seeded schedule queues every task: nothing runs as a continuation.
  EXPECT_EQ(result->metrics.tasks_continued, 0u);
  EXPECT_EQ(result->metrics.queue_dwell_us.count, queue_waits);
}

/// The same traced dept-join on the real threaded engine, where workers
/// run their own same-node follow-ups as continuations.
struct ThreadedTracedEngineTest : TracedEngineTest {
  ThreadedTracedEngineTest() : TracedEngineTest(ThreadedOptions()) {}
  static rede::EngineOptions ThreadedOptions() {
    rede::EngineOptions options;
    options.smpe.trace_sample_n = 1;
    options.smpe.threads_per_node = 4;
    return options;
  }
};

TEST_F(ThreadedTracedEngineTest, EveryTaskRunIsQueuedOrContinuedOnce) {
  auto job = DeptJoinJob();
  ASSERT_TRUE(job.ok());
  auto result = engine.ExecuteCollect(*job, rede::ExecutionMode::kSmpe);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->tuples.size(), static_cast<size_t>(kEmployees));
  ASSERT_NE(result->trace, nullptr);
  const rede::MetricsSnapshot& m = result->metrics;

  uint64_t queue_waits = 0;
  for (const Span& span : result->trace->spans) {
    if (span.kind == SpanKind::kQueueWait) ++queue_waits;
  }
  // Referencers run inline and nothing retries, so each task run is one
  // Dereferencer invocation: a queued one (one dwell sample, one queue-wait
  // span) or a continuation (neither).
  EXPECT_GT(m.tasks_continued, 0u);
  EXPECT_EQ(m.queue_dwell_us.count, queue_waits);
  EXPECT_EQ(m.queue_dwell_us.count + m.tasks_continued, m.deref_invocations);

  JobProfile profile = rede::ProfileOf(*result);
  EXPECT_TRUE(profile.Reconciles())
      << (profile.warnings().empty() ? "" : profile.warnings()[0]);
  EXPECT_EQ(profile.queued_tasks(), queue_waits);
  EXPECT_EQ(profile.tasks_continued(), m.tasks_continued);
  EXPECT_NE(profile.ToText().find(StrFormat(
                "tasks: %llu queued, %llu continued",
                static_cast<unsigned long long>(queue_waits),
                static_cast<unsigned long long>(m.tasks_continued))),
            std::string::npos)
      << profile.ToText();
}

TEST_F(TracedEngineTest, PartitionedTraceReconcilesToo) {
  auto job = DeptJoinJob();
  ASSERT_TRUE(job.ok());
  auto result =
      engine.ExecuteCollect(*job, rede::ExecutionMode::kPartitioned);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->tuples.size(), static_cast<size_t>(kEmployees));
  ASSERT_NE(result->trace, nullptr);
  EXPECT_EQ(result->trace->executor, "rede-partitioned");
  JobProfile profile = rede::ProfileOf(*result);
  EXPECT_TRUE(profile.Reconciles())
      << (profile.warnings().empty() ? "" : profile.warnings()[0]);
}

TEST_F(TracedEngineTest, ChromeTraceJsonRoundTrips) {
  auto job = DeptJoinJob();
  ASSERT_TRUE(job.ok());
  auto result = engine.ExecuteCollect(*job, rede::ExecutionMode::kSmpe);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->trace, nullptr);

  const std::string json = ToChromeTraceJson(*result->trace);
  auto parsed = Json::Parse(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  size_t complete_events = 0;
  int64_t prev_ts = -1;
  for (const Json& event : events->AsArray()) {
    const Json* ph = event.Find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->AsString() == "M") continue;  // process_name metadata
    ASSERT_EQ(ph->AsString(), "X");
    ++complete_events;
    const Json* ts = event.Find("ts");
    const Json* dur = event.Find("dur");
    ASSERT_NE(ts, nullptr);
    ASSERT_NE(dur, nullptr);
    // Timestamps are normalized to the trace start, non-negative, and keep
    // the span sort order.
    EXPECT_GE(ts->AsNumber(), 0.0);
    EXPECT_GE(dur->AsNumber(), 0.0);
    EXPECT_GE(static_cast<int64_t>(ts->AsNumber()), prev_ts);
    prev_ts = static_cast<int64_t>(ts->AsNumber());
    ASSERT_NE(event.Find("name"), nullptr);
    ASSERT_NE(event.Find("pid"), nullptr);
    ASSERT_NE(event.Find("tid"), nullptr);
    const Json* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    const Json* job_id = args->Find("job_id");
    ASSERT_NE(job_id, nullptr);
    EXPECT_EQ(static_cast<uint64_t>(job_id->AsNumber()),
              result->trace->job_id);
  }
  EXPECT_EQ(complete_events, result->trace->spans.size());
}

struct UntracedEngineTest : TracedEngineTest {
  UntracedEngineTest() : TracedEngineTest(UntracedOptions()) {}
  static rede::EngineOptions UntracedOptions() {
    rede::EngineOptions options;
    options.smpe.trace_sample_n = 0;  // tracing off
    options.smpe.deterministic_seed = 1234;
    return options;
  }
};

TEST_F(UntracedEngineTest, TraceOffFastPathRecordsNothing) {
  auto job = DeptJoinJob();
  ASSERT_TRUE(job.ok());
  const uint64_t spans_before = TraceCounters::SpansRecorded();
  const uint64_t chunks_before = TraceCounters::ChunksAllocated();
  auto result = engine.ExecuteCollect(*job, rede::ExecutionMode::kSmpe);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->trace, nullptr);
  // Zero spans and zero trace-buffer allocations: with sampling off no
  // recorder exists, so the hot path is exactly one null check.
  EXPECT_EQ(TraceCounters::SpansRecorded(), spans_before);
  EXPECT_EQ(TraceCounters::ChunksAllocated(), chunks_before);
  // The untraced profile is explicitly empty.
  JobProfile profile = rede::ProfileOf(*result);
  EXPECT_EQ(profile.total_spans(), 0u);
  EXPECT_TRUE(profile.stages().empty());
}

struct SampledEngineTest : TracedEngineTest {
  SampledEngineTest() : TracedEngineTest(SampledOptions()) {}
  static rede::EngineOptions SampledOptions() {
    rede::EngineOptions options;
    options.smpe.trace_sample_n = 2;  // every other run
    options.smpe.deterministic_seed = 1234;
    return options;
  }
};

TEST_F(SampledEngineTest, EveryNthRunIsTraced) {
  auto job = DeptJoinJob();
  ASSERT_TRUE(job.ok());
  for (int run = 0; run < 4; ++run) {
    auto result = engine.ExecuteCollect(*job, rede::ExecutionMode::kSmpe);
    ASSERT_TRUE(result.ok());
    if (run % 2 == 0) {
      EXPECT_NE(result->trace, nullptr) << "run " << run;
    } else {
      EXPECT_EQ(result->trace, nullptr) << "run " << run;
    }
  }
}

// --------------------------------------------------------------- profiler

TEST(JobProfile, BuildsBreakdownAndCatchesMismatch) {
  TraceLog trace;
  trace.job_id = 7;
  trace.job_name = "synthetic";
  trace.executor = "test";
  auto add = [&trace](SpanKind kind, uint32_t stage, uint32_t node,
                      int64_t start, int64_t end, int64_t emitted) {
    Span span;
    span.name = kind == SpanKind::kReferencer ? "ref" : "deref";
    span.kind = kind;
    span.stage = stage;
    span.node = node;
    span.t_start_us = start;
    span.t_end_us = end;
    span.AddAttr("emitted", emitted);
    trace.spans.push_back(std::move(span));
  };
  add(SpanKind::kDereference, 0, 0, 0, 100, 2);
  add(SpanKind::kDereference, 0, 1, 10, 250, 3);
  add(SpanKind::kReferencer, 1, 0, 100, 110, 1);
  {
    Span wait;
    wait.name = "queue-wait";
    wait.kind = SpanKind::kQueueWait;
    wait.stage = 0;
    wait.node = 1;
    wait.t_start_us = 0;
    wait.t_end_us = 10;
    trace.spans.push_back(std::move(wait));
  }

  ProfileInputs inputs;
  inputs.stage_invocations = {2, 1};
  inputs.wall_ms = 0.25;
  JobProfile profile = JobProfile::Build(trace, inputs);
  EXPECT_TRUE(profile.Reconciles());
  ASSERT_EQ(profile.stages().size(), 2u);
  EXPECT_EQ(profile.stages()[0].work_spans, 2u);
  EXPECT_EQ(profile.stages()[0].emitted, 5u);
  EXPECT_EQ(profile.stages()[0].exec_us, 340);
  EXPECT_EQ(profile.stages()[0].io_us, 340);
  EXPECT_EQ(profile.stages()[0].queue_us, 10);
  EXPECT_EQ(profile.stages()[1].cpu_us, 10);
  ASSERT_EQ(profile.nodes().size(), 2u);
  EXPECT_FALSE(profile.stragglers().empty());
  // The longest work span ranks first.
  EXPECT_EQ(profile.stragglers()[0].duration_us(), 240);

  // A dropped span breaks reconciliation loudly.
  ProfileInputs wrong = inputs;
  wrong.stage_invocations = {3, 1};
  JobProfile bad = JobProfile::Build(trace, wrong);
  EXPECT_FALSE(bad.Reconciles());
  ASSERT_FALSE(bad.warnings().empty());
}

}  // namespace
}  // namespace lakeharbor::obs
