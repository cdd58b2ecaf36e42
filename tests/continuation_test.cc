#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "rede/engine.h"
#include "rede/job.h"
#include "rede/smpe_executor.h"
#include "rede/stage_function.h"
#include "sim/cluster.h"
#include "tpch/generator.h"
#include "tpch/loader.h"
#include "tpch/q5.h"

namespace lakeharbor::rede {
namespace {

/// Depth-first continuation in the threaded SMPE engine: a worker runs its
/// own same-node keyed follow-up next instead of queueing it, unless a task
/// of another run is already waiting on that node.

/// Thread-safe record of stage invocations, in the order they started.
class InvocationLog {
 public:
  void Append(std::string entry) {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.push_back(std::move(entry));
  }
  std::vector<std::string> entries() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_;
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> entries_;
};

/// One-shot rendezvous: a stage parks in Arrive() until the test releases it.
class Gate {
 public:
  void Arrive() {
    std::unique_lock<std::mutex> lock(mutex_);
    arrived_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
  }
  void AwaitArrival() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return arrived_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool arrived_ = false;
  bool released_ = false;
};

/// A Dereferencer that touches no storage: it logs "<tag><stage>", may park
/// on a gate or sleep, and emits `fanout` keyed tuples derived from its
/// input key — each a same-node follow-up the engine may keep.
class ChainStage final : public Dereferencer {
 public:
  struct Options {
    std::string tag;
    size_t stage = 0;
    InvocationLog* log = nullptr;
    size_t fanout = 1;
    Gate* gate = nullptr;
    uint64_t sleep_us = 0;
  };
  explicit ChainStage(Options options)
      : Dereferencer(options.tag + std::to_string(options.stage)),
        options_(std::move(options)) {}

  Status Execute(const ExecContext& ctx, const Tuple& input,
                 std::vector<Tuple>* out) const override {
    (void)ctx;
    options_.log->Append(name());
    if (options_.gate != nullptr) options_.gate->Arrive();
    if (options_.sleep_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(options_.sleep_us));
    }
    for (size_t i = 0; i < options_.fanout; ++i) {
      out->push_back(Tuple::Point(
          io::Pointer::Keyed(input.pointer.key + "." + std::to_string(i))));
    }
    return Status::OK();
  }

 private:
  Options options_;
};

/// `stages` ChainStages tagged `tag`. Stage 0 emits `first_fanout` tuples,
/// every later stage one; stage `gate_stage` parks on `gate` when given.
StatusOr<Job> ChainJob(const std::string& tag, size_t stages, Tuple initial,
                       InvocationLog* log, size_t first_fanout = 1,
                       Gate* gate = nullptr, size_t gate_stage = 0,
                       uint64_t sleep_us = 0) {
  JobBuilder builder(tag);
  builder.Initial(std::move(initial));
  for (size_t s = 0; s < stages; ++s) {
    ChainStage::Options options;
    options.tag = tag;
    options.stage = s;
    options.log = log;
    options.fanout = s == 0 ? first_fanout : 1;
    options.gate = s == gate_stage ? gate : nullptr;
    options.sleep_us = sleep_us;
    builder.Add(std::make_shared<ChainStage>(std::move(options)));
  }
  return builder.Build();
}

TEST(Continuation, KeptFollowUpNeverOvertakesAnotherRunsWaitingTask) {
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(1));
  SmpeOptions options;
  options.threads_per_node = 1;  // one worker: start order is run order
  SmpeExecutor executor(&cluster, options);

  InvocationLog log;
  Gate gate;
  auto a = ChainJob("a", 6, Tuple::Point(io::Pointer::Keyed("a")), &log,
                    /*first_fanout=*/1, &gate, /*gate_stage=*/2);
  auto b = ChainJob("b", 1, Tuple::Point(io::Pointer::Keyed("b")), &log);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  StatusOr<JobResult> result_a = Status::Internal("not run");
  StatusOr<JobResult> result_b = Status::Internal("not run");
  std::thread run_a([&] { result_a = executor.Execute(*a, nullptr); });
  // a0 -> a1 -> a2 run back to back on the only worker; a2 parks.
  gate.AwaitArrival();
  std::thread run_b([&] { result_b = executor.Execute(*b, nullptr); });
  // Run B's seed task reaches the node's pool queue and waits behind a2.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  gate.Release();
  run_a.join();
  run_b.join();
  ASSERT_TRUE(result_a.ok()) << result_a.status().ToString();
  ASSERT_TRUE(result_b.ok()) << result_b.status().ToString();

  // a2's follow-up a3 must queue behind b0, not jump ahead of it.
  const std::vector<std::string> expected = {"a0", "a1", "a2", "b0",
                                             "a3", "a4", "a5"};
  EXPECT_EQ(log.entries(), expected);
  // a1, a2, a4 and a5 were kept; a0 (the seed) and a3 queued.
  EXPECT_EQ(result_a->metrics.tasks_continued, 4u);
  EXPECT_EQ(result_a->metrics.queue_dwell_us.count, 2u);
  EXPECT_EQ(result_b->metrics.tasks_continued, 0u);
  EXPECT_EQ(result_b->metrics.queue_dwell_us.count, 1u);

  // Both runs left the node's waiting count at zero: a run alone on the
  // executor keeps every follow-up.
  auto alone = ChainJob("c", 6, Tuple::Point(io::Pointer::Keyed("c")), &log);
  ASSERT_TRUE(alone.ok());
  auto result_c = executor.Execute(*alone, nullptr);
  ASSERT_TRUE(result_c.ok()) << result_c.status().ToString();
  EXPECT_EQ(result_c->metrics.tasks_continued, 5u);
}

struct TpchRun {
  tpch::Q5Summary summary;
  MetricsSnapshot metrics;
};

StatusOr<TpchRun> RunQ5(sim::Cluster* cluster, const Job& job,
                        SmpeOptions options) {
  SmpeExecutor executor(cluster, options);
  std::mutex mutex;
  std::vector<Tuple> tuples;
  LH_ASSIGN_OR_RETURN(JobResult result,
                      executor.Execute(job, [&](const Tuple& tuple) {
                        std::lock_guard<std::mutex> lock(mutex);
                        tuples.push_back(tuple);
                      }));
  TpchRun run;
  LH_ASSIGN_OR_RETURN(run.summary, tpch::SummarizeRedeOutput(tuples));
  run.metrics = result.metrics;
  return run;
}

TEST(Continuation, SingleRunContinuesAndAgreesWithSeededReplay) {
  sim::Cluster cluster(sim::ClusterOptions::ForNodes(4));
  Engine engine(&cluster);
  tpch::TpchConfig config;
  config.scale_factor = 0.004;
  const tpch::TpchData data = tpch::Generate(config);
  ASSERT_TRUE(tpch::LoadIntoLake(engine, data).ok());
  const tpch::Q5Params params = tpch::MakeQ5Params(0.5);
  auto oracle = tpch::Q5Oracle(data, params);
  auto job = tpch::BuildQ5RedeJob(engine, params);
  ASSERT_TRUE(oracle.ok());
  ASSERT_TRUE(job.ok());

  SmpeOptions threaded_options;
  threaded_options.threads_per_node = 8;
  auto threaded = RunQ5(&cluster, *job, threaded_options);
  SmpeOptions seeded_options;
  seeded_options.deterministic_seed = 20261020;
  auto seeded = RunQ5(&cluster, *job, seeded_options);
  ASSERT_TRUE(threaded.ok()) << threaded.status().ToString();
  ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();

  EXPECT_EQ(threaded->summary, *oracle);
  EXPECT_EQ(threaded->summary, seeded->summary);
  const MetricsSnapshot& t = threaded->metrics;
  const MetricsSnapshot& s = seeded->metrics;
  EXPECT_EQ(t.deref_invocations, s.deref_invocations);
  EXPECT_EQ(t.ref_invocations, s.ref_invocations);
  EXPECT_EQ(t.tuples_emitted, s.tuples_emitted);
  EXPECT_EQ(t.output_tuples, s.output_tuples);

  // The threaded run skipped the queue for some follow-ups; the seeded
  // replay never does. Either way each task run (one Dereferencer call,
  // Referencers being inline and nothing retried) is counted once: as a
  // queued task with one dwell sample, or as a continuation.
  EXPECT_GT(t.tasks_continued, 0u);
  EXPECT_EQ(s.tasks_continued, 0u);
  EXPECT_EQ(t.queue_dwell_us.count + t.tasks_continued, t.deref_invocations);
  EXPECT_EQ(s.queue_dwell_us.count, s.deref_invocations);
}

/// A broadcast seed fans out into eight 200-stage chains per node, each
/// stage sleeping 1 ms, so every worker is deep inside a kept chain when
/// the run is stopped.
class StoppedMidChain : public ::testing::Test {
 protected:
  static constexpr size_t kStages = 200;

  StoppedMidChain() : cluster_(sim::ClusterOptions::ForNodes(2)) {}

  StatusOr<Job> LongChains() {
    return ChainJob("c", kStages, Tuple::Point(io::Pointer::Broadcast("c")),
                    &log_, /*first_fanout=*/8, nullptr, 0,
                    /*sleep_us=*/1000);
  }

  /// Nothing may run once Execute has returned: every task was drained.
  void ExpectDrained(size_t invoked_at_return) {
    EXPECT_GT(invoked_at_return, 0u);
    EXPECT_LT(invoked_at_return, 2 * 8 * kStages);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(log_.size(), invoked_at_return);
  }

  sim::Cluster cluster_;
  InvocationLog log_;
};

TEST_F(StoppedMidChain, DeadlineDrainsWithZeroInflight) {
  SmpeOptions options;
  options.threads_per_node = 4;
  options.deadline_ms = 40;
  SmpeExecutor executor(&cluster_, options);
  auto job = LongChains();
  ASSERT_TRUE(job.ok());
  // Execute returns only once the in-flight count is zero.
  auto result = executor.Execute(*job, nullptr);
  ExpectDrained(log_.size());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
}

TEST_F(StoppedMidChain, CancelDrainsWithZeroInflight) {
  SmpeOptions options;
  options.threads_per_node = 4;
  SmpeExecutor executor(&cluster_, options);
  auto job = LongChains();
  ASSERT_TRUE(job.ok());
  CancelToken token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    token.Cancel(Status::Aborted("cancelled mid-chain"));
  });
  auto result = executor.Execute(*job, nullptr, &token);
  canceller.join();
  ExpectDrained(log_.size());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsAborted()) << result.status().ToString();
}

}  // namespace
}  // namespace lakeharbor::rede
