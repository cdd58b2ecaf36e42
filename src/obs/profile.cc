#include "obs/profile.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"

namespace lakeharbor::obs {

namespace {

bool IsWorkSpan(const Span& span) {
  return span.kind == SpanKind::kReferencer ||
         span.kind == SpanKind::kDereference ||
         span.kind == SpanKind::kDerefBatch;
}

std::string Ms(int64_t us) { return StrFormat("%.2f", us / 1000.0); }

}  // namespace

JobProfile JobProfile::Build(const TraceLog& trace,
                             const ProfileInputs& inputs) {
  JobProfile p;
  p.job_id_ = trace.job_id;
  p.job_name_ = trace.job_name;
  p.executor_ = trace.executor;
  p.wall_ms_ = inputs.wall_ms;
  p.total_spans_ = trace.spans.size();
  p.tasks_continued_ = inputs.tasks_continued;

  std::map<uint32_t, StageBreakdown> stages;
  std::map<uint32_t, NodeBreakdown> nodes;
  // Per-stage latency histograms are built non-atomically here; Build runs
  // on one thread over an immutable trace.
  std::map<uint32_t, LatencyHistogram> latencies;

  for (const Span& span : trace.spans) {
    StageBreakdown& stage = stages[span.stage];
    stage.stage = span.stage;
    NodeBreakdown& node = nodes[span.node];
    node.node = span.node;
    const int64_t dur = span.duration_us();
    switch (span.kind) {
      case SpanKind::kReferencer:
      case SpanKind::kDereference:
      case SpanKind::kDerefBatch:
        if (stage.name.empty()) stage.name = span.name;
        if (span.AttrOr("failed", 0) != 0) {
          ++stage.failed_spans;
          break;
        }
        ++stage.work_spans;
        stage.exec_us += dur;
        stage.emitted += static_cast<uint64_t>(span.AttrOr("emitted", 0));
        if (span.kind == SpanKind::kReferencer) {
          stage.cpu_us += dur;
        } else {
          stage.io_us += dur;
        }
        latencies[span.stage].Record(static_cast<uint64_t>(
            dur < 0 ? 0 : dur));
        ++node.work_spans;
        node.exec_us += dur;
        break;
      case SpanKind::kQueueWait:
        ++p.queued_tasks_;
        stage.queue_us += dur;
        node.queue_us += dur;
        break;
      case SpanKind::kRetryBackoff:
        stage.backoff_us += dur;
        // Backoff sleeps nest inside the stage's work span; carve them out
        // of the I/O attribution (only Dereferencers retry).
        stage.io_us -= dur;
        break;
      case SpanKind::kFailover:
        stage.failover_us += dur;
        ++stage.failover_hops;
        break;
      case SpanKind::kHedge:
        stage.hedge_us += dur;
        ++stage.hedges;
        break;
    }
  }

  for (auto& [index, stage] : stages) {
    stage.latency = latencies[index].Snapshot();
    p.stages_.push_back(std::move(stage));
  }
  for (auto& [index, node] : nodes) {
    (void)index;
    p.nodes_.push_back(std::move(node));
  }

  // Straggler top-K: the longest successful work spans.
  std::vector<Span> work;
  for (const Span& span : trace.spans) {
    if (IsWorkSpan(span) && span.AttrOr("failed", 0) == 0) {
      work.push_back(span);
    }
  }
  const size_t k = std::min(inputs.straggler_top_k, work.size());
  std::partial_sort(work.begin(), work.begin() + k, work.end(),
                    [](const Span& a, const Span& b) {
                      return a.duration_us() > b.duration_us();
                    });
  work.resize(k);
  p.stragglers_ = std::move(work);

  // Reconciliation: the trace must account for exactly the invocations the
  // executor counted (work spans are emitted once per counted invocation).
  if (!inputs.stage_invocations.empty()) {
    for (size_t i = 0; i < inputs.stage_invocations.size(); ++i) {
      uint64_t spans = 0;
      for (const StageBreakdown& stage : p.stages_) {
        if (stage.stage == i) spans = stage.work_spans;
      }
      if (spans != inputs.stage_invocations[i]) {
        p.warnings_.push_back(StrFormat(
            "stage %zu: %llu work spans but %llu counted invocations", i,
            static_cast<unsigned long long>(spans),
            static_cast<unsigned long long>(inputs.stage_invocations[i])));
      }
    }
  }
  // Overlapping runs need no special flag: every counter the profile
  // reconciles against — including cache_* — is charged per job at its call
  // site, so reconciliation is exact whatever else the executor was doing.
  return p;
}

std::string JobProfile::ToText() const {
  std::string out;
  out += StrFormat(
      "== JobProfile: %s (job %llu, %s, wall %.2f ms, %llu spans) ==\n",
      job_name_.c_str(), static_cast<unsigned long long>(job_id_),
      executor_.c_str(), wall_ms_, static_cast<unsigned long long>(
          total_spans_));
  out += StrFormat(
      "%-5s %-24s %10s %9s %9s %9s %9s %9s %8s %8s %8s %8s\n", "stage",
      "name", "invocs", "exec-ms", "io-ms", "cpu-ms", "queue-ms", "bkoff-ms",
      "p50-us", "p95-us", "p99-us", "max-us");
  for (const StageBreakdown& stage : stages_) {
    out += StrFormat(
        "%-5u %-24s %10llu %9s %9s %9s %9s %9s %8llu %8llu %8llu %8llu\n",
        stage.stage, stage.name.c_str(),
        static_cast<unsigned long long>(stage.work_spans),
        Ms(stage.exec_us).c_str(), Ms(stage.io_us).c_str(),
        Ms(stage.cpu_us).c_str(), Ms(stage.queue_us).c_str(),
        Ms(stage.backoff_us).c_str(),
        static_cast<unsigned long long>(stage.latency.P50()),
        static_cast<unsigned long long>(stage.latency.P95()),
        static_cast<unsigned long long>(stage.latency.P99()),
        static_cast<unsigned long long>(stage.latency.max));
    if (stage.failed_spans > 0 || stage.failover_hops > 0 ||
        stage.hedges > 0) {
      out += StrFormat(
          "      ^ failed=%llu failover-hops=%llu (%s ms) hedges=%llu (%s "
          "ms)\n",
          static_cast<unsigned long long>(stage.failed_spans),
          static_cast<unsigned long long>(stage.failover_hops),
          Ms(stage.failover_us).c_str(),
          static_cast<unsigned long long>(stage.hedges),
          Ms(stage.hedge_us).c_str());
    }
  }
  out += StrFormat("tasks: %llu queued, %llu continued\n",
                   static_cast<unsigned long long>(queued_tasks_),
                   static_cast<unsigned long long>(tasks_continued_));
  out += "per-node:";
  for (const NodeBreakdown& node : nodes_) {
    out += StrFormat("  n%u: %llu spans, exec %s ms, queue %s ms;", node.node,
                     static_cast<unsigned long long>(node.work_spans),
                     Ms(node.exec_us).c_str(), Ms(node.queue_us).c_str());
  }
  out += "\n";
  if (!stragglers_.empty()) {
    out += "stragglers (longest work spans):\n";
    for (const Span& span : stragglers_) {
      out += StrFormat("  stage %u %-24s node %u thread %u: %lld us\n",
                       span.stage, span.name.c_str(), span.node, span.thread,
                       static_cast<long long>(span.duration_us()));
    }
  }
  if (warnings_.empty()) {
    out += "reconciliation: OK (span totals match invocation counters)\n";
  } else {
    for (const std::string& warning : warnings_) {
      out += "WARNING: " + warning + "\n";
    }
  }
  return out;
}

}  // namespace lakeharbor::obs
