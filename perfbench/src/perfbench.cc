// The repository benchmark. One process runs one named workload over a
// lake generated from --seed, checks every answer against computations
// made apart from the lake (checks.h), and prints one JSON line:
//
//   perfbench --workload analytic|serving|ingest --seed N --seconds S
//             --trace 0|1 [--trace-out PATH]
//
// With --trace 0 the line carries the end-to-end metrics; with --trace 1
// the same workload runs with a span at every layer call the benchmark
// makes, followed by untimed layer probes, and the line carries the
// per-layer metrics. README.md gives the workloads, the metric map and the
// reference figures.
//
// The program is reached only through its public API, at the default
// rede::EngineOptions and sched::SchedulerOptions; a workload sets only the
// deployment (nodes, partitions, modeled device latency) and the data.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "deployment.h"
#include "claims/generator.h"
#include "claims/loader.h"
#include "claims/queries.h"
#include "common/string_util.h"
#include "index/index_builder.h"
#include "ingest/log_merger.h"
#include "ingest/snapshot_view.h"
#include "ingest/streaming_file.h"
#include "io/key_codec.h"
#include "io/partitioner.h"
#include "io/pointer.h"
#include "io/record.h"
#include "rede/builtin_derefs.h"
#include "rede/engine.h"
#include "rede/job.h"
#include "sched/scheduler.h"
#include "sim/cluster.h"
#include "tpch/generator.h"
#include "tpch/loader.h"
#include "tpch/q5.h"
#include "tpch/schema.h"

namespace perfbench {
namespace {

namespace lh = lakeharbor;
using Clock = std::chrono::steady_clock;

// Taken during static initialization, before main: set-up time counts
// from the start of the process.
const Clock::time_point kProcessStart = Clock::now();

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
double MicrosSince(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t).count();
}
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Statistics

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Thread-safe sample sets, keyed by name.
class Samples {
 public:
  void Add(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    samples_[name].push_back(value);
  }
  std::vector<double> Get(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = samples_.find(name);
    return it == samples_.end() ? std::vector<double>() : it->second;
  }
  double Median(const std::string& name) const {
    return perfbench::Median(Get(name));
  }
  double Quantile(const std::string& name, double q) const {
    return perfbench::Quantile(Get(name), q);
  }
  /// The median, over consecutive groups of `group` samples in the order
  /// they were added, of each group's q-quantile. A trailing partial group
  /// is dropped unless it is the only one. A burst of host noise then
  /// moves the tail of one group, not the figure.
  double GroupedQuantile(const std::string& name, size_t group,
                         double q) const {
    const std::vector<double> all = Get(name);
    if (all.size() < 2 * group) return perfbench::Quantile(all, q);
    std::vector<double> tails;
    for (size_t i = 0; i + group <= all.size(); i += group) {
      tails.push_back(perfbench::Quantile(
          std::vector<double>(all.begin() + i, all.begin() + i + group), q));
    }
    return perfbench::Median(tails);
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
};

// ---------------------------------------------------------------------------
// Spans (the traced run)

/// In-memory spans recorded around the benchmark's calls into each layer:
/// name, start, end, parent span and request id. Written out when the run
/// ends. With tracing off a Span costs one branch.
class Tracer {
 public:
  struct Record {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t request = 0;
  };

  void Enable() { enabled_.store(true); }
  void Disable() { enabled_.store(false); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  void Add(Record record) {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(std::move(record));
  }

  /// Self time per span name in microseconds: each span's duration minus
  /// the part of it that its child spans cover, summed.
  std::map<std::string, double> SelfTimes() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<uint64_t, std::vector<const Record*>> children;
    for (const Record& r : records_) {
      if (r.parent != 0) children[r.parent].push_back(&r);
    }
    std::map<std::string, double> out;
    for (const Record& r : records_) {
      const double dur = static_cast<double>(r.end_ns - r.start_ns) / 1e3;
      // Union of the children's intervals clipped to this span.
      std::vector<std::pair<int64_t, int64_t>> cover;
      auto it = children.find(r.id);
      if (it != children.end()) {
        for (const Record* c : it->second) {
          cover.emplace_back(std::max(c->start_ns, r.start_ns),
                             std::min(c->end_ns, r.end_ns));
        }
      }
      std::sort(cover.begin(), cover.end());
      int64_t covered = 0, reach = r.start_ns;
      for (const auto& [s, e] : cover) {
        const int64_t from = std::max(s, reach);
        if (e > from) {
          covered += e - from;
          reach = e;
        }
      }
      out[r.name] += dur - static_cast<double>(covered) / 1e3;
    }
    return out;
  }

  /// Writes the self time per name, then every span.
  bool WriteJson(const std::string& path) const {
    const std::map<std::string, double> self_us = SelfTimes();
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"self_us\":{";
    for (auto it = self_us.begin(); it != self_us.end(); ++it) {
      out << (it == self_us.begin() ? "" : ",") << "\"" << it->first
          << "\":" << it->second;
    }
    out << "},\n\"spans\":[\n";
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << "{\"name\":\"" << r.name << "\",\"start_ns\":" << r.start_ns
          << ",\"end_ns\":" << r.end_ns << ",\"id\":" << r.id
          << ",\"parent\":" << r.parent << ",\"request\":" << r.request
          << "}" << (i + 1 < records_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

Tracer g_tracer;
thread_local uint64_t t_current_span = 0;
thread_local uint64_t t_current_request = 0;

/// RAII span around one call into a layer. A span opened with a nonzero
/// `request` starts a request; nested spans inherit it. A null name
/// records nothing.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0) {
    if (name == nullptr || !g_tracer.enabled()) return;
    active_ = true;
    record_.name = name;
    record_.id = g_tracer.NextId();
    record_.parent = t_current_span;
    saved_request_ = t_current_request;
    if (request != 0) t_current_request = request;
    record_.request = t_current_request;
    t_current_span = record_.id;
    record_.start_ns = NowNs();
  }
  ~Span() {
    if (!active_) return;
    record_.end_ns = NowNs();
    t_current_span = record_.parent;
    t_current_request = saved_request_;
    g_tracer.Add(std::move(record_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  uint64_t saved_request_ = 0;
  Tracer::Record record_;
};

std::atomic<uint64_t> g_next_request{0};
uint64_t NewRequest() { return g_next_request.fetch_add(1) + 1; }

// ---------------------------------------------------------------------------
// Arguments

enum class Workload { kAnalytic, kServing, kIngest };

struct Args {
  Workload workload = Workload::kAnalytic;
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      have_workload = true;
      args->workload_name = value;
      if (value == "analytic") {
        args->workload = Workload::kAnalytic;
      } else if (value == "serving") {
        args->workload = Workload::kServing;
      } else if (value == "ingest") {
        args->workload = Workload::kIngest;
      } else {
        *error = "unknown workload " + value;
        return false;
      }
    } else if (flag == "--seed") {
      have_seed = true;
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        *error = "bad --seed " + value;
        return false;
      }
    } else if (flag == "--seconds") {
      have_seconds = true;
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0) ||
          args->seconds > 120) {
        *error = "bad --seconds " + value;
        return false;
      }
    } else if (flag == "--trace") {
      have_trace = true;
      if (value != "0" && value != "1") {
        *error = "bad --trace " + value;
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    *error = "need --workload, --seed, --seconds and --trace";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Deployment and data

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// The input streams of a run. Each thread that draws inputs owns one
/// Rng, made from --seed and its own stream, so what a thread draws does
/// not depend on how the threads interleave.
enum class RngStream : uint64_t { kMain = 1, kAppender, kReader, kProbes };

class Rng {
 public:
  Rng(uint64_t seed, RngStream stream)
      : state_(seed * 0x9e3779b97f4a7c15ull ^
               static_cast<uint64_t>(stream) * 0xd1b54a32d192ed03ull) {}
  uint64_t Next() { return SplitMix(&state_); }

 private:
  uint64_t state_;
};

/// A claim-like row of `bytes` bytes for key `key`, version `version`.
std::string StreamRow(int64_t key, uint64_t version, uint64_t salt,
                      size_t bytes) {
  std::string row = std::to_string(key) + "|v" + std::to_string(version) +
                    "|" + std::to_string(salt) + "|";
  const char* fill = "abcdefghijklmnopqrstuvwxyz0123456789";
  for (size_t i = 0; row.size() < bytes; ++i) {
    row.push_back(fill[(salt + i) % 36]);
  }
  row.resize(bytes);
  return row;
}

// ---------------------------------------------------------------------------
// The lake

constexpr double kSelectivities[] = {0.01, 0.1, 1.0};
constexpr const char* kStreamName = "perfbench.stream";

/// Outcome of one job run through the scheduler.
struct JobRun {
  lh::Status status;
  lh::rede::JobResult result;
  std::vector<lh::rede::Tuple> tuples;
  double wall_us = 0.0;
};

/// The generated data, the loaded lake, the scheduler and the merger, plus
/// the oracle answers every check compares against.
class Lake {
 public:
  Lake(const Args& args, const Deployment& deployment)
      : deployment_(deployment),
        cluster_(NvmeCluster(deployment.nodes)),
        engine_(&cluster_),
        seed_(args.seed) {
    uint64_t mix = args.seed * 0x9e3779b97f4a7c15ull + 1;
    {
      Span span("tpch.generate");
      lh::tpch::TpchConfig config;
      config.scale_factor = deployment.tpch_sf;
      config.seed = SplitMix(&mix);
      tpch_ = lh::tpch::Generate(config);
    }
    {
      Span span("tpch.load");
      lh::tpch::LoadOptions load;
      load.partitions = deployment.partitions;
      Must(lh::tpch::LoadIntoLake(engine_, tpch_, load), "tpch load");
    }
    {
      Span span("claims.generate");
      lh::claims::ClaimsConfig config;
      config.num_claims = deployment.claims;
      config.seed = SplitMix(&mix);
      claims_ = lh::claims::GenerateClaims(config);
    }
    {
      Span span("claims.load");
      lh::claims::ClaimsLoadOptions load;
      load.partitions = deployment.partitions;
      Must(lh::claims::LoadRawClaims(engine_, claims_, load), "claims load");
    }
    {
      Span span("index.build");
      BuildCustomerIndex();
    }
    {
      Span span("ingest.load");
      LoadStream(SplitMix(&mix));
    }
    scheduler_ = std::make_unique<lh::sched::JobScheduler>(
        &engine_.executor(lh::rede::ExecutionMode::kSmpe),
        lh::sched::SchedulerOptions());
    merger_ = std::make_unique<lh::ingest::LogMerger>(
        &cluster_, scheduler_.get(), lh::ingest::MergeOptions());
    merger_->RegisterFile(stream_.get());
    BuildJobs();
  }

  /// Oracle answers, from the generated structs (not timed as set-up).
  void ComputeOracles() {
    for (double sel : kSelectivities) {
      auto oracle =
          lh::tpch::Q5Oracle(tpch_, lh::tpch::MakeQ5Params(sel));
      Must(oracle.status(), "Q5 oracle");
      q5_oracle_.push_back(*std::move(oracle));
    }
    for (const auto& query : claims_queries_) {
      claims_oracle_.push_back(lh::claims::ClaimsOracle(claims_, query));
    }
    raw_by_id_.assign(claims_.parsed.size() + 1, nullptr);
    for (size_t i = 0; i < claims_.parsed.size(); ++i) {
      const int64_t id = claims_.parsed[i].ir.claim_id;
      if (id <= 0 || static_cast<size_t>(id) >= raw_by_id_.size()) {
        Fail("claim id out of range");
      }
      raw_by_id_[id] = &claims_.raw[i];
    }
  }

  lh::sim::Cluster& cluster() { return cluster_; }
  lh::rede::Engine& engine() { return engine_; }
  lh::sched::JobScheduler& scheduler() { return *scheduler_; }
  lh::ingest::LogMerger& merger() { return *merger_; }
  const std::shared_ptr<lh::ingest::StreamingFile>& stream() {
    return stream_;
  }
  Rng MakeRng(RngStream stream) const { return Rng(seed_, stream); }

  /// Run `job` through the scheduler and wait for it.
  JobRun Run(const lh::rede::Job& job, const char* tenant,
             lh::sched::JobClass job_class) {
    JobRun run;
    lh::rede::TupleCollector collector;
    lh::sched::JobSpec spec;
    spec.tenant = tenant;
    spec.job_class = job_class;
    spec.sink = collector.AsSink();
    const auto start = Clock::now();
    auto result = [&] {
      Span span("sched.run");
      return scheduler_->Run(job, std::move(spec));
    }();
    run.wall_us = MicrosSince(start);
    if (!result.ok()) {
      run.status = result.status();
      return run;
    }
    run.result = *std::move(result);
    run.tuples = collector.TakeTuples();
    return run;
  }

  /// Q5' at kSelectivities[i]; checks the answer. Returns rows.
  uint64_t RunQ5(size_t i, const char* tenant, JobRun* run) {
    Span span("q5", NewRequest());
    *run = Run(q5_jobs_[i], tenant, lh::sched::JobClass::kAnalyticalScan);
    Must(run->status, "Q5'");
    auto summary = lh::tpch::SummarizeRedeOutput(run->tuples);
    Must(summary.status(), "Q5' summary");
    Must(CheckQ5(*summary, q5_oracle_[i]), "Q5' check");
    return summary->rows;
  }

  /// Claims query `i` (Q1..Q3) on the raw lake; checks the answer.
  void RunClaims(size_t i, const char* tenant, JobRun* run) {
    Span span("claims", NewRequest());
    *run = Run(claims_jobs_[i], tenant, lh::sched::JobClass::kAnalyticalScan);
    Must(run->status, "claims query");
    auto answer = lh::claims::SummarizeRawOutput(run->tuples);
    Must(answer.status(), "claims summary");
    Must(CheckClaims(*answer, claims_oracle_[i]), "claims check");
  }

  size_t num_claims_queries() const { return claims_jobs_.size(); }

  int64_t RandomClaimId(Rng& rng) const {
    return 1 + static_cast<int64_t>(rng.Next() % claims_.parsed.size());
  }

  lh::rede::Job LookupJob(int64_t claim_id) const {
    auto job = lh::rede::JobBuilder("pk")
                   .Initial(lh::rede::Tuple::Point(lh::io::Pointer::Keyed(
                       lh::io::EncodeInt64Key(claim_id))))
                   .Add(lh::rede::MakePointDereferencer("pk-deref",
                                                        raw_claims_))
                   .Build();
    Must(job.status(), "lookup job");
    return *std::move(job);
  }

  /// Check a finished lookup of `claim_id`.
  void CheckLookupAnswer(int64_t claim_id,
                         const std::vector<lh::rede::Tuple>& tuples) const {
    Must(CheckLookup(tuples, *raw_by_id_[claim_id]), "lookup check");
  }

  /// Blocking lookup through the scheduler; returns microseconds.
  double Lookup(Rng& rng, const char* tenant) {
    const int64_t id = RandomClaimId(rng);
    Span span("lookup", NewRequest());
    const lh::rede::Job job = LookupJob(id);
    JobRun run = Run(job, tenant, lh::sched::JobClass::kPointLookup);
    Must(run.status, "lookup");
    CheckLookupAnswer(id, run.tuples);
    AddQueueDwell(run.result.metrics);
    return run.wall_us;
  }

  void AddQueueDwell(const lh::rede::MetricsSnapshot& metrics) {
    std::lock_guard<std::mutex> lock(dwell_mu_);
    queue_dwell_.Merge(metrics.queue_dwell_us);
  }
  uint64_t queue_dwell_p50() const {
    std::lock_guard<std::mutex> lock(dwell_mu_);
    return queue_dwell_.P50();
  }

  /// Point read of `key` through a snapshot view; the answer is kept and
  /// checked against the model once every append has been recorded.
  double SnapshotLookup(
      const std::shared_ptr<lh::ingest::SnapshotView>& view,
      int64_t key, const char* tenant) {
    Span span("snapshot_lookup", NewRequest());
    const std::string encoded = lh::io::EncodeInt64Key(key);
    auto job = lh::rede::JobBuilder("snap")
                   .Initial(lh::rede::Tuple::Point(
                       lh::io::Pointer(encoded, encoded)))
                   .Add(lh::rede::MakePointDereferencer("snap-deref", view))
                   .Build();
    Must(job.status(), "snapshot job");
    JobRun run = Run(*job, tenant, lh::sched::JobClass::kPointLookup);
    Must(run.status, "snapshot lookup");
    PendingRead read{key, view->snapshot_lsn(), {}};
    for (const auto& tuple : run.tuples) {
      for (const auto& record : tuple.records) {
        read.rows.push_back(record.bytes());
      }
    }
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_reads_.push_back(std::move(read));
    return run.wall_us;
  }

  int64_t RandomStreamKey(Rng& rng) const {
    return static_cast<int64_t>(rng.Next() % deployment_.stream_rows);
  }

  /// Append one new version of a key in the upper half of the loaded
  /// range (so reads see base and tail versions together). Single
  /// appender thread. Returns microseconds spent in StreamAppend.
  double Append(Rng& rng) {
    const uint64_t half = deployment_.stream_rows / 2;
    const int64_t key =
        static_cast<int64_t>(half + rng.Next() % (deployment_.stream_rows -
                                                  half));
    const uint64_t version = ++appends_;
    std::string row = StreamRow(key, version, rng.Next(),
                                deployment_.row_bytes);
    const std::string encoded = lh::io::EncodeInt64Key(key);
    user_bytes_appended_ += row.size();
    const auto start = Clock::now();
    auto lsn = [&] {
      // One append in 64 gets a span: the full-speed appender would
      // otherwise record about a million spans per run.
      Span span(version % 64 == 0 ? "ingest.append" : nullptr);
      return stream_->StreamAppend(encoded, encoded, lh::io::Record(row));
    }();
    const double us = MicrosSince(start);
    Must(lsn.status(), "StreamAppend");
    model_.Append(key, *lsn, std::move(row));
    return us;
  }

  uint64_t user_bytes_appended() const { return user_bytes_appended_; }

  /// Check every kept snapshot read against the model. Call once no
  /// append is in flight.
  void CheckPendingReads() {
    std::lock_guard<std::mutex> lock(pending_mu_);
    for (const PendingRead& read : pending_reads_) {
      Must(CheckRows(read.rows, model_.RowsAt(read.key, read.snapshot)),
           "snapshot check");
    }
    pending_reads_.clear();
  }

  /// Seal the open epoch and fold the whole backlog. The merger's
  /// progress counters restart with each drain, so folds and gate
  /// deferrals are summed here across pump runs and drains.
  lh::ingest::MergeReport Drain() {
    {
      Span span("ingest.seal");
      stream_->SealOpenEpoch();
    }
    const auto& progress = merger_->progress();
    folded_ += progress.records_folded.load() - progress_folded_;
    gate_deferrals_ += progress.gate_deferrals.load() - progress_deferrals_;
    auto report = [&] {
      Span span("ingest.drain");
      return merger_->DrainBacklog();
    }();
    Must(report.status(), "DrainBacklog");
    folded_ += report->records_folded;
    gate_deferrals_ += report->gate_deferrals;
    progress_folded_ = report->records_folded;
    progress_deferrals_ = report->gate_deferrals;
    return *report;
  }
  uint64_t gate_deferrals() const { return gate_deferrals_; }

  /// Check the drained state of the streaming file.
  void CheckDrained() {
    const auto stats = stream_->ingest_stats();
    DrainState state;
    state.appended = model_.appended();
    state.folded = folded_;
    state.loaded = deployment_.stream_rows;
    state.num_records = stream_->num_records();
    state.merged_lsn = stats.merged_lsn;
    state.tail_lsn = stats.tail_lsn;
    Must(CheckDrain(state), "drain check");
  }

  const std::shared_ptr<lh::io::File>& raw_claims() const {
    return raw_claims_;
  }

  static void Must(const lh::Status& status, const char* what) {
    if (!status.ok()) Fail(std::string(what) + ": " + status.ToString());
  }
  [[noreturn]] static void Fail(const std::string& why) {
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    std::fflush(stderr);
    std::_Exit(2);
  }

 private:
  struct PendingRead {
    int64_t key = 0;
    uint64_t snapshot = 0;
    std::vector<std::string> rows;
  };

  /// A post-hoc access method: a global structure on o_custkey, built
  /// through Engine::BuildStructure from schema-on-read extraction.
  void BuildCustomerIndex() {
    lh::index::IndexSpec spec;
    spec.index_name = "perfbench.orders.o_custkey.idx";
    spec.base_file = lh::tpch::names::kOrders;
    spec.placement = lh::index::IndexPlacement::kGlobal;
    spec.extract = [](const lh::io::Record& record,
                      std::vector<lh::index::Posting>* out) {
      const std::string_view row = record.slice().view();
      auto cust = lh::ParseInt64(lh::FieldAt(
          row, lh::tpch::kDelim, lh::tpch::orders::kCustKey));
      auto order = lh::ParseInt64(lh::FieldAt(
          row, lh::tpch::kDelim, lh::tpch::orders::kOrderKey));
      if (!cust.ok()) return cust.status();
      if (!order.ok()) return order.status();
      lh::index::Posting posting;
      posting.index_key = lh::io::EncodeInt64Key(*cust);
      posting.target_partition_key = lh::io::EncodeInt64Key(*order);
      posting.target_key = posting.target_partition_key;
      out->push_back(std::move(posting));
      return lh::Status::OK();
    };
    Must(engine_.BuildStructure(spec, "o_custkey").status(),
         "BuildStructure");
  }

  void LoadStream(uint64_t salt) {
    stream_ = std::make_shared<lh::ingest::StreamingFile>(
        kStreamName,
        std::make_shared<lh::io::HashPartitioner>(deployment_.partitions),
        &cluster_, lh::ingest::IngestOptions());
    for (uint64_t i = 0; i < deployment_.stream_rows; ++i) {
      const int64_t key = static_cast<int64_t>(i);
      std::string row = StreamRow(key, 0, salt + i, deployment_.row_bytes);
      const std::string encoded = lh::io::EncodeInt64Key(key);
      Must(stream_->Append(encoded, encoded, lh::io::Record(row)),
           "stream load");
      model_.Load(key, std::move(row));
    }
    stream_->Seal();
    Must(engine_.catalog().Register(stream_), "stream register");
  }

  void BuildJobs() {
    for (double sel : kSelectivities) {
      auto job = lh::tpch::BuildQ5RedeJob(engine_,
                                          lh::tpch::MakeQ5Params(sel));
      Must(job.status(), "Q5' job");
      q5_jobs_.push_back(*std::move(job));
    }
    claims_queries_ = lh::claims::AllQueries();
    for (const auto& query : claims_queries_) {
      auto job = lh::claims::BuildRawClaimsJob(engine_, query);
      Must(job.status(), "claims job");
      claims_jobs_.push_back(*std::move(job));
    }
    auto raw = engine_.catalog().Get(lh::claims::names::kRawClaims);
    Must(raw.status(), "raw claims file");
    raw_claims_ = *raw;
  }

  Deployment deployment_;
  lh::sim::Cluster cluster_;
  lh::rede::Engine engine_;
  uint64_t seed_;
  lh::tpch::TpchData tpch_;
  lh::claims::ClaimsData claims_;
  std::shared_ptr<lh::ingest::StreamingFile> stream_;
  std::shared_ptr<lh::io::File> raw_claims_;
  IngestModel model_;
  std::unique_ptr<lh::sched::JobScheduler> scheduler_;
  std::unique_ptr<lh::ingest::LogMerger> merger_;

  std::vector<lh::rede::Job> q5_jobs_;
  std::vector<lh::claims::ClaimsQuery> claims_queries_;
  std::vector<lh::rede::Job> claims_jobs_;
  std::vector<lh::tpch::Q5Summary> q5_oracle_;
  std::vector<lh::claims::ClaimsAnswer> claims_oracle_;
  std::vector<const std::string*> raw_by_id_;

  uint64_t appends_ = 0;
  uint64_t user_bytes_appended_ = 0;
  uint64_t folded_ = 0;
  uint64_t gate_deferrals_ = 0;
  uint64_t progress_folded_ = 0;
  uint64_t progress_deferrals_ = 0;
  mutable std::mutex dwell_mu_;
  lh::obs::HistogramSnapshot queue_dwell_;

  std::mutex pending_mu_;
  std::vector<PendingRead> pending_reads_;
};

// ---------------------------------------------------------------------------
// Measurement shared by the workloads

/// Everything one run measured, reduced to metrics at the end.
struct Measured {
  Samples samples;  ///< per-operation and per-pass samples
  std::atomic<uint64_t> attempted{0};
  uint64_t passes = 0;
  double window_s = 0.0;
  /// Device and catalog deltas over the passes.
  uint64_t records_accessed = 0;
  uint64_t random_reads = 0;
  uint64_t network_messages = 0;
  /// Executor counters summed over the scan jobs of the passes.
  uint64_t deref_invocations = 0;
  uint64_t ref_invocations = 0;
  uint64_t tuples_emitted = 0;
  uint64_t broadcasts = 0;
  int64_t peak_parallel_derefs = 0;
  /// Ingest accounting.
  uint64_t appended = 0;
  double append_busy_s = 0.0;
  double fold_span_s = 0.0;
  uint64_t bytes_written = 0;
  uint64_t writes = 0;
  uint64_t user_bytes = 0;
  uint64_t epochs_sealed = 0;
  uint64_t backlog_epochs_max = 0;
  uint64_t gate_deferrals = 0;
  uint64_t queue_dwell_p50 = 0;
  lh::sched::SchedulerStats sched;
  lh::obs::HistogramSnapshot service_us;

  void AddScanJob(const JobRun& run) {
    const auto& m = run.result.metrics;
    std::lock_guard<std::mutex> lock(mu);
    deref_invocations += m.deref_invocations;
    ref_invocations += m.ref_invocations;
    tuples_emitted += m.tuples_emitted;
    broadcasts += m.broadcasts;
    peak_parallel_derefs = std::max(peak_parallel_derefs,
                                    m.peak_parallel_derefs);
  }
  std::mutex mu;
};

/// Device and catalog counters at one instant.
struct Counters {
  uint64_t records_accessed = 0;
  lh::sim::ResourceTotals device;
  static Counters Take(Lake& lake) {
    Counters c;
    c.records_accessed = lake.engine().catalog().TotalRecordAccesses();
    c.device = lake.cluster().TotalStats();
    return c;
  }
};

/// One ingest burst: `n` appends, seal, drain through the merger. Used by
/// the workloads whose main phase is not ingest.
void IngestBurst(Lake& lake, Rng& rng, Measured* m, size_t n) {
  const auto before = lake.cluster().TotalStats();
  const uint64_t user_before = lake.user_bytes_appended();
  const uint64_t sealed_before = lake.stream()->ingest_stats().epochs_sealed;
  const auto first = Clock::now();
  double busy_s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double us = lake.Append(rng);
    busy_s += us / 1e6;
    m->samples.Add("append_us", us);
  }
  m->backlog_epochs_max =
      std::max(m->backlog_epochs_max, lake.stream()->backlog_epochs() + 1);
  const lh::ingest::MergeReport report = lake.Drain();
  const double fold_s = SecondsSince(first);
  m->samples.Add("append_per_s", static_cast<double>(n) / busy_s);
  m->samples.Add("fold_per_s", static_cast<double>(n) / fold_s);
  m->samples.Add("epoch_merge_us",
                 static_cast<double>(report.epoch_merge_us.P50()));
  m->gate_deferrals = lake.gate_deferrals();
  const auto after = lake.cluster().TotalStats();
  m->bytes_written += after.bytes_written - before.bytes_written;
  m->writes += after.writes - before.writes;
  m->user_bytes += lake.user_bytes_appended() - user_before;
  m->appended += n;
  m->append_busy_s += busy_s;
  m->epochs_sealed += lake.stream()->ingest_stats().epochs_sealed -
                      sealed_before;
  m->attempted += n + 1;
  lake.CheckDrained();
}

/// `n` snapshot lookups at a view pinned now.
void SnapshotBurst(Lake& lake, Rng& rng, Measured* m, size_t n) {
  auto view = lh::ingest::MakeSnapshotView(lake.stream());
  for (size_t i = 0; i < n; ++i) {
    m->samples.Add("snapshot_us",
                   lake.SnapshotLookup(view, lake.RandomStreamKey(rng),
                                       "serving-a"));
  }
  m->attempted += n;
}

constexpr size_t kLow = 0;
constexpr size_t kFull = std::size(kSelectivities) - 1;

/// Adds the device and catalog counters that moved between two instants.
void AddCounters(const Counters& before, const Counters& after,
                 Measured* m) {
  m->records_accessed += after.records_accessed - before.records_accessed;
  m->random_reads += after.device.random_reads - before.device.random_reads;
  m->network_messages +=
      after.device.network_messages - before.device.network_messages;
}

/// Lookups per group of lookup_p99_us (Samples::GroupedQuantile). Each
/// workload adds its lookup latencies from one thread, in time order.
constexpr size_t kTailGroup = 500;

/// One analytic pass: Q5' at each selectivity then claims Q1..Q3, run one
/// at a time.
void AnalyticPass(Lake& lake, Measured* m, const char* tenant) {
  const Counters before = Counters::Take(lake);
  std::vector<uint64_t> rows;
  double scan_s = 0.0;
  for (size_t i = 0; i < std::size(kSelectivities); ++i) {
    JobRun run;
    rows.push_back(lake.RunQ5(i, tenant, &run));
    m->AddScanJob(run);
    scan_s += run.wall_us / 1e6;
    if (i == kLow) m->samples.Add("q5_low_ms", run.wall_us / 1e3);
    if (i == kFull) m->samples.Add("q5_full_ms", run.wall_us / 1e3);
  }
  Lake::Must(CheckQ5RowsNonDecreasing(rows), "Q5' rows by selectivity");
  double claims_ms = 0.0;
  for (size_t i = 0; i < lake.num_claims_queries(); ++i) {
    JobRun run;
    lake.RunClaims(i, tenant, &run);
    m->AddScanJob(run);
    scan_s += run.wall_us / 1e6;
    claims_ms += run.wall_us / 1e3;
  }
  m->samples.Add("claims_ms", claims_ms);
  const size_t jobs = std::size(kSelectivities) + lake.num_claims_queries();
  m->samples.Add("scans_per_s", static_cast<double>(jobs) / scan_s);
  AddCounters(before, Counters::Take(lake), m);
  m->attempted += jobs;
  ++m->passes;
}

/// A scan tenant's closed loop, one job outstanding: Q5' at sel 0.01 then
/// claims Q1..Q3, until `stop`. Each cycle is one pass.
void ScanTenant(Lake& lake, Measured* m, const char* tenant,
                const std::atomic<bool>& stop) {
  while (!stop.load()) {
    JobRun run;
    lake.RunQ5(kLow, tenant, &run);
    m->AddScanJob(run);
    m->samples.Add("q5_low_ms", run.wall_us / 1e3);
    double claims_ms = 0.0;
    for (size_t i = 0; i < lake.num_claims_queries(); ++i) {
      lake.RunClaims(i, tenant, &run);
      m->AddScanJob(run);
      claims_ms += run.wall_us / 1e3;
    }
    m->samples.Add("claims_ms", claims_ms);
    std::lock_guard<std::mutex> lock(m->mu);
    m->attempted += 1 + lake.num_claims_queries();
    ++m->passes;
  }
}

/// Q5' at sel 1.0, `n` times, one at a time. The workloads whose scan
/// tenants run at low selectivity take their full-selectivity figure here.
void FullScans(Lake& lake, Measured* m, int n) {
  for (int i = 0; i < n; ++i) {
    JobRun run;
    lake.RunQ5(kFull, "analytics-a", &run);
    m->samples.Add("q5_full_ms", run.wall_us / 1e3);
    ++m->attempted;
  }
}

// ---------------------------------------------------------------------------
// Workloads

/// analytic: untimed (wall time is engine cost), one operation at a time.
/// Each round is one analytic pass (Q5' at 0.01, 0.1 and 1.0, claims
/// Q1..Q3), 512 primary-key lookups, a 2048-record ingest burst folded by
/// the merger, and 64 snapshot lookups.
void RunAnalytic(Lake& lake, const Args& args, Measured* m) {
  Rng rng = lake.MakeRng(RngStream::kMain);
  const auto start = Clock::now();
  do {
    AnalyticPass(lake, m, "analytics-a");
    for (int i = 0; i < 512; ++i) {
      m->samples.Add("lookup_us", lake.Lookup(rng, "serving-a"));
    }
    m->attempted += 512;
    IngestBurst(lake, rng, m, 2048);
    SnapshotBurst(lake, rng, m, 64);
    lake.CheckPendingReads();
  } while (SecondsSince(start) < args.seconds);
  m->window_s = SecondsSince(start);
}

/// A lookup submitted by the open-loop generator.
struct InFlight {
  Clock::time_point due;
  Clock::time_point sent;
  int64_t claim_id = 0;
  std::unique_ptr<lh::rede::Job> job;
  std::unique_ptr<lh::rede::TupleCollector> collector;
  lh::sched::JobHandlePtr handle;
};

/// serving: timed at NVMe-class latency. Two serving tenants send
/// open-loop primary-key lookups at a fixed total rate while two scan
/// tenants each keep one job outstanding. Every lookup is timed from its
/// due time. After the window, still timed and one at a time: Q5' at sel
/// 1.0 three times, eight 2048-record ingest bursts and 256 snapshot
/// lookups.
void RunServing(Lake& lake, const Args& args, Measured* m) {
  // About a third of the rate at which the lookup queue starts to grow
  // on a 4-core host (between 400/s and 800/s), so the backlog stays flat.
  constexpr double kLookupsPerSecond = 200.0;
  Rng rng = lake.MakeRng(RngStream::kMain);
  lake.cluster().SetTimingEnabled(true);
  std::atomic<bool> stop{false};
  const Counters before = Counters::Take(lake);
  std::vector<std::thread> tenants;
  for (const char* tenant : {"analytics-a", "analytics-b"}) {
    tenants.emplace_back([&, tenant] { ScanTenant(lake, m, tenant, stop); });
  }

  // Completion side of the open loop: waits in submission order; the
  // latency itself comes from the scheduler's submit-to-completion time,
  // so waiting in order does not distort it.
  std::mutex q_mu;
  std::condition_variable q_cv;
  std::deque<std::unique_ptr<InFlight>> queue;
  bool generator_done = false;
  std::thread waiter([&] {
    for (;;) {
      std::unique_ptr<InFlight> f;
      {
        std::unique_lock<std::mutex> lock(q_mu);
        q_cv.wait(lock, [&] { return !queue.empty() || generator_done; });
        if (queue.empty()) return;
        f = std::move(queue.front());
        queue.pop_front();
      }
      auto result = f->handle->Wait();
      Lake::Must(result.status(), "lookup");
      lake.CheckLookupAnswer(f->claim_id, f->collector->TakeTuples());
      lake.AddQueueDwell(result->metrics);
      const double late_us =
          std::chrono::duration<double, std::micro>(f->sent - f->due)
              .count();
      m->samples.Add("lookup_us",
                     late_us + static_cast<double>(f->handle->total_us()));
      m->samples.Add("generator_late_us", late_us);
    }
  });

  const auto start = Clock::now();
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kLookupsPerSecond));
  const uint64_t total = static_cast<uint64_t>(
      std::llround(args.seconds * kLookupsPerSecond));
  for (uint64_t i = 0; i < total; ++i) {
    auto f = std::make_unique<InFlight>();
    f->due = start + period * static_cast<int64_t>(i);
    std::this_thread::sleep_until(f->due);
    f->claim_id = lake.RandomClaimId(rng);
    f->job = std::make_unique<lh::rede::Job>(lake.LookupJob(f->claim_id));
    f->collector = std::make_unique<lh::rede::TupleCollector>();
    lh::sched::JobSpec spec;
    spec.tenant = i % 2 == 0 ? "serving-a" : "serving-b";
    spec.job_class = lh::sched::JobClass::kPointLookup;
    spec.sink = f->collector->AsSink();
    f->sent = Clock::now();
    auto handle = [&] {
      Span span("sched.submit", NewRequest());
      return lake.scheduler().Submit(*f->job, std::move(spec));
    }();
    Lake::Must(handle.status(), "lookup submit");
    f->handle = *handle;
    ++m->attempted;
    {
      std::lock_guard<std::mutex> lock(q_mu);
      queue.push_back(std::move(f));
    }
    q_cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(q_mu);
    generator_done = true;
  }
  q_cv.notify_one();
  waiter.join();
  stop.store(true);
  for (auto& t : tenants) t.join();
  m->window_s = SecondsSince(start);
  m->sched = lake.scheduler().stats();
  AddCounters(before, Counters::Take(lake), m);
  m->samples.Add("scans_per_s",
                 static_cast<double>(m->passes *
                                     (1 + lake.num_claims_queries())) /
                     m->window_s);

  FullScans(lake, m, 3);
  for (int i = 0; i < 8; ++i) IngestBurst(lake, rng, m, 2048);
  SnapshotBurst(lake, rng, m, 256);
  lake.CheckPendingReads();
  lake.cluster().SetTimingEnabled(false);
}

/// ingest: untimed. One appender streams records at full speed while the
/// LogMerger pump folds sealed epochs as kMaintenance jobs; a reader pins
/// a snapshot view every 16 reads and interleaves snapshot lookups with
/// primary-key lookups; one scan tenant keeps a job outstanding. After the
/// window the appender stops, the merger drains the backlog, and Q5' at
/// sel 1.0 runs alone.
void RunIngest(Lake& lake, const Args& args, Measured* m) {
  std::atomic<bool> stop{false};
  const Counters before = Counters::Take(lake);
  const auto device_before = lake.cluster().TotalStats();
  const uint64_t user_before = lake.user_bytes_appended();
  const uint64_t sealed_before = lake.stream()->ingest_stats().epochs_sealed;
  Lake::Must(lake.merger().Start(), "merger start");

  const auto start = Clock::now();
  std::thread appender([&] {
    Rng rng = lake.MakeRng(RngStream::kAppender);
    uint64_t n = 0;
    double busy_s = 0.0;
    while (!stop.load(std::memory_order_relaxed)) {
      const double us = lake.Append(rng);
      busy_s += us / 1e6;
      ++n;
      if (n % 64 == 0) m->samples.Add("append_us", us);
    }
    m->appended = n;
    m->append_busy_s = busy_s;
    m->attempted += n;
  });
  std::thread reader([&] {
    Rng rng = lake.MakeRng(RngStream::kReader);
    while (!stop.load()) {
      auto view = lh::ingest::MakeSnapshotView(lake.stream());
      for (int i = 0; i < 16 && !stop.load(); ++i) {
        m->samples.Add("snapshot_us",
                       lake.SnapshotLookup(view, lake.RandomStreamKey(rng),
                                           "serving-a"));
        m->samples.Add("lookup_us", lake.Lookup(rng, "serving-b"));
        m->attempted += 2;
      }
    }
  });
  std::thread scans([&] { ScanTenant(lake, m, "analytics-a", stop); });
  while (SecondsSince(start) < args.seconds) {
    m->backlog_epochs_max =
        std::max(m->backlog_epochs_max, lake.stream()->backlog_epochs());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  appender.join();
  reader.join();
  scans.join();
  m->window_s = SecondsSince(start);
  m->sched = lake.scheduler().stats();
  AddCounters(before, Counters::Take(lake), m);

  lake.merger().Stop();
  const lh::ingest::MergeReport report = lake.Drain();
  m->fold_span_s = SecondsSince(start);
  lake.CheckPendingReads();
  lake.CheckDrained();
  const auto device_after = lake.cluster().TotalStats();
  m->bytes_written = device_after.bytes_written - device_before.bytes_written;
  m->writes = device_after.writes - device_before.writes;
  m->user_bytes = lake.user_bytes_appended() - user_before;
  m->epochs_sealed =
      lake.stream()->ingest_stats().epochs_sealed - sealed_before;
  m->gate_deferrals = lake.gate_deferrals();
  m->samples.Add("append_per_s",
                 static_cast<double>(m->appended) / m->append_busy_s);
  m->samples.Add("fold_per_s",
                 static_cast<double>(m->appended) / m->fold_span_s);
  m->samples.Add("epoch_merge_us",
                 static_cast<double>(report.epoch_merge_us.P50()));
  m->samples.Add("scans_per_s",
                 static_cast<double>(m->passes *
                                     (1 + lake.num_claims_queries())) /
                     m->window_s);
  FullScans(lake, m, 3);
}

// ---------------------------------------------------------------------------
// Layer probes (traced run only): untimed calls into single layers.

struct Probes {
  double range_get_us = 0.0;
  double point_get_us = 0.0;
  double verify_ns_per_kb = 0.0;
  double job_fixed_us = 0.0;
  double ns_per_deref = 0.0;
  double untraced_ms = 0.0;
  double traced_ms = 0.0;
};

Probes RunProbes(Lake& lake) {
  Probes p;
  Rng rng = lake.MakeRng(RngStream::kProbes);
  const bool was_tracing = g_tracer.enabled();
  lake.cluster().SetTimingEnabled(false);
  auto& catalog = lake.engine().catalog();
  auto date_index = catalog.Get(lh::tpch::names::kOrdersDateIndex);
  Lake::Must(date_index.status(), "date index");
  const lh::tpch::Q5Params params = lh::tpch::MakeQ5Params(0.01);
  std::vector<double> range_us;
  for (int i = 0; i < 400; ++i) {
    const uint32_t partition =
        static_cast<uint32_t>(i) % (*date_index)->num_partitions();
    uint64_t seen = 0;
    const auto start = Clock::now();
    {
      Span span("io.range_get");
      Lake::Must((*date_index)->GetRangeInPartition(
                     (*date_index)->NodeOfPartition(partition), partition,
                     params.date_lo, params.date_hi,
                     [&](const lh::io::Record&) {
                       ++seen;
                       return true;
                     }),
                 "range get");
    }
    range_us.push_back(MicrosSince(start));
  }
  p.range_get_us = Median(range_us);

  std::vector<double> point_us;
  uint64_t verified_bytes = 0;
  std::vector<lh::io::Record> records;
  for (int i = 0; i < 2000; ++i) {
    const int64_t id = lake.RandomClaimId(rng);
    std::vector<lh::io::Record> out;
    const auto start = Clock::now();
    {
      Span span("io.point_get");
      Lake::Must(lake.raw_claims()->Get(
                     0, lh::io::Pointer::Keyed(lh::io::EncodeInt64Key(id)),
                     &out),
                 "point get");
    }
    point_us.push_back(MicrosSince(start));
    if (out.size() != 1) Lake::Fail("point get returned no record");
    verified_bytes += out[0].size();
    records.push_back(std::move(out[0]));
  }
  p.point_get_us = Median(point_us);

  std::vector<double> verify_ns_per_kb;
  for (int rep = 0; rep < 5; ++rep) {
    uint64_t valid = 0;
    const auto start = Clock::now();
    {
      Span span("io.verify");
      for (const auto& record : records) valid += record.ChecksumValid();
    }
    const double ns = MicrosSince(start) * 1e3;
    if (valid != records.size()) Lake::Fail("checksum verify failed");
    verify_ns_per_kb.push_back(ns /
                               (static_cast<double>(verified_bytes) / 1024));
  }
  p.verify_ns_per_kb = Median(verify_ns_per_kb);

  // One-dereference job straight on the engine (no scheduler).
  std::vector<double> job_us;
  for (int i = 0; i < 300; ++i) {
    const int64_t id = lake.RandomClaimId(rng);
    const lh::rede::Job job = lake.LookupJob(id);
    lh::rede::TupleCollector collector;
    const auto start = Clock::now();
    {
      Span span("rede.execute");
      auto result = lake.engine().Execute(
          job, lh::rede::ExecutionMode::kSmpe, collector.AsSink());
      Lake::Must(result.status(), "one-deref job");
    }
    job_us.push_back(MicrosSince(start));
    lake.CheckLookupAnswer(id, collector.TakeTuples());
  }
  p.job_fixed_us = Median(job_us);

  // Engine cost per dereference: untimed Q5' at sel 1.0.
  std::vector<double> ns_per_deref;
  for (int i = 0; i < 3; ++i) {
    JobRun run;
    lake.RunQ5(kFull, "analytics-a", &run);
    ns_per_deref.push_back(
        run.wall_us * 1e3 /
        static_cast<double>(run.result.metrics.deref_invocations));
  }
  p.ns_per_deref = Median(ns_per_deref);

  // Tracing overhead: the same block (Q5' at 0.1 and 16 lookups) with the
  // benchmark's spans off and on, alternating, medians of each.
  std::vector<double> off_ms, on_ms;
  for (int rep = 0; rep < 10; ++rep) {
    for (bool traced : {false, true}) {
      if (traced) {
        g_tracer.Enable();
      } else {
        g_tracer.Disable();
      }
      const auto start = Clock::now();
      JobRun run;
      lake.RunQ5(1, "analytics-a", &run);
      for (int i = 0; i < 16; ++i) lake.Lookup(rng, "serving-a");
      (traced ? on_ms : off_ms).push_back(MicrosSince(start) / 1e3);
    }
  }
  if (was_tracing) {
    g_tracer.Enable();
  } else {
    g_tracer.Disable();
  }
  p.untraced_ms = Median(off_ms);
  p.traced_ms = Median(on_ms);
  return p;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void PrintResult(const Measured& m, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": true, \"attempted\": " +
                     std::to_string(m.attempted.load()) +
                     ", \"failed\": 0, \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (!std::isfinite(metrics[i].value)) {
      Lake::Fail("metric " + metrics[i].name + " is not finite");
    }
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<Metric> EndToEnd(const Measured& m, double setup_s) {
  const double passes = static_cast<double>(std::max<uint64_t>(1, m.passes));
  const double appended_bytes = static_cast<double>(m.user_bytes);
  return {
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"q5_low_ms", m.samples.Median("q5_low_ms"), "ms"},
      {"q5_full_ms", m.samples.Median("q5_full_ms"), "ms"},
      {"claims_ms", m.samples.Median("claims_ms"), "ms"},
      {"records_accessed", static_cast<double>(m.records_accessed) / passes,
       "records/pass"},
      {"random_reads", static_cast<double>(m.random_reads) / passes,
       "reads/pass"},
      {"lookup_p50_us", m.samples.Median("lookup_us"), "us"},
      {"lookup_p99_us",
       m.samples.GroupedQuantile("lookup_us", kTailGroup, 0.99), "us"},
      {"scans_per_s", m.samples.Median("scans_per_s"), "jobs/s"},
      {"append_per_s", m.samples.Median("append_per_s"), "records/s"},
      {"fold_per_s", m.samples.Median("fold_per_s"), "records/s"},
      {"snapshot_lookup_p50_us", m.samples.Median("snapshot_us"), "us"},
      {"write_amp", static_cast<double>(m.bytes_written) / appended_bytes,
       "bytes/byte"},
  };
}

std::vector<Metric> PerLayer(const Measured& m, const Probes& p) {
  const auto self_us = g_tracer.SelfTimes();
  auto span_ms = [&](const char* name) {
    auto it = self_us.find(name);
    return it == self_us.end() ? 0.0 : it->second / 1e3;
  };
  const double passes = static_cast<double>(std::max<uint64_t>(1, m.passes));
  using lh::sched::JobClass;
  const auto& lookup =
      m.sched.per_class[static_cast<size_t>(JobClass::kPointLookup)];
  const auto& scan =
      m.sched.per_class[static_cast<size_t>(JobClass::kAnalyticalScan)];
  const double overhead =
      p.untraced_ms > 0 ? (p.traced_ms / p.untraced_ms - 1.0) * 100.0 : 0.0;
  return {
      {"tpch.generate_ms", span_ms("tpch.generate"), "ms"},
      {"tpch.load_ms", span_ms("tpch.load"), "ms"},
      {"claims.generate_ms", span_ms("claims.generate"), "ms"},
      {"claims.load_ms", span_ms("claims.load"), "ms"},
      {"index.build_ms", span_ms("index.build"), "ms"},
      {"io.range_get_us", p.range_get_us, "us"},
      {"io.point_get_us", p.point_get_us, "us"},
      {"io.verify_ns_per_kb", p.verify_ns_per_kb, "ns/KB"},
      {"rede.job_fixed_us", p.job_fixed_us, "us"},
      {"rede.ns_per_deref", p.ns_per_deref, "ns"},
      {"rede.deref_invocations",
       static_cast<double>(m.deref_invocations) / passes, "count/pass"},
      {"rede.ref_invocations", static_cast<double>(m.ref_invocations) / passes,
       "count/pass"},
      {"rede.tuples_emitted", static_cast<double>(m.tuples_emitted) / passes,
       "count/pass"},
      {"rede.broadcasts", static_cast<double>(m.broadcasts) / passes,
       "count/pass"},
      {"rede.peak_parallel_derefs",
       static_cast<double>(m.peak_parallel_derefs), "count"},
      {"rede.queue_dwell_us_p50", static_cast<double>(m.queue_dwell_p50),
       "us"},
      {"sim.random_reads", static_cast<double>(m.random_reads) / passes,
       "reads/pass"},
      {"sim.network_messages", static_cast<double>(m.network_messages) / passes,
       "count/pass"},
      {"sim.bytes_written", static_cast<double>(m.bytes_written), "bytes"},
      {"sim.writes", static_cast<double>(m.writes), "count"},
      {"sim.service_us_p50", static_cast<double>(m.service_us.P50()), "us"},
      {"sched.lookup_queue_wait_us_p50",
       static_cast<double>(lookup.queue_wait_us.P50()), "us"},
      {"sched.lookup_queue_wait_us_p99",
       static_cast<double>(lookup.queue_wait_us.P99()), "us"},
      {"sched.lookup_exec_us_p50", static_cast<double>(lookup.exec_us.P50()),
       "us"},
      {"sched.lookup_exec_us_p99", static_cast<double>(lookup.exec_us.P99()),
       "us"},
      {"sched.scan_exec_us_p50", static_cast<double>(scan.exec_us.P50()),
       "us"},
      {"ingest.append_us_p50", m.samples.Median("append_us"), "us"},
      {"ingest.append_us_p99", m.samples.Quantile("append_us", 0.99), "us"},
      {"ingest.epochs_sealed", static_cast<double>(m.epochs_sealed), "count"},
      {"ingest.backlog_epochs_max", static_cast<double>(m.backlog_epochs_max),
       "count"},
      {"ingest.epoch_merge_us_p50", m.samples.Median("epoch_merge_us"), "us"},
      {"ingest.gate_deferrals", static_cast<double>(m.gate_deferrals),
       "count"},
      {"load.generator_late_us_p99",
       m.samples.Quantile("generator_late_us", 0.99), "us"},
      {"obs.untraced_ms", p.untraced_ms, "ms"},
      {"obs.traced_ms", p.traced_ms, "ms"},
      {"obs.tracing_overhead_pct", overhead, "%"},
  };
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 64;
  }
  if (args.trace) g_tracer.Enable();

  Deployment deployment;
  Lake lake(args, deployment);
  const double setup_s = SecondsSince(kProcessStart);
  lake.ComputeOracles();

  Measured m;
  lake.cluster().ResetStats();
  switch (args.workload) {
    case Workload::kAnalytic:
      RunAnalytic(lake, args, &m);
      break;
    case Workload::kServing:
      RunServing(lake, args, &m);
      break;
    case Workload::kIngest:
      RunIngest(lake, args, &m);
      break;
  }
  m.service_us = lake.cluster().TotalStats().service_us;
  if (m.sched.submitted == 0) m.sched = lake.scheduler().stats();
  m.queue_dwell_p50 = lake.queue_dwell_p50();
  if (m.sched.failed != 0 || m.sched.rejected != 0) {
    Lake::Fail("scheduler reported failed or rejected jobs");
  }

  if (!args.trace) {
    PrintResult(m, EndToEnd(m, setup_s));
    return 0;
  }
  const Probes probes = RunProbes(lake);
  const std::vector<Metric> metrics = PerLayer(m, probes);
  if (!args.trace_out.empty() && !g_tracer.WriteJson(args.trace_out)) {
    Lake::Fail("cannot write " + args.trace_out);
  }
  PrintResult(m, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
