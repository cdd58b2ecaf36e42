// Reference figures for README.md, measured once rather than gated: the
// Fig 7 comparison of ReDe (SMPE, default engine options) against the
// scan + hash-join baseline on the benchmark's deployment, untimed (engine
// cost) and timed at the NVMe-class device model.
//
//   cmake --build .bench_build --target fig7_reference
//   .bench_build/fig7_reference [seed]

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "baseline/scan_engine.h"
#include "deployment.h"
#include "rede/engine.h"
#include "tpch/generator.h"
#include "tpch/loader.h"
#include "tpch/q5.h"

namespace lh = lakeharbor;

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void Check(const lh::Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "fig7_reference: %s: %s\n", what,
               status.ToString().c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Deployment deployment;
  lh::sim::Cluster cluster(perfbench::NvmeCluster(deployment.nodes));
  lh::rede::Engine engine(&cluster);
  lh::tpch::TpchConfig config;
  config.scale_factor = deployment.tpch_sf;
  if (argc > 1) config.seed = std::strtoull(argv[1], nullptr, 10);
  const lh::tpch::TpchData data = lh::tpch::Generate(config);
  lh::tpch::LoadOptions load;
  load.partitions = deployment.partitions;
  Check(lh::tpch::LoadIntoLake(engine, data, load), "load");
  lh::baseline::ScanEngine scan(&cluster);

  std::printf("nodes=%u partitions=%u sf=%.3f\n", deployment.nodes,
              deployment.partitions, deployment.tpch_sf);
  std::printf("%-6s %-12s %10s %12s %10s %14s\n", "timed", "selectivity",
              "rede_ms", "baseline_ms", "rows", "rede_accesses");
  for (bool timed : {false, true}) {
    cluster.SetTimingEnabled(timed);
    for (double sel : {0.001, 0.01, 0.1, 1.0}) {
      const lh::tpch::Q5Params params = lh::tpch::MakeQ5Params(sel);
      auto job = lh::tpch::BuildQ5RedeJob(engine, params);
      Check(job.status(), "job");
      engine.catalog().ResetAccessStats();
      auto start = std::chrono::steady_clock::now();
      auto rede = engine.ExecuteCollect(*job, lh::rede::ExecutionMode::kSmpe);
      const double rede_ms = MillisSince(start);
      Check(rede.status(), "rede");
      const uint64_t accesses = engine.catalog().TotalRecordAccesses();
      start = std::chrono::steady_clock::now();
      auto rows = lh::tpch::RunQ5Baseline(scan, engine.catalog(), params);
      const double baseline_ms = MillisSince(start);
      Check(rows.status(), "baseline");
      auto rede_summary = lh::tpch::SummarizeRedeOutput(rede->tuples);
      auto base_summary = lh::tpch::SummarizeBaselineOutput(*rows);
      Check(rede_summary.status(), "rede summary");
      Check(base_summary.status(), "baseline summary");
      if (!(*rede_summary == *base_summary)) {
        Check(lh::Status::Internal("answers differ"), "compare");
      }
      std::printf("%-6s %-12g %10.1f %12.1f %10llu %14llu\n",
                  timed ? "yes" : "no", sel, rede_ms, baseline_ms,
                  static_cast<unsigned long long>(rede_summary->rows),
                  static_cast<unsigned long long>(accesses));
    }
  }
  return 0;
}
