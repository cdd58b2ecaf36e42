#pragma once

#include <cstdint>

#include "sim/cluster.h"

namespace perfbench {

/// Fixed deployment: every workload runs this cluster and data size; only
/// whether the device model sleeps differs.
struct Deployment {
  uint32_t nodes = 8;
  uint32_t partitions = 16;
  double tpch_sf = 0.05;
  uint64_t claims = 50000;
  /// Rows bulk-loaded into the streaming file before Seal().
  uint64_t stream_rows = 40000;
  size_t row_bytes = 80;
};

/// NVMe-class device model: tens of microseconds per random read, a deep
/// device queue, a fast interconnect. Built untimed; the serving workload
/// switches timing on for its measured phase.
inline lakeharbor::sim::ClusterOptions NvmeCluster(uint32_t nodes) {
  lakeharbor::sim::ClusterOptions options;
  options.num_nodes = nodes;
  options.disk.io_slots = 64;
  options.disk.random_read_latency_us = 20;
  options.disk.batch_followup_latency_us = 2;
  options.disk.scan_bandwidth_bytes_per_sec = 2ull * 1024 * 1024 * 1024;
  options.disk.scan_chunk_bytes = 256 * 1024;
  options.network.message_latency_us = 10;
  options.EnableTiming(false);
  return options;
}

}  // namespace perfbench
