#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "claims/queries.h"
#include "common/status.h"
#include "rede/tuple.h"
#include "tpch/q5.h"

/// \file checks.h
/// Output checks of the benchmark. Every expected value is computed apart
/// from the lake: Q5' and claims answers from the generated structs
/// (tpch::Q5Oracle, claims::ClaimsOracle), lookups from the generator's raw
/// text, and snapshot reads from the benchmark's own key -> rows model
/// stamped with the LSNs StreamAppend returned. Each check returns a
/// non-OK Status naming what differed.

namespace perfbench {

using lakeharbor::Status;

/// A Q5' answer equals its oracle (row count and every output key).
Status CheckQ5(const lakeharbor::tpch::Q5Summary& got,
               const lakeharbor::tpch::Q5Summary& want);

/// Q5' row counts by rising selectivity never fall.
Status CheckQ5RowsNonDecreasing(const std::vector<uint64_t>& rows);

/// A claims answer equals its oracle.
Status CheckClaims(const lakeharbor::claims::ClaimsAnswer& got,
                   const lakeharbor::claims::ClaimsAnswer& want);

/// A primary-key lookup returned exactly one record whose bytes are the
/// generator's raw text.
Status CheckLookup(const std::vector<lakeharbor::rede::Tuple>& tuples,
                   const std::string& raw_text);

/// Rows a snapshot read returned for one key equal the model's rows.
Status CheckRows(const std::vector<std::string>& got,
                 const std::vector<std::string>& want);

/// The benchmark's model of the streaming file: per key, the bulk-loaded
/// row plus every appended row with the LSN its StreamAppend returned.
/// Appends come from one thread, so LSNs arrive in order. Thread-safe.
class IngestModel {
 public:
  void Load(int64_t key, std::string row);
  void Append(int64_t key, uint64_t lsn, std::string row);
  /// Rows a read at `snapshot` must return for `key`: the loaded row, then
  /// appended rows with lsn <= snapshot in LSN order.
  std::vector<std::string> RowsAt(int64_t key, uint64_t snapshot) const;
  uint64_t appended() const;
  uint64_t last_lsn() const;

 private:
  struct Versions {
    std::vector<std::string> loaded;
    std::vector<std::pair<uint64_t, std::string>> appended;
  };
  mutable std::mutex mu_;
  std::map<int64_t, Versions> rows_;
  uint64_t appended_ = 0;
  uint64_t last_lsn_ = 0;
};

/// After the final drain: every appended record folded, the file holds the
/// loaded plus appended records, and the merged LSN reached the tail.
struct DrainState {
  uint64_t appended = 0;
  uint64_t folded = 0;
  uint64_t loaded = 0;
  uint64_t num_records = 0;
  uint64_t merged_lsn = 0;
  uint64_t tail_lsn = 0;
};
Status CheckDrain(const DrainState& state);

}  // namespace perfbench
