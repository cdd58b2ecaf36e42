#include "checks.h"

namespace perfbench {

using lakeharbor::claims::ClaimsAnswer;
using lakeharbor::tpch::Q5Summary;

Status CheckQ5(const Q5Summary& got, const Q5Summary& want) {
  if (got.rows != want.rows) {
    return Status::Internal("Q5' returned " + std::to_string(got.rows) +
                            " rows, oracle " + std::to_string(want.rows));
  }
  if (got.keys != want.keys) {
    return Status::Internal("Q5' output keys differ from the oracle");
  }
  return Status::OK();
}

Status CheckQ5RowsNonDecreasing(const std::vector<uint64_t>& rows) {
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i] < rows[i - 1]) {
      return Status::Internal("Q5' rows fell from " +
                              std::to_string(rows[i - 1]) + " to " +
                              std::to_string(rows[i]) +
                              " as selectivity rose");
    }
  }
  return Status::OK();
}

Status CheckClaims(const ClaimsAnswer& got, const ClaimsAnswer& want) {
  if (!(got == want)) {
    return Status::Internal(
        "claims answer " + std::to_string(got.distinct_claims) + "/" +
        std::to_string(got.total_expense) + ", oracle " +
        std::to_string(want.distinct_claims) + "/" +
        std::to_string(want.total_expense));
  }
  return Status::OK();
}

Status CheckLookup(const std::vector<lakeharbor::rede::Tuple>& tuples,
                   const std::string& raw_text) {
  if (tuples.size() != 1 || tuples[0].records.size() != 1) {
    return Status::Internal("lookup returned " +
                            std::to_string(tuples.size()) +
                            " tuples, want one record");
  }
  if (tuples[0].records[0].bytes() != raw_text) {
    return Status::Internal("lookup bytes differ from the generated claim");
  }
  return Status::OK();
}

Status CheckRows(const std::vector<std::string>& got,
                 const std::vector<std::string>& want) {
  if (got != want) {
    return Status::Internal("snapshot read returned " +
                            std::to_string(got.size()) + " rows, model " +
                            std::to_string(want.size()) +
                            (got.size() == want.size() ? " (bytes differ)"
                                                       : ""));
  }
  return Status::OK();
}

void IngestModel::Load(int64_t key, std::string row) {
  std::lock_guard<std::mutex> lock(mu_);
  rows_[key].loaded.push_back(std::move(row));
}

void IngestModel::Append(int64_t key, uint64_t lsn, std::string row) {
  std::lock_guard<std::mutex> lock(mu_);
  rows_[key].appended.emplace_back(lsn, std::move(row));
  ++appended_;
  last_lsn_ = lsn;
}

std::vector<std::string> IngestModel::RowsAt(int64_t key,
                                             uint64_t snapshot) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  auto it = rows_.find(key);
  if (it == rows_.end()) return out;
  out = it->second.loaded;
  for (const auto& [lsn, row] : it->second.appended) {
    if (lsn <= snapshot) out.push_back(row);
  }
  return out;
}

uint64_t IngestModel::appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

uint64_t IngestModel::last_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_lsn_;
}

Status CheckDrain(const DrainState& s) {
  if (s.folded != s.appended) {
    return Status::Internal("folded " + std::to_string(s.folded) +
                            " records, appended " +
                            std::to_string(s.appended));
  }
  if (s.num_records != s.loaded + s.appended) {
    return Status::Internal("file holds " + std::to_string(s.num_records) +
                            " records, want " +
                            std::to_string(s.loaded + s.appended));
  }
  if (s.merged_lsn != s.tail_lsn) {
    return Status::Internal("merged LSN " + std::to_string(s.merged_lsn) +
                            " behind tail " + std::to_string(s.tail_lsn));
  }
  return Status::OK();
}

}  // namespace perfbench
