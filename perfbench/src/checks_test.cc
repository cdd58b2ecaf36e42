// Negative control for the benchmark's output checks: each check accepts
// the right answer and rejects a deliberately altered one.
//
//   cmake --build .bench_build --target checks_test && .bench_build/checks_test

#include <gtest/gtest.h>

#include "checks.h"
#include "claims/generator.h"
#include "io/key_codec.h"
#include "io/pointer.h"
#include "io/record.h"
#include "tpch/generator.h"

namespace perfbench {
namespace {

using lakeharbor::claims::ClaimsAnswer;
using lakeharbor::rede::Tuple;
using lakeharbor::tpch::Q5Summary;

TEST(Checks, Q5RejectsAlteredAnswer) {
  lakeharbor::tpch::TpchConfig config;
  config.scale_factor = 0.002;
  const auto data = lakeharbor::tpch::Generate(config);
  auto want = lakeharbor::tpch::Q5Oracle(
      data, lakeharbor::tpch::MakeQ5Params(1.0));
  ASSERT_TRUE(want.ok());
  ASSERT_GT(want->rows, 1u);
  EXPECT_TRUE(CheckQ5(*want, *want).ok());

  Q5Summary dropped = *want;
  dropped.keys.pop_back();
  dropped.rows -= 1;
  EXPECT_FALSE(CheckQ5(dropped, *want).ok());

  Q5Summary renamed = *want;
  renamed.keys[0] += "x";
  EXPECT_FALSE(CheckQ5(renamed, *want).ok());
}

TEST(Checks, Q5RowsMustNotFall) {
  EXPECT_TRUE(CheckQ5RowsNonDecreasing({3, 30, 300}).ok());
  EXPECT_TRUE(CheckQ5RowsNonDecreasing({3, 3, 300}).ok());
  EXPECT_FALSE(CheckQ5RowsNonDecreasing({3, 30, 29}).ok());
}

TEST(Checks, ClaimsRejectsAlteredAnswer) {
  lakeharbor::claims::ClaimsConfig config;
  config.num_claims = 2000;
  const auto data = lakeharbor::claims::GenerateClaims(config);
  const ClaimsAnswer want =
      lakeharbor::claims::ClaimsOracle(data, lakeharbor::claims::Q1());
  ASSERT_GT(want.distinct_claims, 0u);
  EXPECT_TRUE(CheckClaims(want, want).ok());

  ClaimsAnswer fewer = want;
  fewer.distinct_claims -= 1;
  EXPECT_FALSE(CheckClaims(fewer, want).ok());

  ClaimsAnswer cheaper = want;
  cheaper.total_expense -= 1;
  EXPECT_FALSE(CheckClaims(cheaper, want).ok());
}

Tuple TupleOf(std::vector<std::string> rows) {
  Tuple tuple;
  for (std::string& row : rows) {
    tuple.records.emplace_back(std::move(row));
  }
  return tuple;
}

TEST(Checks, LookupRejectsAlteredAnswer) {
  const std::string raw = "IR,7,1,PW\nHO,100";
  EXPECT_TRUE(CheckLookup({TupleOf({raw})}, raw).ok());
  EXPECT_FALSE(CheckLookup({}, raw).ok());
  EXPECT_FALSE(CheckLookup({TupleOf({raw}), TupleOf({raw})}, raw).ok());
  EXPECT_FALSE(CheckLookup({TupleOf({raw, raw})}, raw).ok());
  EXPECT_FALSE(CheckLookup({TupleOf({"IR,7,1,PW\nHO,101"})}, raw).ok());
}

TEST(Checks, SnapshotModelCutsAtThePinnedLsn) {
  IngestModel model;
  model.Load(5, "base5");
  model.Append(5, 10, "v10");
  model.Append(6, 11, "w11");
  model.Append(5, 12, "v12");
  EXPECT_EQ(model.appended(), 3u);
  EXPECT_EQ(model.last_lsn(), 12u);

  const std::vector<std::string> at11 = model.RowsAt(5, 11);
  EXPECT_EQ(at11, (std::vector<std::string>{"base5", "v10"}));
  EXPECT_TRUE(CheckRows(at11, model.RowsAt(5, 11)).ok());
  // A read that leaked a version newer than its snapshot, one that lost a
  // version, one that reordered versions, and one with altered bytes.
  EXPECT_FALSE(CheckRows({"base5", "v10", "v12"}, model.RowsAt(5, 11)).ok());
  EXPECT_FALSE(CheckRows({"base5"}, model.RowsAt(5, 11)).ok());
  EXPECT_FALSE(
      CheckRows({"base5", "v12", "v10"}, model.RowsAt(5, 12)).ok());
  EXPECT_FALSE(CheckRows({"base5", "v1O"}, model.RowsAt(5, 11)).ok());
}

TEST(Checks, DrainRejectsLostOrStuckRecords) {
  DrainState good;
  good.appended = 100;
  good.folded = 100;
  good.loaded = 1000;
  good.num_records = 1100;
  good.merged_lsn = 100;
  good.tail_lsn = 100;
  EXPECT_TRUE(CheckDrain(good).ok());

  DrainState unfolded = good;
  unfolded.folded = 99;
  EXPECT_FALSE(CheckDrain(unfolded).ok());
  DrainState lost = good;
  lost.num_records = 1099;
  EXPECT_FALSE(CheckDrain(lost).ok());
  DrainState behind = good;
  behind.merged_lsn = 96;
  EXPECT_FALSE(CheckDrain(behind).ok());
}

}  // namespace
}  // namespace perfbench
