// Tests for the parallel Calculation phase: bit-identical answers across
// parallelism settings and repeated runs, and the SUM-shaped AggregateSum.

#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.h"
#include "engine/executor.h"
#include "engine/query.h"
#include "storage/table.h"
#include "workload/datasets.h"

namespace isla {
namespace core {
namespace {

IslaOptions Defaults(double e, uint32_t parallelism) {
  IslaOptions o;
  o.precision = e;
  o.parallelism = parallelism;
  return o;
}

/// Every field that feeds the answer must match bit-for-bit.
void ExpectIdentical(const AggregateResult& a, const AggregateResult& b) {
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.average, b.average);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.sketch0, b.sketch0);
  EXPECT_EQ(a.sigma_estimate, b.sigma_estimate);
  EXPECT_EQ(a.shift, b.shift);
  EXPECT_EQ(a.total_samples, b.total_samples);
  EXPECT_EQ(a.pilot_samples, b.pilot_samples);
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  for (size_t j = 0; j < a.blocks.size(); ++j) {
    EXPECT_EQ(a.blocks[j].samples_drawn, b.blocks[j].samples_drawn);
    EXPECT_EQ(a.blocks[j].answer.avg, b.blocks[j].answer.avg);
    EXPECT_EQ(a.blocks[j].answer.alpha, b.blocks[j].answer.alpha);
    EXPECT_EQ(a.blocks[j].answer.s_count, b.blocks[j].answer.s_count);
    EXPECT_EQ(a.blocks[j].answer.l_count, b.blocks[j].answer.l_count);
  }
}

TEST(ParallelEngine, BitIdenticalAcrossParallelism) {
  auto ds = workload::MakeNormalDataset(10'000'000, 16, 100.0, 20.0, 21);
  ASSERT_TRUE(ds.ok());
  auto r1 = IslaEngine(Defaults(0.2, 1)).AggregateAvg(*ds->data());
  auto r2 = IslaEngine(Defaults(0.2, 2)).AggregateAvg(*ds->data());
  auto r8 = IslaEngine(Defaults(0.2, 8)).AggregateAvg(*ds->data());
  ASSERT_TRUE(r1.ok() && r2.ok() && r8.ok());
  ExpectIdentical(*r1, *r2);
  ExpectIdentical(*r1, *r8);
}

TEST(ParallelEngine, BitIdenticalAcrossRepeatedRuns) {
  auto ds = workload::MakeNormalDataset(5'000'000, 8, 100.0, 20.0, 22);
  ASSERT_TRUE(ds.ok());
  IslaEngine engine(Defaults(0.2, 8));
  auto a = engine.AggregateAvg(*ds->data());
  auto b = engine.AggregateAvg(*ds->data());
  ASSERT_TRUE(a.ok() && b.ok());
  ExpectIdentical(*a, *b);
}

TEST(ParallelEngine, AutoParallelismMatchesExplicitOne) {
  auto ds = workload::MakeNormalDataset(5'000'000, 8, 100.0, 20.0, 23);
  ASSERT_TRUE(ds.ok());
  auto seq = IslaEngine(Defaults(0.2, 1)).AggregateAvg(*ds->data());
  auto autop = IslaEngine(Defaults(0.2, 0)).AggregateAvg(*ds->data());
  ASSERT_TRUE(seq.ok() && autop.ok());
  ExpectIdentical(*seq, *autop);
}

TEST(ParallelEngine, SeedSaltStillDecorrelatesUnderParallelism) {
  auto ds = workload::MakeNormalDataset(5'000'000, 8, 100.0, 20.0, 24);
  ASSERT_TRUE(ds.ok());
  IslaEngine engine(Defaults(0.2, 4));
  auto a = engine.AggregateAvg(*ds->data(), /*seed_salt=*/0);
  auto b = engine.AggregateAvg(*ds->data(), /*seed_salt=*/1);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->average, b->average);
}

TEST(AggregateSum, ReturnsSumShapedResult) {
  auto ds = workload::MakeNormalDataset(1'000'000, 5, 100.0, 20.0, 2);
  ASSERT_TRUE(ds.ok());
  IslaEngine engine(Defaults(0.5, 2));
  auto r = engine.AggregateSum(*ds->data());
  ASSERT_TRUE(r.ok());
  // Regression: AggregateSum used to be a bare alias of AggregateAvg, so
  // callers reading the primary answer silently got the AVG.
  EXPECT_DOUBLE_EQ(r->value, r->sum);
  EXPECT_DOUBLE_EQ(r->sum, r->average * 1e6);
  EXPECT_NEAR(r->value, 1e8, 0.5 * 1e6);
}

TEST(AggregateSum, AvgValueIsAverage) {
  auto ds = workload::MakeNormalDataset(1'000'000, 5, 100.0, 20.0, 2);
  ASSERT_TRUE(ds.ok());
  IslaEngine engine(Defaults(0.5, 1));
  auto r = engine.AggregateAvg(*ds->data());
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->value, r->average);
}

TEST(AggregateSum, ExecutorSumQueryMatchesEngine) {
  auto ds = workload::MakeNormalDataset(1'000'000, 4, 100.0, 20.0, 33);
  ASSERT_TRUE(ds.ok());
  storage::Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(ds->table).ok());
  engine::QueryExecutor executor(&catalog, IslaOptions{});
  std::string sql = "SELECT SUM(" + ds->column + ") FROM " +
                    ds->table->name() + " WITHIN 0.5";
  auto qr = executor.Execute(sql);
  ASSERT_TRUE(qr.ok()) << qr.status();
  ASSERT_TRUE(qr->isla_details.has_value());
  EXPECT_DOUBLE_EQ(qr->value, qr->isla_details->sum);
  EXPECT_DOUBLE_EQ(qr->value, qr->isla_details->value);
  EXPECT_NEAR(qr->value, 1e8, 0.5 * 1e6);
}

}  // namespace
}  // namespace core
}  // namespace isla
