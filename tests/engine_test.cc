// End-to-end tests for core/engine.h: the full Pre-estimation →
// Calculation → Summarization pipeline.

#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.h"
#include "workload/datasets.h"

namespace isla {
namespace core {
namespace {

IslaOptions Defaults(double e = 0.1) {
  IslaOptions o;
  o.precision = e;
  return o;
}

TEST(IslaEngine, NormalDataWithinPrecision) {
  auto ds = workload::MakeNormalDataset(100'000'000, 10, 100.0, 20.0, 1);
  ASSERT_TRUE(ds.ok());
  IslaEngine engine(Defaults(0.1));
  auto r = engine.AggregateAvg(*ds->data());
  ASSERT_TRUE(r.ok()) << r.status();
  // The confidence contract allows ~5% misses; with this fixed seed the
  // answer is comfortably inside.
  EXPECT_NEAR(r->average, 100.0, 0.2);
  EXPECT_EQ(r->data_size, 100'000'000u);
  EXPECT_EQ(r->blocks.size(), 10u);
}

TEST(IslaEngine, SumIsAvgTimesM) {
  auto ds = workload::MakeNormalDataset(1'000'000, 5, 100.0, 20.0, 2);
  ASSERT_TRUE(ds.ok());
  IslaEngine engine(Defaults(0.5));
  auto r = engine.AggregateSum(*ds->data());
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->sum, r->average * 1e6);
  EXPECT_NEAR(r->sum, 1e8, 0.5 * 1e6);
}

TEST(IslaEngine, DeterministicForFixedSeed) {
  auto ds = workload::MakeNormalDataset(1'000'000, 5, 100.0, 20.0, 3);
  ASSERT_TRUE(ds.ok());
  IslaEngine engine(Defaults(0.2));
  auto a = engine.AggregateAvg(*ds->data());
  auto b = engine.AggregateAvg(*ds->data());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->average, b->average);
  EXPECT_EQ(a->total_samples, b->total_samples);
}

TEST(IslaEngine, SeedSaltDecorrelatesRuns) {
  auto ds = workload::MakeNormalDataset(1'000'000, 5, 100.0, 20.0, 4);
  ASSERT_TRUE(ds.ok());
  IslaEngine engine(Defaults(0.2));
  auto a = engine.AggregateAvg(*ds->data(), /*seed_salt=*/0);
  auto b = engine.AggregateAvg(*ds->data(), /*seed_salt=*/1);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a->average, b->average);
}

TEST(IslaEngine, NegativeDataIsShiftedAndRestored) {
  // All-negative normal data exercises footnote 1's translation.
  auto ds = workload::MakeNormalDataset(10'000'000, 5, -500.0, 10.0, 5);
  ASSERT_TRUE(ds.ok());
  IslaEngine engine(Defaults(0.5));
  auto r = engine.AggregateAvg(*ds->data());
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->shift, 0.0);
  EXPECT_NEAR(r->average, -500.0, 0.5);
}

TEST(IslaEngine, StraddlingZeroDataWorks) {
  auto ds = workload::MakeNormalDataset(10'000'000, 5, 0.0, 20.0, 13);
  ASSERT_TRUE(ds.ok());
  IslaEngine engine(Defaults(0.5));
  auto r = engine.AggregateAvg(*ds->data());
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->average, 0.0, 0.5);
}

TEST(IslaEngine, ConstantDataShortCircuits) {
  auto table = std::make_shared<storage::Table>("t");
  ASSERT_TRUE(table->AddColumn("v").ok());
  ASSERT_TRUE(table
                  ->AppendBlock("v", std::make_shared<storage::MemoryBlock>(
                                         std::vector<double>(10000, 7.25)))
                  .ok());
  auto col = table->GetColumn("v");
  ASSERT_TRUE(col.ok());
  IslaEngine engine(Defaults());
  auto r = engine.AggregateAvg(**col);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->average, 7.25);
  EXPECT_EQ(r->total_samples, 0u);  // No main pass needed.
}

TEST(IslaEngine, EmptyColumnFails) {
  storage::Column empty("v");
  IslaEngine engine(Defaults());
  EXPECT_TRUE(
      engine.AggregateAvg(empty).status().IsFailedPrecondition());
}

TEST(IslaEngine, InvalidOptionsFail) {
  auto ds = workload::MakeNormalDataset(10'000, 2, 100.0, 20.0, 7);
  ASSERT_TRUE(ds.ok());
  IslaOptions bad;
  bad.p1 = 3.0;  // p1 > p2.
  IslaEngine engine(bad);
  EXPECT_FALSE(engine.AggregateAvg(*ds->data()).ok());
}

TEST(IslaEngine, BlockReportsCoverAllBlocks) {
  auto ds = workload::MakeNormalDataset(1'000'000, 7, 100.0, 20.0, 8);
  ASSERT_TRUE(ds.ok());
  IslaEngine engine(Defaults(0.3));
  auto r = engine.AggregateAvg(*ds->data());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->blocks.size(), 7u);
  uint64_t samples = 0;
  for (size_t j = 0; j < r->blocks.size(); ++j) {
    EXPECT_EQ(r->blocks[j].block_index, j);
    EXPECT_GT(r->blocks[j].block_rows, 0u);
    samples += r->blocks[j].samples_drawn;
  }
  EXPECT_EQ(samples, r->total_samples);
}

TEST(IslaEngine, TotalSamplesTracksEquationOne) {
  auto ds = workload::MakeNormalDataset(100'000'000, 10, 100.0, 20.0, 9);
  ASSERT_TRUE(ds.ok());
  IslaEngine engine(Defaults(0.1));
  auto r = engine.AggregateAvg(*ds->data());
  ASSERT_TRUE(r.ok());
  // m = u²σ²/e² ≈ 153k for σ=20, e=0.1, β=.95 (σ̂ jitters it slightly).
  EXPECT_NEAR(static_cast<double>(r->total_samples), 153658.0, 16000.0);
}

TEST(IslaEngine, ExponentialDataWithinLooseBand) {
  auto ds = workload::MakeExponentialDataset(10'000'000, 10, 0.1, 10);
  ASSERT_TRUE(ds.ok());
  IslaEngine engine(Defaults(0.1));
  auto r = engine.AggregateAvg(*ds->data());
  ASSERT_TRUE(r.ok());
  // Asymmetric distribution: §VIII-E reports mild underestimation
  // (9.53 for true 10 at γ=0.1); the precision contract does not hold
  // here, so accept a ±12% band around the true mean.
  EXPECT_NEAR(r->average, 10.0, 1.2);
}

TEST(IslaEngine, UniformDataWithinLooseBand) {
  auto ds = workload::MakeUniformDataset(10'000'000, 10, 1.0, 199.0, 11);
  ASSERT_TRUE(ds.ok());
  IslaEngine engine(Defaults(0.5));
  auto r = engine.AggregateAvg(*ds->data());
  ASSERT_TRUE(r.ok());
  // §VIII-E: ISLA lands between 99.5 and 99.85 on U[1,199] (slight
  // underestimation; the desired precision is not guaranteed here).
  EXPECT_NEAR(r->average, 100.0, 1.5);
}

TEST(IslaEngine, SingleBlockColumnWorks) {
  auto ds = workload::MakeNormalDataset(1'000'000, 1, 100.0, 20.0, 12);
  ASSERT_TRUE(ds.ok());
  IslaEngine engine(Defaults(0.3));
  auto r = engine.AggregateAvg(*ds->data());
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->average, 100.0, 0.5);
}

TEST(IslaEngine, ManyBlocksWork) {
  auto ds = workload::MakeNormalDataset(10'000'000, 24, 100.0, 20.0, 14);
  ASSERT_TRUE(ds.ok());
  IslaEngine engine(Defaults(0.2));
  auto r = engine.AggregateAvg(*ds->data());
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->average, 100.0, 0.4);
  EXPECT_EQ(r->blocks.size(), 24u);
}

}  // namespace
}  // namespace core
}  // namespace isla
