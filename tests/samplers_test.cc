// Unit + property tests for sampling/samplers.h.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sampling/samplers.h"
#include "storage/block.h"

namespace isla {
namespace sampling {
namespace {

TEST(Proportional, ExactTotalAndProportions) {
  auto alloc = ProportionalAllocation({100, 200, 700}, 100);
  EXPECT_EQ(alloc.size(), 3u);
  EXPECT_EQ(alloc[0] + alloc[1] + alloc[2], 100u);
  EXPECT_EQ(alloc[0], 10u);
  EXPECT_EQ(alloc[1], 20u);
  EXPECT_EQ(alloc[2], 70u);
}

TEST(Proportional, LargestRemainderRounding) {
  // 3 equal strata, m = 10: shares 3.33 each → 4/3/3 in some order.
  auto alloc = ProportionalAllocation({1, 1, 1}, 10);
  EXPECT_EQ(alloc[0] + alloc[1] + alloc[2], 10u);
  std::sort(alloc.begin(), alloc.end());
  EXPECT_EQ(alloc[0], 3u);
  EXPECT_EQ(alloc[2], 4u);
}

TEST(Proportional, ZeroBudgetOrEmpty) {
  EXPECT_EQ(ProportionalAllocation({10, 20}, 0),
            (std::vector<uint64_t>{0, 0}));
  EXPECT_EQ(ProportionalAllocation({0, 0}, 10),
            (std::vector<uint64_t>{0, 0}));
}

TEST(Neyman, WeightsBySigma) {
  // Equal sizes, σ = {1, 3}: allocation ≈ 1:3.
  auto alloc = NeymanAllocation({1000, 1000}, {1.0, 3.0}, 100);
  EXPECT_EQ(alloc[0] + alloc[1], 100u);
  EXPECT_NEAR(static_cast<double>(alloc[0]), 25.0, 1.0);
}

TEST(Neyman, FallsBackToProportionalWithZeroSigmas) {
  auto alloc = NeymanAllocation({100, 300}, {0.0, 0.0}, 40);
  EXPECT_EQ(alloc[0], 10u);
  EXPECT_EQ(alloc[1], 30u);
}

TEST(SampleBlockValues, VisitsExactlyK) {
  storage::MemoryBlock block({1.0, 2.0, 3.0});
  Xoshiro256 rng(11);
  int visits = 0;
  ASSERT_TRUE(
      SampleBlockValues(block, 1000, [&](double) { ++visits; }, &rng).ok());
  EXPECT_EQ(visits, 1000);
}

TEST(SampleBlockValues, EmptyBlockFails) {
  storage::MemoryBlock block(std::vector<double>{});
  Xoshiro256 rng(12);
  EXPECT_TRUE(SampleBlockValues(block, 1, [](double) {}, &rng)
                  .IsFailedPrecondition());
}

TEST(SampleBlockValues, NullRngFails) {
  storage::MemoryBlock block({1.0});
  EXPECT_TRUE(
      SampleBlockValues(block, 1, [](double) {}, nullptr).IsInvalidArgument());
}

TEST(SampleBlockValues, MeanConverges) {
  std::vector<double> values;
  for (int i = 0; i < 1000; ++i) values.push_back(static_cast<double>(i));
  storage::MemoryBlock block(std::move(values));
  Xoshiro256 rng(13);
  double sum = 0.0;
  uint64_t visits = 0;
  ASSERT_TRUE(SampleBlockValues(
                  block, 100000,
                  [&](double v) {
                    sum += v;
                    ++visits;
                  },
                  &rng)
                  .ok());
  ASSERT_EQ(visits, 100000u);
  EXPECT_NEAR(sum / static_cast<double>(visits), 499.5, 10.0);
}

}  // namespace
}  // namespace sampling
}  // namespace isla
