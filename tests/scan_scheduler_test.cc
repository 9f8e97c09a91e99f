// Unit coverage of engine::ScanScheduler: in-flight dedup of concurrent
// identical statements, pilot/result cache behavior (sketch and top-k
// shapes included), content-fingerprint keying (including the cross-table
// generator-block positive case), and the stats counters the query server
// surfaces through SHOW STATS. Bit-identity against the standalone engine
// is pinned at scale by differential_test; here the focus is the
// scheduler's own mechanics.

#include "engine/scan_scheduler.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "core/group_by.h"
#include "core/options.h"
#include "stats/distribution.h"
#include "storage/block.h"
#include "storage/table.h"
#include "util/rng.h"

namespace isla {
namespace engine {
namespace {

core::IslaOptions TestOptions() {
  core::IslaOptions options;
  options.precision = 0.3;
  options.parallelism = 1;
  return options;
}

std::unique_ptr<storage::Column> MemoryColumn(uint64_t seed) {
  auto col = std::make_unique<storage::Column>("v");
  Xoshiro256 rng(seed);
  for (int b = 0; b < 3; ++b) {
    std::vector<double> vals(10'000);
    for (auto& v : vals) v = 50.0 + 25.0 * rng.NextDouble();
    EXPECT_TRUE(
        col->AppendBlock(
               std::make_shared<storage::MemoryBlock>(std::move(vals)))
            .ok());
  }
  return col;
}

/// A generator-backed column: content fingerprints derive from the
/// distribution parameters + seed, so two independently built columns with
/// the same recipe are provably byte-identical.
std::unique_ptr<storage::Column> GeneratorColumn(uint64_t seed) {
  auto col = std::make_unique<storage::Column>("v");
  auto dist = std::make_shared<stats::NormalDistribution>(100.0, 20.0);
  for (uint64_t j = 0; j < 3; ++j) {
    EXPECT_TRUE(col->AppendBlock(std::make_shared<storage::GeneratorBlock>(
                                     dist, 10'000,
                                     SplitMix64::Hash(seed, j)))
                    .ok());
  }
  return col;
}

/// Group keys {0, 1, 2}, row-aligned with MemoryColumn.
std::unique_ptr<storage::Column> KeyColumn(uint64_t seed) {
  auto col = std::make_unique<storage::Column>("k");
  Xoshiro256 rng(seed);
  for (int b = 0; b < 3; ++b) {
    std::vector<double> keys(10'000);
    for (auto& k : keys) k = static_cast<double>(rng.NextBounded(3));
    EXPECT_TRUE(
        col->AppendBlock(
               std::make_shared<storage::MemoryBlock>(std::move(keys)))
            .ok());
  }
  return col;
}

/// Field-by-field equality, sketch and top-k surfaces included.
void ExpectSameResult(const core::GroupedAggregateResult& a,
                      const core::GroupedAggregateResult& b) {
  ASSERT_EQ(a.groups.size(), b.groups.size());
  EXPECT_EQ(a.data_size, b.data_size);
  EXPECT_EQ(a.scanned_samples, b.scanned_samples);
  EXPECT_EQ(a.pilot_samples, b.pilot_samples);
  EXPECT_EQ(a.precision, b.precision);
  EXPECT_EQ(a.confidence, b.confidence);
  EXPECT_EQ(a.total_groups, b.total_groups);
  for (size_t g = 0; g < a.groups.size(); ++g) {
    const core::GroupResult& x = a.groups[g];
    const core::GroupResult& y = b.groups[g];
    EXPECT_EQ(x.key, y.key);
    EXPECT_EQ(x.average, y.average);
    EXPECT_EQ(x.sum, y.sum);
    EXPECT_EQ(x.count_estimate, y.count_estimate);
    EXPECT_EQ(x.ci_half_width, y.ci_half_width);
    EXPECT_EQ(x.count_ci_half_width, y.count_ci_half_width);
    EXPECT_EQ(x.samples, y.samples);
    EXPECT_EQ(x.meets_precision, y.meets_precision);
    EXPECT_EQ(x.quantile_value, y.quantile_value);
    EXPECT_EQ(x.rank_error, y.rank_error);
    EXPECT_EQ(x.quantile_lo, y.quantile_lo);
    EXPECT_EQ(x.quantile_hi, y.quantile_hi);
    EXPECT_EQ(x.sketch_samples, y.sketch_samples);
    EXPECT_EQ(x.histogram, y.histogram);
    EXPECT_EQ(x.histogram_lo, y.histogram_lo);
    EXPECT_EQ(x.histogram_hi, y.histogram_hi);
  }
}

TEST(ScanSchedulerTest, SoloExecutionMatchesStandaloneEngine) {
  auto col = MemoryColumn(1);
  core::GroupedSpec spec;
  spec.values = col.get();

  ScanScheduler scheduler;
  auto got = scheduler.Execute(spec, TestOptions(), 0);
  ASSERT_TRUE(got.ok()) << got.status();

  core::GroupByEngine engine(TestOptions());
  auto want = engine.Aggregate(spec, 0);
  ASSERT_TRUE(want.ok()) << want.status();
  ExpectSameResult(*got, *want);
}

TEST(ScanSchedulerTest, ConcurrentIdenticalQueriesCoalesceAndDedup) {
  auto col = MemoryColumn(2);
  core::GroupedSpec spec;
  spec.values = col.get();

  ScanScheduler scheduler;

  constexpr int kThreads = 8;
  std::vector<Result<core::GroupedAggregateResult>> results(
      kThreads, Status::Internal("not run"));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[t] = scheduler.Execute(spec, TestOptions(), 0);
    });
  }
  for (auto& th : threads) th.join();
  core::GroupByEngine engine(TestOptions());
  auto want = engine.Aggregate(spec, 0);
  ASSERT_TRUE(want.ok()) << want.status();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(results[t].ok()) << results[t].status();
    ExpectSameResult(*results[t], *want);
  }

  ScanSchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.queries, static_cast<uint64_t>(kThreads));
  // Exactly one execution: every other thread either joined it while it
  // was in flight or arrived after it finished and hit the result cache.
  const uint64_t one_run = want->scanned_samples + want->pilot_samples;
  EXPECT_EQ(stats.rows_gathered, one_run);
  EXPECT_EQ(stats.rows_requested, kThreads * one_run);
  EXPECT_EQ(stats.pilot_cache_misses, 1u);
  EXPECT_LE(stats.shared_batches, 1u);
  EXPECT_EQ(stats.result_cache_hits + stats.batched_queries -
                stats.shared_batches,
            static_cast<uint64_t>(kThreads - 1));
}

TEST(ScanSchedulerTest, ResultCacheHitsAndClearCaches) {
  auto col = MemoryColumn(3);
  core::GroupedSpec spec;
  spec.values = col.get();

  ScanScheduler scheduler;

  auto first = scheduler.Execute(spec, TestOptions(), 0);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = scheduler.Execute(spec, TestOptions(), 0);
  ASSERT_TRUE(second.ok()) << second.status();
  ExpectSameResult(*second, *first);
  EXPECT_EQ(scheduler.stats().result_cache_hits, 1u);

  scheduler.ClearCaches();
  auto third = scheduler.Execute(spec, TestOptions(), 0);
  ASSERT_TRUE(third.ok()) << third.status();
  ExpectSameResult(*third, *first);
  EXPECT_EQ(scheduler.stats().result_cache_hits, 1u);  // post-clear miss
}

TEST(ScanSchedulerTest, PilotCacheServesAcrossPrecisionChanges) {
  auto col = MemoryColumn(4);
  core::GroupedSpec spec;
  spec.values = col.get();

  ScanScheduler scheduler;

  core::IslaOptions loose = TestOptions();
  auto first = scheduler.Execute(spec, loose, 0);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(scheduler.stats().pilot_cache_hits, 0u);

  // The pilot is independent of the precision target, so tightening the
  // precision reuses it — and the tightened answer still matches the
  // standalone engine bit for bit.
  core::IslaOptions tight = TestOptions();
  tight.precision = 0.15;
  auto second = scheduler.Execute(spec, tight, 0);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(scheduler.stats().pilot_cache_hits, 1u);

  core::GroupByEngine engine(tight);
  auto want = engine.Aggregate(spec, 0);
  ASSERT_TRUE(want.ok()) << want.status();
  ExpectSameResult(*second, *want);
}

TEST(ScanSchedulerTest, GeneratorColumnsShareCacheAcrossIncarnations) {
  // Two independently constructed generator columns with the same recipe
  // have equal content fingerprints — the second table's query is a result
  // cache hit even though no object is shared.
  auto col_a = GeneratorColumn(11);
  auto col_b = GeneratorColumn(11);
  core::GroupedSpec spec_a, spec_b;
  spec_a.values = col_a.get();
  spec_b.values = col_b.get();

  ScanScheduler scheduler;
  auto first = scheduler.Execute(spec_a, TestOptions(), 0);
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = scheduler.Execute(spec_b, TestOptions(), 0);
  ASSERT_TRUE(second.ok()) << second.status();
  ExpectSameResult(*second, *first);
  EXPECT_EQ(scheduler.stats().result_cache_hits, 1u);

  // A different generator seed is different content: miss.
  auto col_c = GeneratorColumn(12);
  core::GroupedSpec spec_c;
  spec_c.values = col_c.get();
  auto third = scheduler.Execute(spec_c, TestOptions(), 0);
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_EQ(scheduler.stats().result_cache_hits, 1u);
  EXPECT_EQ(scheduler.stats().result_cache_misses, 2u);
}

TEST(ScanSchedulerTest, DistinctSaltsAndSeedsNeverAlias) {
  auto col = GeneratorColumn(5);
  core::GroupedSpec spec;
  spec.values = col.get();

  ScanScheduler scheduler;
  auto base = scheduler.Execute(spec, TestOptions(), 0);
  ASSERT_TRUE(base.ok()) << base.status();

  auto salted = scheduler.Execute(spec, TestOptions(), 0x9b0471dULL);
  ASSERT_TRUE(salted.ok()) << salted.status();
  core::IslaOptions reseeded = TestOptions();
  reseeded.seed ^= 1;
  auto other_seed = scheduler.Execute(spec, reseeded, 0);
  ASSERT_TRUE(other_seed.ok()) << other_seed.status();

  // Three distinct cache keys: no hits, and the sampled answers differ
  // (different RNG streams).
  EXPECT_EQ(scheduler.stats().result_cache_hits, 0u);
  EXPECT_NE(salted->groups[0].average, base->groups[0].average);
  EXPECT_NE(other_seed->groups[0].average, base->groups[0].average);
}

TEST(ScanSchedulerTest, CacheCapacityEvictsLeastRecentlyUsed) {
  ScanScheduler scheduler(/*cache_capacity=*/2);

  auto col_a = GeneratorColumn(21);
  auto col_b = GeneratorColumn(22);
  auto col_c = GeneratorColumn(23);
  core::GroupedSpec a, b, c;
  a.values = col_a.get();
  b.values = col_b.get();
  c.values = col_c.get();

  ASSERT_TRUE(scheduler.Execute(a, TestOptions(), 0).ok());
  ASSERT_TRUE(scheduler.Execute(b, TestOptions(), 0).ok());
  ASSERT_TRUE(scheduler.Execute(c, TestOptions(), 0).ok());  // evicts a
  ASSERT_TRUE(scheduler.Execute(a, TestOptions(), 0).ok());  // miss: evicted
  EXPECT_EQ(scheduler.stats().result_cache_hits, 0u);
  ASSERT_TRUE(scheduler.Execute(a, TestOptions(), 0).ok());  // hit
  EXPECT_EQ(scheduler.stats().result_cache_hits, 1u);
}

TEST(ScanSchedulerTest, SketchAndTopKShapesAreCachedBitIdentical) {
  auto col = MemoryColumn(6);
  auto keys = KeyColumn(7);
  core::GroupedSpec median, histogram, top2;
  for (core::GroupedSpec* spec : {&median, &histogram, &top2}) {
    spec->values = col.get();
    spec->keys = keys.get();
  }
  median.want_sketch = true;
  median.summary.quantile_q = 0.5;
  histogram.want_sketch = true;
  histogram.summary.histogram_bins = 8;
  top2.summary.top_k = 2;

  ScanScheduler scheduler;
  core::GroupByEngine engine(TestOptions());
  uint64_t runs = 0;
  for (const core::GroupedSpec* spec : {&median, &histogram, &top2}) {
    auto want = engine.Aggregate(*spec, 0);
    ASSERT_TRUE(want.ok()) << want.status();
    auto first = scheduler.Execute(*spec, TestOptions(), 0);
    ASSERT_TRUE(first.ok()) << first.status();
    ExpectSameResult(*first, *want);
    auto repeat = scheduler.Execute(*spec, TestOptions(), 0);
    ASSERT_TRUE(repeat.ok()) << repeat.status();
    ExpectSameResult(*repeat, *want);
    ++runs;
    EXPECT_EQ(scheduler.stats().result_cache_misses, runs);
    EXPECT_EQ(scheduler.stats().result_cache_hits, runs);
  }

  // Another quantile of the same scan is another answer: a result-cache
  // miss, still equal to the engine's.
  core::GroupedSpec p90 = median;
  p90.summary.quantile_q = 0.9;
  auto got = scheduler.Execute(p90, TestOptions(), 0);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(scheduler.stats().result_cache_misses, runs + 1);
  EXPECT_EQ(scheduler.stats().result_cache_hits, runs);
  auto want = engine.Aggregate(p90, 0);
  ASSERT_TRUE(want.ok()) << want.status();
  ExpectSameResult(*got, *want);
}

}  // namespace
}  // namespace engine
}  // namespace isla
