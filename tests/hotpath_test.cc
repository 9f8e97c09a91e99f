// Hot-path contracts: steady-state allocation freedom, scratch-arena reuse
// without answer drift, and batch/stream equivalence with the historical
// value-at-a-time sampling order.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <span>
#include <vector>

#include "core/block_solver.h"
#include "core/boundaries.h"
#include "core/engine.h"
#include "core/group_by.h"
#include "engine/executor.h"
#include "engine/session.h"
#include "runtime/scratch_arena.h"
#include "sampling/samplers.h"
#include "storage/file_block.h"
#include "storage/table.h"
#include "util/rng.h"

// --- Allocation-counting hook -------------------------------------------
// Overriding the global allocator inside this test binary counts every
// heap allocation the process makes; tests snapshot the counter around the
// exact region they claim is allocation-free. Single-threaded tests only.
//
// GCC pairs the replaced operator new (malloc-backed) with the library's
// operator delete during inlining analysis and flags a false mismatch —
// both are replaced here, so the pairing is correct by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<int64_t> g_alloc_count{0};
}  // namespace

// Every allocating variant must be replaced together (throwing, nothrow,
// aligned): libstdc++ pairs e.g. stable_sort's nothrow new with the plain
// delete, and a half-replaced set trips ASan's alloc-dealloc matcher.
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = std::aligned_alloc(a, (size + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace isla {
namespace {

int64_t AllocCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

std::vector<double> MakeValues(size_t n, uint64_t seed) {
  std::vector<double> values(n);
  Xoshiro256 rng(seed);
  for (auto& v : values) v = 50.0 + 100.0 * rng.NextDouble();
  return values;
}

core::DataBoundaries MakeBoundaries(double sketch0, double sigma) {
  auto b = core::DataBoundaries::Create(sketch0, sigma, 0.5, 2.0);
  EXPECT_TRUE(b.ok()) << b.status();
  return *b;
}

TEST(HotPathAlloc, SteadyStateSamplingPhaseIsAllocationFree) {
  storage::MemoryBlock block(MakeValues(100000, 1));
  core::DataBoundaries boundaries = MakeBoundaries(100.0, 30.0);
  runtime::ScratchArena arena;

  // Warm-up sizes the arena's index/value buffers.
  core::BlockParams warm;
  Xoshiro256 warm_rng(7);
  ASSERT_TRUE(core::RunSamplingPhase(block, boundaries, 20000, 0.0, &warm_rng,
                                     &warm, &arena)
                  .ok());

  core::BlockParams out;
  Xoshiro256 rng(7);
  const int64_t before = AllocCount();
  ASSERT_TRUE(core::RunSamplingPhase(block, boundaries, 20000, 0.0, &rng,
                                     &out, &arena)
                  .ok());
  const int64_t after = AllocCount();
  EXPECT_EQ(after - before, 0)
      << "steady-state ungrouped sampling loop must not touch the heap";

  // And the warmed rerun is bit-identical to the warm-up pass.
  EXPECT_EQ(out.samples_drawn, warm.samples_drawn);
  EXPECT_EQ(out.param_s.count(), warm.param_s.count());
  EXPECT_EQ(out.param_s.sum(), warm.param_s.sum());
  EXPECT_EQ(out.param_l.sum(), warm.param_l.sum());
}

TEST(HotPathAlloc, MmapGatherIsAllocationFree) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("isla_hotalloc_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string path = (dir / "b.islb").string();
  std::vector<double> values = MakeValues(50000, 2);
  ASSERT_TRUE(storage::WriteBlockFile(path, values).ok());
  auto block = storage::FileBlock::Open(path);
  ASSERT_TRUE(block.ok());

  std::vector<uint64_t> indices(sampling::kGatherBatch);
  Xoshiro256 rng(3);
  for (auto& i : indices) i = rng.NextBounded(values.size());
  std::vector<double> out(indices.size());

  const int64_t before = AllocCount();
  ASSERT_TRUE((*block)->GatherAt(indices, out.data()).ok());
  const int64_t after = AllocCount();
  EXPECT_EQ(after - before, 0) << "mmap gather must be zero-copy, zero-alloc";
  block->reset();
  fs::remove_all(dir);
}

TEST(ScratchReuse, RepeatedQueriesThroughOneExecutorDoNotDrift) {
  // One executor = one warm scratch pool. The first query runs on cold
  // arenas, later ones on reused (dirty) arenas; answers must not move by
  // a single bit, and must match a fresh executor's answer.
  engine::Session session;
  ASSERT_TRUE(session
                  .Execute("CREATE TABLE t FROM NORMAL(100, 20) ROWS 60000 "
                           "BLOCKS 4 SEED 11 GROUPS 5")
                  .ok());
  core::IslaOptions options;
  options.precision = 0.5;
  engine::QueryExecutor warm(session.catalog(), options);
  engine::QueryExecutor cold(session.catalog(), options);

  const char* queries[] = {
      "SELECT AVG(value) FROM t WITHIN 0.5 USING isla",
      "SELECT AVG(value) FROM t WHERE value >= 100 GROUP BY grp WITHIN 0.5 "
      "USING isla",
  };
  for (const char* q : queries) {
    auto first = warm.Execute(q);
    ASSERT_TRUE(first.ok()) << first.status();
    for (int rep = 0; rep < 3; ++rep) {
      auto again = warm.Execute(q);
      ASSERT_TRUE(again.ok()) << again.status();
      EXPECT_EQ(again->value, first->value) << q;
      ASSERT_EQ(again->grouped.has_value(), first->grouped.has_value());
      if (again->grouped.has_value()) {
        ASSERT_EQ(again->grouped->groups.size(),
                  first->grouped->groups.size());
        for (size_t g = 0; g < again->grouped->groups.size(); ++g) {
          EXPECT_EQ(again->grouped->groups[g].average,
                    first->grouped->groups[g].average);
          EXPECT_EQ(again->grouped->groups[g].count_estimate,
                    first->grouped->groups[g].count_estimate);
        }
      }
    }
    auto fresh = cold.Execute(q);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(fresh->value, first->value)
        << "warm-pool answer differs from cold-pool answer: " << q;
  }
}

TEST(BlockSampleStream, ConcatenatedBatchesMatchVisitOrder) {
  storage::MemoryBlock block(MakeValues(5000, 4));

  std::vector<double> visited;
  Xoshiro256 rng_a(99);
  ASSERT_TRUE(sampling::SampleBlockValues(
                  block, 10000, [&](double v) { visited.push_back(v); },
                  &rng_a)
                  .ok());

  runtime::ScratchArena arena;
  Xoshiro256 rng_b(99);
  sampling::BlockSampleStream stream_b(block, 10000, &rng_b, &arena);
  std::vector<double> streamed;
  std::span<const double> batch;
  for (;;) {
    ASSERT_TRUE(stream_b.Next(&batch).ok());
    if (batch.empty()) break;
    streamed.insert(streamed.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(streamed, visited);
}

TEST(BlockSampleStream, EmptyBlockAndNullRngFail) {
  storage::MemoryBlock empty{std::vector<double>{}};
  runtime::ScratchArena arena;
  sampling::BlockSampleStream s1(empty, 0, nullptr, &arena);
  std::span<const double> batch;
  EXPECT_TRUE(s1.Next(&batch).IsInvalidArgument());
  Xoshiro256 rng(1);
  sampling::BlockSampleStream s2(empty, 0, &rng, &arena);
  EXPECT_TRUE(s2.Next(&batch).IsFailedPrecondition());
  EXPECT_TRUE(s2.Next(nullptr).IsInvalidArgument());
}

TEST(ScratchPool, LeasesRecycleArenas) {
  runtime::ScratchPool pool;
  runtime::ScratchArena* first = nullptr;
  {
    auto lease = pool.Acquire();
    first = lease.get();
    ASSERT_NE(first, nullptr);
    lease->indices.resize(1024);
  }
  EXPECT_EQ(pool.IdleCount(), 1u);
  {
    auto lease = pool.Acquire();
    EXPECT_EQ(lease.get(), first) << "returned arena should be reused";
    EXPECT_EQ(lease->indices.size(), 1024u) << "buffers keep their warmth";
    EXPECT_EQ(pool.IdleCount(), 0u);
  }
  EXPECT_EQ(pool.IdleCount(), 1u);
}

}  // namespace
}  // namespace isla
