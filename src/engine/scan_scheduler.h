#ifndef ISLA_ENGINE_SCAN_SCHEDULER_H_
#define ISLA_ENGINE_SCAN_SCHEDULER_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "common/result.h"
#include "common/status.h"
#include "core/group_by.h"
#include "core/options.h"
#include "runtime/scratch_arena.h"

namespace isla {
namespace engine {

/// Monitoring counters, surfaced through SHOW STATS. `rows_requested` is
/// what the statements' standalone executions would have sampled (pilot +
/// main scan, cache hits and joiners included); `rows_gathered` is what the
/// scheduler's executions actually sampled. Their ratio is the work the
/// caches and in-flight dedup saved.
struct ScanSchedulerStats {
  uint64_t queries = 0;          // Execute() calls admitted
  uint64_t shared_batches = 0;   // in-flight executions a twin joined
  uint64_t batched_queries = 0;  // statements those executions served
  uint64_t pilot_cache_hits = 0;
  uint64_t pilot_cache_misses = 0;
  uint64_t result_cache_hits = 0;
  uint64_t result_cache_misses = 0;
  uint64_t rows_gathered = 0;
  uint64_t rows_requested = 0;
};

/// Caches and in-flight dedup over core::GroupByEngine for grouped queries,
/// sketch and top-k shapes included.
///
/// Execute looks up the result cache first. On a miss it joins an identical
/// execution already in flight, or registers one: the pilot comes from the
/// pilot cache or GroupByEngine::Pilot, the answer from
/// GroupByEngine::Aggregate(spec, salt, pilot), and both land in their
/// caches before the joiners wake. One mutex guards the caches, the
/// in-flight table and the counters, so N concurrent identical statements
/// run exactly once. Every answer is bit-identical to
/// GroupByEngine(options).Aggregate(spec, seed_salt), which is the only
/// code that samples.
///
/// Cache keys are built from column *content fingerprints*
/// (storage::Column::ContentFingerprint), so entries from a dropped or
/// re-CREATEd table are unreachable unless the new table provably holds
/// the same bytes — invalidation is automatic, with no DDL hooks.
///
/// Thread-safe; queries Execute() concurrently from session threads.
class ScanScheduler {
 public:
  /// `cache_capacity` is the LRU capacity of each cache, in entries.
  explicit ScanScheduler(size_t cache_capacity = 256);
  ~ScanScheduler();

  ScanScheduler(const ScanScheduler&) = delete;
  ScanScheduler& operator=(const ScanScheduler&) = delete;

  /// Runs one grouped aggregation. Semantics and result bytes are exactly
  /// core::GroupByEngine(options).Aggregate(spec, seed_salt). The caller
  /// must keep `spec`'s columns alive until Execute returns.
  Result<core::GroupedAggregateResult> Execute(const core::GroupedSpec& spec,
                                               const core::IslaOptions& options,
                                               uint64_t seed_salt);

  ScanSchedulerStats stats() const;

  /// Drops every cached pilot and result (tests; memory pressure).
  void ClearCaches();

 private:
  /// Full execution identity; slot semantics in MakeCacheKey. Pilot keys
  /// zero the slots the pilot does not depend on and flip the kind tag.
  using CacheKey = std::array<uint64_t, 16>;

  /// One execution in flight; identical statements wait on it.
  struct InFlight {
    bool done = false;
    uint64_t joiners = 0;
    Result<core::GroupedAggregateResult> result{
        Status::Internal("scan scheduler produced no result")};
  };

  static CacheKey MakeCacheKey(const core::GroupedSpec& spec,
                               const core::IslaOptions& options,
                               uint64_t seed_salt, bool pilot);

  const size_t cache_capacity_;

  mutable std::mutex mu_;  // guards everything below except scratch_pool_
  std::condition_variable done_cv_;  // an in-flight execution finished
  std::map<CacheKey, std::shared_ptr<InFlight>> in_flight_;
  using PilotLru = std::list<std::pair<CacheKey, core::GroupedPilot>>;
  using ResultLru =
      std::list<std::pair<CacheKey, core::GroupedAggregateResult>>;
  PilotLru pilot_lru_;
  std::map<CacheKey, PilotLru::iterator> pilot_index_;
  ResultLru result_lru_;
  std::map<CacheKey, ResultLru::iterator> result_index_;
  ScanSchedulerStats stats_;

  runtime::ScratchPool scratch_pool_;
};

}  // namespace engine
}  // namespace isla

#endif  // ISLA_ENGINE_SCAN_SCHEDULER_H_
