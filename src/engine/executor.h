#ifndef ISLA_ENGINE_EXECUTOR_H_
#define ISLA_ENGINE_EXECUTOR_H_

#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/group_by.h"
#include "core/options.h"
#include "engine/query.h"
#include "runtime/scratch_arena.h"
#include "storage/table.h"

namespace isla {
namespace engine {

class ScanScheduler;

/// Outcome of executing one query.
struct QueryResult {
  double value = 0.0;               // the AVG/SUM/COUNT answer (scalar form)
  AggregateKind aggregate = AggregateKind::kAvg;
  Method method = Method::kIsla;
  uint64_t samples_used = 0;        // 0 for exact scans
  double elapsed_millis = 0.0;
  /// Full engine diagnostics when the ungrouped ISLA paths ran.
  std::optional<core::AggregateResult> isla_details;
  /// Per-group answers when the query had WHERE/GROUP BY/COUNT. For an
  /// ungrouped predicated query this holds the single implicit group and
  /// `value` mirrors it; with GROUP BY, `value` is 0 and the groups (sorted
  /// ascending by key) are the answer.
  std::optional<core::GroupedAggregateResult> grouped;

  /// The scalar answer a group's row contributes for `aggregate`. A
  /// histogram's scalar form is the group's estimated cardinality (the
  /// bins live in GroupResult::histogram).
  static double GroupValue(const core::GroupResult& g, AggregateKind kind) {
    switch (kind) {
      case AggregateKind::kAvg:
        return g.average;
      case AggregateKind::kSum:
        return g.sum;
      case AggregateKind::kCount:
        return g.count_estimate;
      case AggregateKind::kMedian:
      case AggregateKind::kQuantile:
        return g.quantile_value;
      case AggregateKind::kHistogram:
        return g.count_estimate;
    }
    return 0.0;
  }
};

/// True for the sketch-backed aggregates (MEDIAN/QUANTILE/HISTOGRAM).
constexpr bool IsSketchAggregate(AggregateKind kind) {
  return kind == AggregateKind::kMedian || kind == AggregateKind::kQuantile ||
         kind == AggregateKind::kHistogram;
}

/// RNG decorrelation salts of the grouped sampler's `USING` variants (isla
/// uses salt 0 so local execution lines up with the distributed
/// coordinator's default). Public so the coverage harness can drive the
/// exact streams each method executes.
inline constexpr uint64_t kGroupedNonIidSalt = 0x9b0471dULL;
inline constexpr uint64_t kGroupedUniformSalt = 0x3f0a11fULL;

/// Binds the mini-SQL front end to a catalog and runs queries with the
/// method the query names. Baseline sample sizes follow Eq. (1) computed
/// from a pilot, so `USING uniform` et al. are apples-to-apples with ISLA.
class QueryExecutor {
 public:
  /// `scheduler` (nullable, unowned, must outlive the executor) routes
  /// every sampled grouped statement, sketch and top-k shapes included,
  /// through its pilot/result caches and in-flight dedup. Answers are
  /// bit-identical either way; the scheduler only saves repeated work.
  QueryExecutor(const storage::Catalog* catalog, core::IslaOptions base,
                ScanScheduler* scheduler = nullptr)
      : catalog_(catalog), base_options_(base), scheduler_(scheduler) {}

  /// Parses and executes `sql`.
  Result<QueryResult> Execute(std::string_view sql) const;

  /// Executes a pre-parsed spec.
  Result<QueryResult> Execute(const QuerySpec& spec) const;

 private:
  const storage::Catalog* catalog_;
  core::IslaOptions base_options_;
  ScanScheduler* scheduler_;
  /// Gather arenas shared by every query this executor runs: after the
  /// first query warms them, steady-state sampling loops allocate nothing.
  /// mutable because Execute is logically const (the pool is an internal
  /// cache, thread-safe by construction).
  mutable runtime::ScratchPool scratch_pool_;
};

}  // namespace engine
}  // namespace isla

#endif  // ISLA_ENGINE_EXECUTOR_H_
