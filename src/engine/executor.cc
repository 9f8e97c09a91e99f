#include "engine/executor.h"

#include <cmath>
#include <limits>

#include "baselines/estimators.h"
#include "core/noniid.h"
#include "core/pre_estimation.h"
#include "engine/scan_scheduler.h"
#include "runtime/kernels/kernels.h"
#include "stats/moments.h"
#include "util/rng.h"
#include "util/timer.h"

namespace isla {
namespace engine {

namespace {

/// Eq. (1) sample size for the baseline methods, from a quick pilot whose
/// blocks lease their arenas from `scratch`.
Result<uint64_t> BaselineSampleSize(const storage::Column& column,
                                    const core::IslaOptions& options,
                                    runtime::ScratchPool* scratch) {
  Xoshiro256 rng(SplitMix64::Hash(options.seed, 0xba5e11e));
  ISLA_ASSIGN_OR_RETURN(core::PilotEstimate pilot,
                        core::RunPreEstimation(column, options, &rng, scratch));
  return pilot.target_sample_size == 0 ? uint64_t{2}
                                       : pilot.target_sample_size;
}

/// Exact AVG by full scan: the ground-truth method for materialized data.
/// Each batch reduces through the kernel-dispatched compensated sum (SIMD
/// on AVX2); batch totals fold into one compensated accumulator.
Result<double> ExactAvg(const storage::Column& column) {
  const auto& kernels = runtime::kernels::Ops();
  stats::CompensatedSum sum;
  std::vector<double> buffer;
  for (const auto& block : column.blocks()) {
    constexpr uint64_t kBatch = 1 << 16;
    for (uint64_t start = 0; start < block->size(); start += kBatch) {
      uint64_t n = std::min<uint64_t>(kBatch, block->size() - start);
      ISLA_RETURN_NOT_OK(block->ReadRange(start, n, &buffer));
      sum.Add(kernels.sum(buffer.data(), buffer.size()));
    }
  }
  return sum.Total() / static_cast<double>(column.num_rows());
}

/// Exact grouped/predicated aggregation by full scan over the row-aligned
/// columns: the ground truth the coverage harness grades the samplers
/// against. CIs are zero-width and trivially met. Shares the sampler's
/// mask-based routing (EvalPredicateMask + RouteGroupedBatch) — both
/// kernel-dispatched through `scratch` — so both paths grade against the
/// same population by construction.
Result<core::GroupedAggregateResult> ExactGroupedScan(
    const core::GroupedSpec& spec, const core::IslaOptions& options,
    runtime::ScratchArena* scratch) {
  ISLA_RETURN_NOT_OK(core::ValidateGroupedSpec(spec));
  const storage::Column& values = *spec.values;
  core::GroupMap merged;
  core::SketchMap sketches;
  std::vector<double> vals, preds, keys;
  std::vector<uint8_t> mask;
  for (size_t j = 0; j < values.num_blocks(); ++j) {
    const storage::Block& vb = *values.blocks()[j];
    const storage::Block* pb =
        spec.predicate == nullptr ? nullptr : spec.predicate->blocks()[j].get();
    const storage::Block* kb =
        spec.keys == nullptr ? nullptr : spec.keys->blocks()[j].get();
    constexpr uint64_t kBatch = 1 << 16;
    for (uint64_t start = 0; start < vb.size(); start += kBatch) {
      uint64_t n = std::min<uint64_t>(kBatch, vb.size() - start);
      ISLA_RETURN_NOT_OK(vb.ReadRange(start, n, &vals));
      const uint8_t* mask_ptr = nullptr;
      if (pb != nullptr) {
        ISLA_RETURN_NOT_OK(pb->ReadRange(start, n, &preds));
        mask.resize(n);
        core::EvalPredicateMask(spec.op, {preds.data(), n}, spec.literal,
                                mask.data());
        mask_ptr = mask.data();
      }
      if (kb != nullptr) ISLA_RETURN_NOT_OK(kb->ReadRange(start, n, &keys));
      ISLA_RETURN_NOT_OK(core::RouteGroupedBatch(
          {vals.data(), n}, mask_ptr, kb != nullptr ? keys.data() : nullptr,
          /*all=*/nullptr, &merged, scratch,
          spec.want_sketch ? &sketches : nullptr));
    }
  }

  core::GroupedAggregateResult out;
  out.data_size = values.num_rows();
  out.scanned_samples = values.num_rows();
  out.precision = options.precision;
  out.confidence = options.confidence;
  out.groups.reserve(merged.size());
  for (const auto& [key, moments] : merged) {
    core::GroupResult g;
    g.key = key;
    g.samples = moments.n;
    g.average = moments.mean;
    g.count_estimate = static_cast<double>(moments.n);  // exact cardinality
    g.sum = g.average * g.count_estimate;
    g.meets_precision = true;
    out.groups.push_back(g);
  }
  if (spec.want_sketch) {
    // The sketch saw every matching row, so no sampling term — the rank
    // band is the deterministic sketch bound alone.
    ISLA_RETURN_NOT_OK(core::ApplyQuantileSummary(sketches, spec.summary,
                                                  options, /*sampled=*/false,
                                                  &out));
  }
  core::ApplyTopK(spec.summary.top_k, &out);
  return out;
}

/// Per-method decorrelation salts for the grouped sampler. In grouped mode
/// there is no leverage/modulation stage to differentiate the methods — the
/// shared scan with per-group CLT sizing *is* the estimator — so isla,
/// isla_noniid and uniform run the same algorithm on independent RNG
/// streams (the salts below), while stratified/mv/mvb are rejected rather
/// than silently aliased. The isla salt is 0 so the local executor's
/// default matches the distributed coordinator's.
uint64_t GroupedMethodSalt(Method m) {
  switch (m) {
    case Method::kIslaNonIid:
      return kGroupedNonIidSalt;
    case Method::kUniform:
      return kGroupedUniformSalt;
    default:
      return 0;
  }
}

}  // namespace

Result<QueryResult> QueryExecutor::Execute(std::string_view sql) const {
  ISLA_ASSIGN_OR_RETURN(QuerySpec spec, ParseQuery(sql));
  return Execute(spec);
}

Result<QueryResult> QueryExecutor::Execute(const QuerySpec& spec) const {
  if (catalog_ == nullptr) {
    return Status::FailedPrecondition("executor has no catalog");
  }
  ISLA_ASSIGN_OR_RETURN(std::shared_ptr<const storage::Table> table,
                        catalog_->GetTable(spec.table));
  ISLA_ASSIGN_OR_RETURN(const storage::Column* column,
                        table->GetColumn(spec.column));

  core::IslaOptions options = base_options_;
  options.precision = spec.precision;
  options.confidence = spec.confidence;
  ISLA_RETURN_NOT_OK(options.Validate());

  QueryResult out;
  out.aggregate = spec.aggregate;
  out.method = spec.method;
  Timer timer;

  // Predicated, grouped, COUNT, and sketch-backed queries run the
  // shared-scan grouped pipeline: one sampling pass feeds every group's
  // accumulator (and, for MEDIAN/QUANTILE/HISTOGRAM, its sketch).
  if (spec.where.has_value() || !spec.group_by.empty() ||
      spec.aggregate == AggregateKind::kCount ||
      IsSketchAggregate(spec.aggregate)) {
    core::GroupedSpec grouped;
    grouped.values = column;
    if (spec.where.has_value()) {
      ISLA_ASSIGN_OR_RETURN(grouped.predicate,
                            table->GetColumn(spec.where->column));
      grouped.op = spec.where->op;
      grouped.literal = spec.where->literal;
    }
    if (!spec.group_by.empty()) {
      ISLA_ASSIGN_OR_RETURN(grouped.keys, table->GetColumn(spec.group_by));
    }
    grouped.want_sketch = IsSketchAggregate(spec.aggregate);
    if (spec.aggregate == AggregateKind::kMedian ||
        spec.aggregate == AggregateKind::kQuantile) {
      grouped.summary.quantile_q = spec.quantile_q;
    }
    if (spec.aggregate == AggregateKind::kHistogram) {
      grouped.summary.histogram_bins = spec.histogram_bins;
    }
    grouped.summary.top_k = spec.top_k;

    core::GroupedAggregateResult agg;
    switch (spec.method) {
      case Method::kExact: {
        runtime::ScratchPool::Lease lease = scratch_pool_.Acquire();
        ISLA_ASSIGN_OR_RETURN(agg,
                              ExactGroupedScan(grouped, options, lease.get()));
        break;
      }
      case Method::kIsla:
      case Method::kIslaNonIid:
      case Method::kUniform: {
        if (scheduler_ != nullptr) {
          // The scheduler consults its pilot/result caches and runs
          // identical in-flight statements once; the result bytes match
          // the GroupByEngine path below exactly.
          ISLA_ASSIGN_OR_RETURN(
              agg, scheduler_->Execute(grouped, options,
                                       GroupedMethodSalt(spec.method)));
        } else {
          core::GroupByEngine engine(options, &scratch_pool_);
          ISLA_ASSIGN_OR_RETURN(
              agg, engine.Aggregate(grouped, GroupedMethodSalt(spec.method)));
        }
        out.samples_used = agg.scanned_samples + agg.pilot_samples;
        break;
      }
      default:
        return Status::InvalidArgument(
            "method '" + std::string(MethodName(spec.method)) +
            "' does not support WHERE/GROUP BY/COUNT");
    }

    if (spec.group_by.empty()) {
      if (!agg.groups.empty()) {
        out.value =
            QueryResult::GroupValue(agg.groups.front(), spec.aggregate);
      } else if (spec.aggregate == AggregateKind::kCount) {
        out.value = 0.0;  // an empty match set genuinely has count 0
      } else {
        // AVG/SUM over an empty match set has no answer; NaN keeps the
        // empty-match case distinguishable from a true mean of 0.
        out.value = std::numeric_limits<double>::quiet_NaN();
      }
    }
    out.grouped = std::move(agg);
    out.elapsed_millis = timer.ElapsedMillis();
    return out;
  }

  // Decorrelate the RNG streams of different methods so that e.g. uniform
  // and stratified runs in the same session do not consume identical
  // sample sequences.
  const uint64_t method_seed = SplitMix64::Hash(
      options.seed, static_cast<uint64_t>(spec.method) + 0x5eedULL);

  double average = 0.0;
  switch (spec.method) {
    case Method::kIsla: {
      core::IslaEngine engine(options, &scratch_pool_);
      // AggregateSum returns the SUM-shaped result (value == sum), so the
      // epilogue's AVG→SUM rescale reproduces agg.value bit-for-bit.
      ISLA_ASSIGN_OR_RETURN(core::AggregateResult agg,
                            spec.aggregate == AggregateKind::kSum
                                ? engine.AggregateSum(*column)
                                : engine.AggregateAvg(*column));
      average = agg.average;
      out.samples_used = agg.total_samples + agg.pilot_samples;
      out.isla_details = std::move(agg);
      break;
    }
    case Method::kIslaNonIid: {
      ISLA_ASSIGN_OR_RETURN(core::AggregateResult agg,
                            core::AggregateAvgNonIid(*column, options));
      if (spec.aggregate == AggregateKind::kSum) agg.value = agg.sum;
      average = agg.average;
      out.samples_used = agg.total_samples + agg.pilot_samples;
      out.isla_details = std::move(agg);
      break;
    }
    case Method::kUniform: {
      ISLA_ASSIGN_OR_RETURN(
          uint64_t m, BaselineSampleSize(*column, options, &scratch_pool_));
      ISLA_ASSIGN_OR_RETURN(
          baselines::BaselineResult r,
          baselines::UniformSamplingAvg(*column, m, method_seed));
      average = r.average;
      out.samples_used = r.samples_used;
      break;
    }
    case Method::kStratified: {
      ISLA_ASSIGN_OR_RETURN(
          uint64_t m, BaselineSampleSize(*column, options, &scratch_pool_));
      ISLA_ASSIGN_OR_RETURN(
          baselines::BaselineResult r,
          baselines::StratifiedSamplingAvg(*column, m, method_seed));
      average = r.average;
      out.samples_used = r.samples_used;
      break;
    }
    case Method::kMv: {
      ISLA_ASSIGN_OR_RETURN(
          uint64_t m, BaselineSampleSize(*column, options, &scratch_pool_));
      ISLA_ASSIGN_OR_RETURN(
          baselines::BaselineResult r,
          baselines::MeasureBiasedAvg(*column, m, method_seed));
      average = r.average;
      out.samples_used = r.samples_used;
      break;
    }
    case Method::kMvb: {
      ISLA_ASSIGN_OR_RETURN(
          uint64_t m, BaselineSampleSize(*column, options, &scratch_pool_));
      ISLA_ASSIGN_OR_RETURN(
          core::DataBoundaries boundaries,
          baselines::PilotBoundaries(*column, options.sigma_pilot_size,
                                     options.p1, options.p2, method_seed));
      ISLA_ASSIGN_OR_RETURN(baselines::BaselineResult r,
                            baselines::MeasureBiasedBoundariesAvg(
                                *column, m, boundaries, method_seed));
      average = r.average;
      out.samples_used = r.samples_used;
      break;
    }
    case Method::kExact: {
      ISLA_ASSIGN_OR_RETURN(average, ExactAvg(*column));
      out.samples_used = 0;
      break;
    }
  }

  // The ISLA paths already produced the aggregate-shaped answer in
  // AggregateResult::value; only the baselines (which report a bare AVG)
  // need the AVG→SUM rescale.
  if (out.isla_details.has_value()) {
    out.value = out.isla_details->value;
  } else {
    out.value = spec.aggregate == AggregateKind::kSum
                    ? average * static_cast<double>(column->num_rows())
                    : average;
  }
  out.elapsed_millis = timer.ElapsedMillis();
  return out;
}

}  // namespace engine
}  // namespace isla
