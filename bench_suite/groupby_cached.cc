// groupby_cached: compute-bound grouped scan on cache-resident data.
//
// Value, predicate and key columns of 4 memory blocks x 8K rows each
// (768 KiB, inside one core's L2); 16 uniform keys, values a per-key offset
// plus N(0, 20^2) noise. One caller runs GroupByEngine::Aggregate for
// AVG(value) WHERE p >= 0.25 GROUP BY k WITHIN 1.5, parallelism 1, pooled
// scratch (~23K of the 32K rows sampled per query). Gathers are cheap here;
// index generation, predicate masks, compaction and group routing dominate
// — so a storage change should leave this workload flat. It is the control
// for avg_dram.
//
// One thread on L2-resident data keeps the workload off what a shared host
// contends for: pool wake-ups on other vCPUs and neighbours' L3 traffic
// would otherwise set its run-to-run spread.

#include <memory>
#include <optional>
#include <vector>

#include "core/group_by.h"
#include "runtime/parallel_for.h"
#include "runtime/scratch_arena.h"
#include "sampling/samplers.h"
#include "suite.h"
#include "util/rng.h"

namespace suite {
namespace {

using namespace isla;

constexpr uint64_t kBlocks = 4;
constexpr uint64_t kRowsPerBlock = 8 * 1024;
constexpr double kLiteral = 0.25;
constexpr double kPrecision = 1.5;
constexpr uint32_t kParallelism = 1;
// ~0.25 s of queries: long enough that first-touch and cold-cache costs of
// a fresh copy of the columns do not dominate setup_s.
constexpr uint64_t kWarmupQueries = 300;
constexpr uint64_t kCheckedQueries = 500;  // x16 group answers

struct System {
  runtime::ScratchPool pool;
  std::unique_ptr<GroupedColumns> columns;
  core::GroupedSpec spec;
};

core::IslaOptions EngineOptions() {
  core::IslaOptions options;
  options.precision = kPrecision;
  options.parallelism = kParallelism;
  return options;
}

std::unique_ptr<System> SetUp(const GroupedData& data,
                              const SuiteOptions& options) {
  auto sys = std::make_unique<System>();
  sys->columns = CopyColumns(data);
  sys->spec.values = &sys->columns->values;
  sys->spec.predicate = &sys->columns->predicate;
  sys->spec.op = core::PredicateOp::kGe;
  sys->spec.literal = kLiteral;
  sys->spec.keys = &sys->columns->keys;
  core::GroupByEngine engine(EngineOptions(), &sys->pool);
  for (uint64_t w = 0; w < kWarmupQueries; ++w) {
    (void)engine.Aggregate(sys->spec, Mix(options.seed ^ kWarmupDomain, w));
  }
  return sys;
}

/// GroupByEngine::Aggregate rebuilt from its public steps, with a span
/// around each: pilot RunGroupedBlockPass per block -> Merge ->
/// PlanGroupedScan -> main pass -> Merge -> SummarizeGroups.
/// `matched`/`scanned` accumulate main-pass rows routed to a group and rows
/// scanned (core.match_ratio).
Result<core::GroupedAggregateResult> TracedAggregate(
    const core::GroupedSpec& spec, const core::IslaOptions& opts,
    runtime::ScratchPool* pool, uint64_t salt, uint64_t query, Trace* trace,
    uint64_t* matched, uint64_t* scanned) {
  ISLA_RETURN_NOT_OK(core::ValidateGroupedSpec(spec));
  const int64_t root = trace->Begin("query", query, -1);
  const storage::Column& values = *spec.values;
  const size_t n = values.num_blocks();
  std::vector<uint64_t> sizes;
  for (const auto& b : values.blocks()) sizes.push_back(b->size());

  auto run_phase = [&](const char* block_name, uint64_t phase_salt,
                       const std::vector<uint64_t>& alloc,
                       core::GroupedBlockPartial* merged) -> Status {
    std::vector<core::GroupedBlockPartial> partials(n);
    const int64_t phase = trace->Begin("runtime.phase", query, root);
    Status st = runtime::ParallelFor(
        n, opts.parallelism, [&](uint64_t j) -> Status {
          const int64_t span = trace->Begin(block_name, query, phase);
          Xoshiro256 rng(SplitMix64::Hash(opts.seed, salt ^ phase_salt, j));
          runtime::ScratchPool::Lease lease = pool->Acquire();
          ISLA_RETURN_NOT_OK(core::RunGroupedBlockPass(
              *values.blocks()[j], spec.predicate->blocks()[j].get(), spec.op,
              spec.literal, spec.keys->blocks()[j].get(), alloc[j], &rng,
              &partials[j], lease.get(), /*want_sketch=*/false));
          trace->End(span, partials[j].scanned);
          return Status::OK();
        });
    trace->End(phase);
    ISLA_RETURN_NOT_OK(st);
    const int64_t merge = trace->Begin("core.merge", query, root);
    for (const core::GroupedBlockPartial& partial : partials) {
      ISLA_RETURN_NOT_OK(merged->Merge(partial));
    }
    trace->End(merge);
    return Status::OK();
  };

  const uint64_t pilot_size =
      std::min<uint64_t>(opts.sigma_pilot_size, values.num_rows());
  core::GroupedBlockPartial pilot_merged;
  ISLA_RETURN_NOT_OK(run_phase(
      "core.pilot", core::kGroupPilotSalt,
      sampling::ProportionalAllocation(sizes, pilot_size), &pilot_merged));
  core::GroupedPilot pilot;
  pilot.pilot_samples = pilot_merged.scanned;
  pilot.all = pilot_merged.all;
  pilot.groups = std::move(pilot_merged.groups);

  const int64_t plan = trace->Begin("core.plan", query, root);
  ISLA_ASSIGN_OR_RETURN(
      uint64_t scan, core::PlanGroupedScan(pilot, opts, values.num_rows()));
  trace->End(plan);
  core::GroupedBlockPartial main_merged;
  if (scan > 0) {
    ISLA_RETURN_NOT_OK(run_phase("core.sample", core::kGroupCalcSalt,
                                 sampling::ProportionalAllocation(sizes, scan),
                                 &main_merged));
  }
  *matched += main_merged.all.n;
  *scanned += main_merged.scanned;

  const int64_t summarize = trace->Begin("core.summarize", query, root);
  ISLA_ASSIGN_OR_RETURN(
      core::GroupedAggregateResult result,
      core::SummarizeGroups(main_merged.groups, values.num_rows(),
                            main_merged.scanned, pilot.pilot_samples, opts));
  core::ApplyTopK(spec.summary.top_k, &result);
  trace->End(summarize);
  trace->End(root);
  return result;
}

}  // namespace

void RunGroupbyCached(const SuiteOptions& options, Report* report) {
  const double prep_t0 = NowMicros();
  const GroupedData data =
      MakeGroupedData(options.seed, kBlocks, kRowsPerBlock, kLiteral);
  report->Metric("prep_s", (NowMicros() - prep_t0) / 1e6, "s");

  std::vector<double> setup_s;
  auto timed_setup = [&] {
    const double t0 = NowMicros();
    std::unique_ptr<System> s = SetUp(data, options);
    setup_s.push_back((NowMicros() - t0) / 1e6);
    return s;
  };
  std::unique_ptr<System> sys;
  for (int rep = 0; rep < kSetupRepsBefore; ++rep) {
    sys.reset();
    sys = timed_setup();
  }

  const core::IslaOptions opts = EngineOptions();
  core::GroupByEngine engine(opts, &sys->pool);
  const uint64_t checked = options.Scaled(kCheckedQueries);
  AccuracyTally accuracy;

  if (!options.traced()) {
    LoopResult loop = ClosedLoop(options.seconds, checked, [&](uint64_t i) {
      auto r = engine.Aggregate(sys->spec, Mix(options.seed, i));
      if (!r.ok()) return false;
      CheckGrouped(*r, data.exact_group_means, kPrecision, i, report,
                   i < checked ? &accuracy : nullptr);
      return true;
    });
    sys.reset();
    for (int rep = 0; rep < kSetupRepsAfter; ++rep) (void)timed_setup();
    report->EndToEnd(setup_s, loop, accuracy);
    return;
  }

  // Each salt runs through the engine and through the traced rebuild,
  // which should reproduce it bit for bit.
  Trace trace;
  std::vector<double> untraced_ms, traced_ms;
  std::optional<core::GroupedAggregateResult> answers[2];  // [traced]
  uint64_t matched = 0, scanned = 0, diverged = 0;
  LoopResult loop = ClosedLoop(options.seconds, 2, [&](uint64_t i) {
    const uint64_t salt = Mix(options.seed, i / 2);
    const bool traced = TracedTurn(i);
    if (i % 2 == 0) answers[0] = answers[1] = std::nullopt;
    const double t0 = NowMicros();
    auto r = traced ? TracedAggregate(sys->spec, opts, &sys->pool, salt, i / 2,
                                      &trace, &matched, &scanned)
                    : engine.Aggregate(sys->spec, salt);
    (traced ? traced_ms : untraced_ms).push_back((NowMicros() - t0) / 1000.0);
    if (!r.ok()) return false;
    answers[traced] = *std::move(r);
    if (answers[0] && answers[1] && !SameGrouped(*answers[0], *answers[1])) {
      ++diverged;
    }
    return true;
  });
  std::map<std::string, double> layers = PipelineLayerMetrics(trace.spans());
  // At parallelism 1 ParallelFor runs its blocks inline, one after another:
  // there is no join to wait on and no skew between threads.
  layers.erase("runtime.block_skew");
  layers.erase("runtime.join_wait_ms");
  layers["core.match_ratio"] =
      scanned == 0
          ? 0.0
          : static_cast<double>(matched) / static_cast<double>(scanned);
  DropDivergedRebuild(diverged, &layers, report);
  layers["trace_overhead"] = TraceOverhead(traced_ms, untraced_ms);
  layers["storage.gather_ns_per_row"] =
      ProbeGatherNsPerRow(sys->columns->values, 1u << 21, options.seed);
  layers["sampling.index_ns_per_row"] =
      ProbeIndexNsPerRow(kRowsPerBlock, 1u << 22, options.seed);
  report->Layers(layers, loop);
  if (!trace.Write(options.trace_path)) {
    report->Fail("cannot write trace " + options.trace_path);
  }
}

}  // namespace suite
