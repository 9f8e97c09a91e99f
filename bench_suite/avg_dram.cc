// avg_dram: storage-bound ungrouped AVG on data far larger than cache.
//
// 64M rows of N(100, 20^2) in 8 ISLB shard files (512 MiB, about 5x the
// 105 MiB L3 the suite was sized on), opened with FileBlock::Open (mmap).
// One caller runs IslaEngine::AggregateAvg at e = 0.05, parallelism 4, in a
// closed loop; each query samples ~615K rows, so random gathers from DRAM
// dominate. This is the workload that shows gains from gather prefetch or
// a parallel pilot; groupby_cached is its cache-resident control.

#include <bit>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/block_solver.h"
#include "core/boundaries.h"
#include "core/engine.h"
#include "core/pre_estimation.h"
#include "core/summarizer.h"
#include "runtime/parallel_for.h"
#include "runtime/scratch_arena.h"
#include "sampling/samplers.h"
#include "storage/file_block.h"
#include "suite.h"
#include "util/rng.h"

namespace suite {
namespace {

using namespace isla;

constexpr uint64_t kRows = 64ull << 20;
constexpr uint64_t kFiles = 8;
constexpr double kPrecision = 0.05;
constexpr uint32_t kParallelism = 4;
constexpr uint64_t kWarmupQueries = 5;
// Checked prefix: ~12 s of queries on the machine the suite was sized on.
constexpr uint64_t kCheckedQueries = 2500;

// IslaEngine's private Calculation-phase salt and negative-data shift
// (core/engine.cc), mirrored so the traced rebuild reproduces
// AggregateAvg bit for bit. When the engine changes them, the rebuild
// diverges and the traced run drops its core.* and runtime.* numbers.
constexpr uint64_t kCalcPhaseSalt = 0xca1cULL;

double ComputeShift(double min_value, double sigma) {
  if (min_value > 0.0) return 0.0;
  return -min_value + 3.0 * sigma + 1.0;
}

/// The shard files of one run, in a directory of its own so concurrent runs
/// never share (or truncate) a mapped file; removed when the run ends on any
/// path.
struct Dataset {
  std::string dir;
  std::vector<std::string> paths;
  double exact_mean = 0.0;

  Dataset() = default;
  Dataset(const Dataset&) = delete;
  Dataset& operator=(const Dataset&) = delete;
  ~Dataset() {
    if (dir.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

/// Writes the shard files (input generation: not part of set-up time).
void Prepare(const SuiteOptions& options, uint64_t rows, Dataset* out,
             Report* report) {
  std::error_code ec;
  std::filesystem::create_directories(options.data_dir, ec);
  std::string dir = options.data_dir + "/avg_dram-XXXXXX";
  if (::mkdtemp(dir.data()) == nullptr) {
    report->Fail("cannot create a data directory in " + options.data_dir);
    return;
  }
  out->dir = dir;
  ExactSum sum;
  std::vector<double> buffer(rows / kFiles);
  for (uint64_t f = 0; f < kFiles; ++f) {
    InputRng rng(Mix(options.seed, f));
    for (double& v : buffer) {
      v = rng.Normal(100.0, 20.0);
      sum.Add(v);
    }
    std::string path = dir + "/" + std::to_string(f) + ".islb";
    Status s = storage::WriteBlockFile(path, buffer);
    if (!s.ok()) report->Fail("cannot write " + path + ": " + s.ToString());
    out->paths.push_back(std::move(path));
  }
  out->exact_mean = sum.Total() / static_cast<double>(buffer.size() * kFiles);
}

/// Everything set-up builds; rebuilt from scratch by every repetition.
struct System {
  runtime::ScratchPool pool;
  storage::Column column{"value"};
  double open_ms = 0.0;
};

core::IslaOptions EngineOptions() {
  core::IslaOptions options;
  options.precision = kPrecision;
  options.parallelism = kParallelism;
  return options;
}

std::unique_ptr<System> SetUp(const Dataset& data, const SuiteOptions& options,
                              Report* report) {
  auto sys = std::make_unique<System>();
  const double t0 = NowMicros();
  for (const std::string& path : data.paths) {
    auto block = storage::FileBlock::Open(path);
    if (!block.ok() || !sys->column.AppendBlock(*block).ok()) {
      report->Fail("cannot open " + path);
      return sys;
    }
  }
  sys->open_ms = (NowMicros() - t0) / 1000.0;
  core::IslaEngine engine(EngineOptions(), &sys->pool);
  for (uint64_t w = 0; w < kWarmupQueries; ++w) {
    (void)engine.AggregateAvg(sys->column,
                              Mix(options.seed ^ kWarmupDomain, w));
  }
  return sys;
}

/// AggregateAvg rebuilt from its public steps, with a span around each:
/// RunPreEstimation -> DataBoundaries::Create + ProportionalAllocation ->
/// ParallelFor{RunSamplingPhase, RunIterationPhase} -> block-order merge ->
/// SummarizePartials. `matched`/`drawn` accumulate S+L region rows and rows
/// drawn (core.match_ratio).
Result<double> TracedAggregateAvg(const storage::Column& column,
                                  const core::IslaOptions& opts,
                                  runtime::ScratchPool* pool, uint64_t salt,
                                  uint64_t query, Trace* trace,
                                  uint64_t* matched, uint64_t* drawn) {
  const int64_t root = trace->Begin("query", query, -1);
  Xoshiro256 rng(SplitMix64::Hash(opts.seed, salt));
  core::PilotEstimate pilot;
  {
    const int64_t span = trace->Begin("core.pilot", query, root);
    runtime::ScratchPool::Lease lease = pool->Acquire();
    ISLA_ASSIGN_OR_RETURN(
        pilot, core::RunPreEstimation(column, opts, &rng, lease.get()));
    trace->End(span, pilot.sigma_pilot_samples + pilot.sketch_pilot_samples);
  }
  if (!(pilot.sigma > 0.0)) {
    trace->End(root);
    return pilot.sketch0;
  }

  const int64_t plan_span = trace->Begin("core.plan", query, root);
  const double shift = ComputeShift(pilot.min_value, pilot.sigma);
  const double sketch0 = pilot.sketch0 + shift;
  ISLA_ASSIGN_OR_RETURN(
      core::DataBoundaries boundaries,
      core::DataBoundaries::Create(sketch0, pilot.sigma, opts.p1, opts.p2));
  const size_t n = column.num_blocks();
  std::vector<uint64_t> sizes;
  for (const auto& b : column.blocks()) sizes.push_back(b->size());
  const std::vector<uint64_t> alloc =
      sampling::ProportionalAllocation(sizes, pilot.target_sample_size);
  trace->End(plan_span);

  std::vector<core::BlockAnswer> answers(n);
  std::vector<core::BlockParams> params(n);
  const int64_t phase = trace->Begin("runtime.phase", query, root);
  Status calc = runtime::ParallelFor(
      n, opts.parallelism, [&](uint64_t j) -> Status {
        const int64_t block_span = trace->Begin("runtime.block", query, phase);
        Xoshiro256 block_rng(
            SplitMix64::Hash(opts.seed, salt ^ kCalcPhaseSalt, j));
        runtime::ScratchPool::Lease lease = pool->Acquire();
        const int64_t sample = trace->Begin("core.sample", query, block_span);
        ISLA_RETURN_NOT_OK(core::RunSamplingPhase(
            *column.blocks()[j], boundaries, alloc[j], shift, &block_rng,
            &params[j], lease.get()));
        trace->End(sample, params[j].samples_drawn);
        const int64_t iterate =
            trace->Begin("core.iterate", query, block_span);
        ISLA_ASSIGN_OR_RETURN(
            answers[j], core::RunIterationPhase(params[j], sketch0, opts));
        trace->End(iterate, answers[j].iterations);
        trace->End(block_span);
        return Status::OK();
      });
  trace->End(phase);
  ISLA_RETURN_NOT_OK(calc);

  const int64_t merge_span = trace->Begin("core.merge", query, root);
  std::vector<double> partials;
  std::vector<uint64_t> partial_sizes;
  for (size_t j = 0; j < n; ++j) {
    partials.push_back(answers[j].avg);
    partial_sizes.push_back(params[j].block_rows);
    *matched += answers[j].s_count + answers[j].l_count;
    *drawn += params[j].samples_drawn;
  }
  trace->End(merge_span);

  const int64_t summarize_span = trace->Begin("core.summarize", query, root);
  ISLA_ASSIGN_OR_RETURN(double avg_shifted,
                        core::SummarizePartials(partials, partial_sizes));
  trace->End(summarize_span);
  trace->End(root);
  return avg_shifted - shift;
}

}  // namespace

void RunAvgDram(const SuiteOptions& options, Report* report) {
  const uint64_t rows = options.quick ? kRows / 16 : kRows;
  const double prep_t0 = NowMicros();
  Dataset data;
  Prepare(options, rows, &data, report);
  report->Metric("prep_s", (NowMicros() - prep_t0) / 1e6, "s");
  if (report->failures() > 0) return;

  std::vector<double> setup_s, open_ms;
  auto timed_setup = [&] {
    const double t0 = NowMicros();
    std::unique_ptr<System> s = SetUp(data, options, report);
    setup_s.push_back((NowMicros() - t0) / 1e6);
    open_ms.push_back(s->open_ms);
    return s;
  };
  std::unique_ptr<System> sys;
  for (int rep = 0; rep < kSetupRepsBefore; ++rep) {
    sys.reset();  // unmaps the previous repetition's files
    sys = timed_setup();
  }
  if (report->failures() > 0) return;

  const core::IslaOptions opts = EngineOptions();
  core::IslaEngine engine(opts, &sys->pool);
  const uint64_t checked = options.Scaled(kCheckedQueries);
  AccuracyTally accuracy;

  if (!options.traced()) {
    LoopResult loop = ClosedLoop(options.seconds, checked, [&](uint64_t i) {
      auto r = engine.AggregateAvg(sys->column, Mix(options.seed, i));
      if (!r.ok()) return false;
      if (!std::isfinite(r->average)) {
        report->Fail("non-finite answer for query " + std::to_string(i));
      }
      if (i < checked) {
        accuracy.Add(r->average, data.exact_mean, kPrecision, kPrecision);
      }
      return true;
    });
    sys.reset();
    for (int rep = 0; rep < kSetupRepsAfter; ++rep) (void)timed_setup();
    report->EndToEnd(setup_s, loop, accuracy);
  } else {
    // Each salt runs through the engine and through the traced rebuild,
    // which should reproduce it bit for bit.
    Trace trace;
    std::vector<double> untraced_ms, traced_ms;
    std::optional<double> answers[2];  // [traced]
    uint64_t matched = 0, drawn = 0, diverged = 0;
    LoopResult loop = ClosedLoop(options.seconds, 2, [&](uint64_t i) {
      const uint64_t salt = Mix(options.seed, i / 2);
      const bool traced = TracedTurn(i);
      if (i % 2 == 0) answers[0] = answers[1] = std::nullopt;
      const double t0 = NowMicros();
      if (traced) {
        auto r = TracedAggregateAvg(sys->column, opts, &sys->pool, salt,
                                    i / 2, &trace, &matched, &drawn);
        traced_ms.push_back((NowMicros() - t0) / 1000.0);
        if (!r.ok()) return false;
        answers[1] = *r;
      } else {
        auto r = engine.AggregateAvg(sys->column, salt);
        untraced_ms.push_back((NowMicros() - t0) / 1000.0);
        if (!r.ok()) return false;
        answers[0] = r->average;
      }
      if (answers[0] && answers[1] &&
          std::bit_cast<uint64_t>(*answers[0]) !=
              std::bit_cast<uint64_t>(*answers[1])) {
        ++diverged;
      }
      return true;
    });
    std::map<std::string, double> layers = PipelineLayerMetrics(trace.spans());
    layers["core.match_ratio"] =
        drawn == 0 ? 0.0
                   : static_cast<double>(matched) / static_cast<double>(drawn);
    DropDivergedRebuild(diverged, &layers, report);
    layers["trace_overhead"] = TraceOverhead(traced_ms, untraced_ms);
    layers["storage.open_ms"] = Median(open_ms);
    layers["storage.gather_ns_per_row"] =
        ProbeGatherNsPerRow(sys->column, 1u << 21, options.seed);
    layers["sampling.index_ns_per_row"] = ProbeIndexNsPerRow(
        sys->column.blocks()[0]->size(), 1u << 22, options.seed);
    report->Layers(layers, loop);
    if (!trace.Write(options.trace_path)) {
      report->Fail("cannot write trace " + options.trace_path);
    }
  }
}

}  // namespace suite
