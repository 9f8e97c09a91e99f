#include "core/engine.h"

#include "core/summarizer.h"
#include "runtime/kernels/kernels.h"
#include "runtime/parallel_for.h"
#include "sampling/samplers.h"
#include "util/rng.h"

namespace isla {
namespace core {

Result<AggregateResult> IslaEngine::AggregateAvg(const storage::Column& column,
                                                 uint64_t seed_salt) const {
  ISLA_RETURN_NOT_OK(options_.Validate());
  if (column.num_rows() == 0) {
    return Status::FailedPrecondition("cannot aggregate an empty column");
  }

  Xoshiro256 rng(SplitMix64::Hash(options_.seed, seed_salt));

  // --- Pre-estimation module ---
  ISLA_ASSIGN_OR_RETURN(PilotEstimate pilot,
                        RunPreEstimation(column, options_, &rng, scratch_));

  AggregateResult res;
  res.data_size = column.num_rows();
  res.precision = options_.precision;
  res.confidence = options_.confidence;
  res.sigma_estimate = pilot.sigma;
  res.pilot_samples = pilot.sigma_pilot_samples + pilot.sketch_pilot_samples;
  // Record which kernel tier the pilot and Calculation inner loops ran on
  // (index generation, region classification, gathers) so perf reports can
  // attribute rows/sec to the silicon actually used.
  res.kernel_dispatch = runtime::kernels::ActiveLevelName();

  // Constant data short-circuits: the pilot mean is exact.
  if (!(pilot.sigma > 0.0)) {
    res.average = pilot.sketch0;
    res.sketch0 = pilot.sketch0;
    res.sum = res.average * static_cast<double>(res.data_size);
    res.value = res.average;
    return res;
  }

  const double shift = ComputeShift(pilot.min_value, pilot.sigma);
  res.shift = shift;
  const double sketch0 = pilot.sketch0 + shift;
  res.sketch0 = pilot.sketch0;

  ISLA_ASSIGN_OR_RETURN(
      DataBoundaries boundaries,
      DataBoundaries::Create(sketch0, pilot.sigma, options_.p1, options_.p2));

  // --- Calculation module: per-block sampling + iteration, executed
  // concurrently across blocks. Each block owns an independent RNG stream
  // derived from (seed, salt, block index), so the partials — and therefore
  // the final answer — are bit-identical for every parallelism setting.
  const size_t num_blocks = column.num_blocks();
  std::vector<uint64_t> alloc = sampling::ProportionalAllocation(
      column.BlockSizes(), pilot.target_sample_size);

  std::vector<BlockReport> reports(num_blocks);
  ISLA_RETURN_NOT_OK(runtime::ParallelFor(
      num_blocks, options_.parallelism, [&](uint64_t j) -> Status {
        Xoshiro256 block_rng(SplitMix64::Hash(
            options_.seed, seed_salt ^ kCalcPhaseSalt, j));
        // Arenas come from the shared pool when the caller wired one in
        // (the steady-state allocation-free path); otherwise a per-block
        // local arena keeps the code path identical.
        runtime::ScratchPool::Lease lease;
        if (scratch_ != nullptr) lease = scratch_->Acquire();
        BlockParams params;
        ISLA_RETURN_NOT_OK(RunSamplingPhase(*column.blocks()[j], boundaries,
                                            alloc[j], shift, &block_rng,
                                            &params, lease.get()));
        ISLA_ASSIGN_OR_RETURN(BlockAnswer answer,
                              RunIterationPhase(params, sketch0, options_));
        reports[j].block_index = j;
        reports[j].block_rows = params.block_rows;
        reports[j].samples_drawn = params.samples_drawn;
        reports[j].answer = answer;
        return Status::OK();
      }));

  // Deterministic merge in block order.
  std::vector<double> partials;
  std::vector<uint64_t> partial_sizes;
  partials.reserve(num_blocks);
  partial_sizes.reserve(num_blocks);
  for (const BlockReport& report : reports) {
    res.total_samples += report.samples_drawn;
    partials.push_back(report.answer.avg);
    partial_sizes.push_back(report.block_rows);
  }
  res.blocks = std::move(reports);

  // --- Summarization module ---
  ISLA_ASSIGN_OR_RETURN(double avg_shifted,
                        SummarizePartials(partials, partial_sizes));
  res.average = avg_shifted - shift;
  res.sum = res.average * static_cast<double>(res.data_size);
  res.value = res.average;
  return res;
}

Result<AggregateResult> IslaEngine::AggregateSum(const storage::Column& column,
                                                 uint64_t seed_salt) const {
  ISLA_ASSIGN_OR_RETURN(AggregateResult res,
                        AggregateAvg(column, seed_salt));
  res.value = res.sum;
  return res;
}

}  // namespace core
}  // namespace isla
