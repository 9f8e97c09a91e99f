#include "core/online.h"

#include "core/summarizer.h"
#include "runtime/kernels/kernels.h"
#include "sampling/samplers.h"

namespace isla {
namespace core {

OnlineAggregator::OnlineAggregator(const storage::Column* column,
                                   IslaOptions options)
    : column_(column),
      options_(options),
      rng_(SplitMix64::Hash(options.seed, 0x0e11e)) {}

Result<AggregateResult> OnlineAggregator::Start() {
  if (started_) {
    return Status::FailedPrecondition("Start() may only be called once");
  }
  if (column_ == nullptr || column_->num_rows() == 0) {
    return Status::FailedPrecondition("cannot aggregate an empty column");
  }
  ISLA_RETURN_NOT_OK(options_.Validate());

  ISLA_ASSIGN_OR_RETURN(pilot_, RunPreEstimation(*column_, options_, &rng_));
  if (!(pilot_.sigma > 0.0)) {
    return Status::FailedPrecondition(
        "online mode requires non-constant data");
  }
  shift_ = ComputeShift(pilot_.min_value, pilot_.sigma);
  sketch0_shifted_ = pilot_.sketch0 + shift_;
  sketch_ = {pilot_.sketch_pilot_samples, pilot_.sketch0, 0.0};
  block_params_.resize(column_->num_blocks());
  for (size_t j = 0; j < column_->num_blocks(); ++j) {
    block_params_[j].block_rows = column_->blocks()[j]->size();
  }
  started_ = true;
  current_precision_ = options_.precision;
  return SampleAndSolve(pilot_.target_sample_size);
}

Result<AggregateResult> OnlineAggregator::Refine(double new_precision) {
  if (!started_) {
    return Status::FailedPrecondition("call Start() before Refine()");
  }
  if (!(new_precision > 0.0 && new_precision < current_precision_)) {
    return Status::InvalidArgument(
        "refinement precision must be positive and tighter than the current "
        "precision");
  }
  IslaOptions refined = options_;
  refined.precision = new_precision;
  ISLA_ASSIGN_OR_RETURN(
      SampleSizes sizes,
      PlanSampleSizes(pilot_.sigma, refined, column_->num_rows()));
  const uint64_t additional =
      sizes.target > total_samples_ ? sizes.target - total_samples_ : 0;
  current_precision_ = new_precision;
  options_ = refined;  // Tightens the iteration threshold.

  // Top up the sketch pilot to the new relaxed precision t_e·e, each block
  // on its own stream of a fresh phase seed.
  if (sizes.sketch_pilot > sketch_.n) {
    const std::vector<uint64_t> alloc = sampling::ProportionalAllocation(
        column_->BlockSizes(), sizes.sketch_pilot - sketch_.n);
    const uint64_t phase_seed = rng_.Next();
    for (size_t j = 0; j < column_->num_blocks(); ++j) {
      ISLA_ASSIGN_OR_RETURN(
          PilotDraw draw,
          DrawBlockPilot(*column_->blocks()[j], alloc[j], phase_seed, j));
      sketch_.Merge(draw.moments);
    }
  }
  return SampleAndSolve(additional);
}

Result<AggregateResult> OnlineAggregator::CurrentAnswer() const {
  if (!started_) {
    return Status::FailedPrecondition("call Start() first");
  }
  return Solve();
}

Result<AggregateResult> OnlineAggregator::SampleAndSolve(
    uint64_t additional_samples) {
  ISLA_ASSIGN_OR_RETURN(
      DataBoundaries boundaries,
      DataBoundaries::Create(sketch0_shifted_, pilot_.sigma, options_.p1,
                             options_.p2));
  std::vector<uint64_t> alloc = sampling::ProportionalAllocation(
      column_->BlockSizes(), additional_samples);
  for (size_t j = 0; j < column_->num_blocks(); ++j) {
    if (alloc[j] == 0) continue;
    BlockParams round;
    ISLA_RETURN_NOT_OK(RunSamplingPhase(*column_->blocks()[j], boundaries,
                                        alloc[j], shift_, &rng_, &round));
    round.block_rows = block_params_[j].block_rows;
    block_params_[j].Merge(round);
    total_samples_ += round.samples_drawn;
  }
  return Solve();
}

Result<AggregateResult> OnlineAggregator::Solve() const {
  AggregateResult res;
  res.data_size = column_->num_rows();
  res.precision = current_precision_;
  res.confidence = options_.confidence;
  res.sigma_estimate = pilot_.sigma;
  res.sketch0 = sketch_.mean;  // the pilot pooled with every top-up
  res.shift = shift_;
  res.pilot_samples = pilot_.sigma_pilot_samples + pilot_.sketch_pilot_samples;
  res.total_samples = total_samples_;
  res.kernel_dispatch = runtime::kernels::ActiveLevelName();

  const double sketch_iter = sketch_.mean + shift_;

  std::vector<double> partials;
  std::vector<uint64_t> partial_sizes;
  for (size_t j = 0; j < block_params_.size(); ++j) {
    ISLA_ASSIGN_OR_RETURN(
        BlockAnswer answer,
        RunIterationPhase(block_params_[j], sketch_iter, options_));
    BlockReport report;
    report.block_index = j;
    report.block_rows = block_params_[j].block_rows;
    report.samples_drawn = block_params_[j].samples_drawn;
    report.answer = answer;
    res.blocks.push_back(report);
    partials.push_back(answer.avg);
    partial_sizes.push_back(block_params_[j].block_rows);
  }
  ISLA_ASSIGN_OR_RETURN(double avg_shifted,
                        SummarizePartials(partials, partial_sizes));
  res.average = avg_shifted - shift_;
  res.sum = res.average * static_cast<double>(res.data_size);
  res.value = res.average;
  return res;
}

}  // namespace core
}  // namespace isla
