#include "core/pre_estimation.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "runtime/kernels/kernels.h"
#include "sampling/samplers.h"
#include "stats/confidence.h"

namespace isla {
namespace core {

Result<PilotDraw> DrawBlockPilot(const storage::Block& block, uint64_t count,
                                 uint64_t phase_seed, uint64_t index,
                                 runtime::ScratchArena* scratch) {
  PilotDraw draw;
  count = std::min<uint64_t>(count, block.size());
  if (count == 0) return draw;
  Xoshiro256 rng(SplitMix64::Hash(phase_seed, index));
  sampling::BlockSampleStream stream(block, count, &rng, scratch);
  std::span<const double> batch;
  for (;;) {
    ISLA_RETURN_NOT_OK(stream.Next(&batch));
    if (batch.empty()) break;
    for (double v : batch) draw.moments.Add(v);
    // Min runs as a separate vectorized pass: it is order-insensitive
    // over a batch (NaN-ignoring), so splitting it from the inherently
    // sequential Welford fold costs nothing and vectorizes fully.
    const double batch_min =
        runtime::kernels::Ops().min(batch.data(), batch.size());
    if (batch_min < draw.min_value) draw.min_value = batch_min;
  }
  return draw;
}

uint64_t SigmaPilotShare(const IslaOptions& options, uint64_t n_blocks) {
  return std::max<uint64_t>(
      2, options.sigma_pilot_size / std::max<uint64_t>(1, n_blocks));
}

Result<SampleSizes> PlanSampleSizes(double sigma, const IslaOptions& options,
                                    uint64_t data_size) {
  SampleSizes sizes;
  if (!(sigma > 0.0)) {
    sizes.target = std::min<uint64_t>(2, data_size);
    return sizes;
  }
  ISLA_ASSIGN_OR_RETURN(
      uint64_t m_sketch,
      stats::RequiredSampleSize(sigma,
                                options.sketch_relaxation * options.precision,
                                options.confidence));
  ISLA_ASSIGN_OR_RETURN(
      uint64_t m, stats::RequiredSampleSize(sigma, options.precision,
                                            options.confidence));
  // Table V's r/3 runs scale the main pass only.
  const double scaled =
      std::ceil(static_cast<double>(m) * options.sampling_rate_scale);
  sizes.sketch_pilot = std::min<uint64_t>(m_sketch, data_size);
  sizes.target =
      std::min<uint64_t>(static_cast<uint64_t>(scaled), data_size);
  return sizes;
}

double ComputeShift(double min_value, double sigma) {
  if (min_value > 0.0) return 0.0;
  return -min_value + 3.0 * sigma + 1.0;
}

Result<PilotEstimate> RunPreEstimation(const storage::Column& column,
                                       const IslaOptions& options,
                                       Xoshiro256* rng,
                                       runtime::ScratchArena* scratch) {
  ISLA_RETURN_NOT_OK(options.Validate());
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  if (column.num_rows() == 0) {
    return Status::FailedPrecondition("cannot aggregate an empty column");
  }
  const uint64_t base = rng->Next();
  const size_t n_blocks = column.num_blocks();

  // Draws one phase block by block, merging in block order.
  auto draw_phase =
      [&](uint64_t phase_salt,
          const std::vector<uint64_t>& shares) -> Result<PilotDraw> {
    const uint64_t phase_seed = SplitMix64::Hash(base, phase_salt);
    PilotDraw merged;
    for (size_t j = 0; j < n_blocks; ++j) {
      ISLA_ASSIGN_OR_RETURN(PilotDraw draw,
                            DrawBlockPilot(*column.blocks()[j], shares[j],
                                           phase_seed, j, scratch));
      merged.Merge(draw);
    }
    return merged;
  };

  // Stage 1: σ pilot (system-specified size, §III-A).
  ISLA_ASSIGN_OR_RETURN(
      PilotDraw sigma_draw,
      draw_phase(kSigmaPilotSalt,
                 std::vector<uint64_t>(n_blocks,
                                       SigmaPilotShare(options, n_blocks))));
  PilotEstimate out;
  out.sigma_pilot_samples = sigma_draw.moments.n;
  out.sigma = std::sqrt(sigma_draw.moments.Variance());
  out.min_value = sigma_draw.min_value;
  ISLA_ASSIGN_OR_RETURN(SampleSizes sizes,
                        PlanSampleSizes(out.sigma, options, column.num_rows()));

  // Stage 2: sketch pilot at the relaxed precision t_e·e (§III-B). With a
  // degenerate σ̂ the sketch pilot reuses the σ pilot's mean.
  out.sketch0 = sigma_draw.moments.mean;
  if (out.sigma > 0.0) {
    ISLA_ASSIGN_OR_RETURN(
        PilotDraw sketch_draw,
        draw_phase(kSketchPilotSalt,
                   sampling::ProportionalAllocation(column.BlockSizes(),
                                                    sizes.sketch_pilot)));
    out.sketch_pilot_samples = sketch_draw.moments.n;
    out.sketch0 = sketch_draw.moments.mean;
    out.min_value = std::min(out.min_value, sketch_draw.min_value);
  }

  // Main-pass sizing (Eq. 1), scaled by sampling_rate_scale (Table V's r/3).
  out.target_sample_size = sizes.target;
  out.sampling_rate = static_cast<double>(out.target_sample_size) /
                      static_cast<double>(column.num_rows());
  return out;
}

}  // namespace core
}  // namespace isla
