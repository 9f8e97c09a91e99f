#ifndef ISLA_SAMPLING_SAMPLERS_H_
#define ISLA_SAMPLING_SAMPLERS_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/status.h"
#include "runtime/scratch_arena.h"
#include "storage/block.h"
#include "util/rng.h"

namespace isla {
namespace sampling {

/// Splits a total sample budget `m` across strata proportionally to their
/// sizes, using the largest-remainder method so the parts sum exactly to m.
/// This implements the paper's "sample size proportional to the block size"
/// pilot allocation (§III).
std::vector<uint64_t> ProportionalAllocation(
    const std::vector<uint64_t>& sizes, uint64_t m);

/// Neyman (optimal) allocation: n_h ∝ N_h·σ_h. Used by the stratified
/// baseline when per-stratum deviations are available. Falls back to
/// proportional when all σ are 0.
std::vector<uint64_t> NeymanAllocation(const std::vector<uint64_t>& sizes,
                                       const std::vector<double>& sigmas,
                                       uint64_t m);

/// Index batch size for the gather path below: virtual dispatch, bounds
/// checks, and (for file blocks) seek ordering are paid once per
/// kGatherBatch samples instead of once per sample.
inline constexpr uint64_t kGatherBatch = 4096;

/// Fills `out` (resized to `count`) with uniform indices in [0, n), drawn
/// with replacement in sequence order. Exactly `count` NextBounded(n) calls
/// — the single definition of the index stream every sampler consumes, so
/// batched and value-at-a-time execution see identical RNG state. With n in
/// the billions and count ≪ n, sampling with and without replacement are
/// statistically indistinguishable, and with replacement needs no state.
void GenerateUniformIndices(uint64_t n, uint64_t count, Xoshiro256* rng,
                            std::vector<uint64_t>* out);

/// Batch iterator over `k` uniform (with replacement) samples of a block:
/// each Next() draws the next <= kGatherBatch indices, gathers them with
/// one Block::GatherAt call into the scratch arena, and exposes the batch
/// as a span valid until the following Next(). The concatenated batches
/// are exactly the sample sequence a value-at-a-time loop would visit —
/// same RNG consumption, same order — so callers iterate spans instead of
/// paying a per-value std::function call, and a warmed arena makes
/// iteration allocation-free.
class BlockSampleStream {
 public:
  /// `scratch` may be null: the stream then uses an internal arena (one
  /// warm-up allocation per stream; pass pooled scratch on hot paths).
  BlockSampleStream(const storage::Block& block, uint64_t k, Xoshiro256* rng,
                    runtime::ScratchArena* scratch);

  /// Fills the next batch; empty when the stream is exhausted.
  Status Next(std::span<const double>* batch);

 private:
  const storage::Block& block_;
  uint64_t n_;
  uint64_t remaining_;
  Xoshiro256* rng_;
  runtime::ScratchArena local_;
  runtime::ScratchArena* scratch_;
};

/// Draws `k` uniform (with replacement) values from `block`, invoking
/// `visit` per value. The visitation order is the sampling order, which the
/// streaming ISLA solver consumes directly. Implemented over
/// BlockSampleStream, so the RNG stream and visit order are identical to
/// the batch API. Secondary paths (baselines, pilots on cold arenas) use
/// this; the Calculation-phase hot loops consume the stream directly.
Status SampleBlockValues(const storage::Block& block, uint64_t k,
                         const std::function<void(double)>& visit,
                         Xoshiro256* rng);

}  // namespace sampling
}  // namespace isla

#endif  // ISLA_SAMPLING_SAMPLERS_H_
