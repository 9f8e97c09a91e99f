#ifndef ISLA_SAMPLING_SAMPLERS_H_
#define ISLA_SAMPLING_SAMPLERS_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "runtime/scratch_arena.h"
#include "storage/block.h"
#include "util/rng.h"

namespace isla {
namespace sampling {

/// Draws `k` indices uniformly at random *with replacement* from [0, n).
/// This is the paper's uniform sampling primitive: with n in the billions
/// and k ≪ n, with/without replacement are statistically indistinguishable
/// and with-replacement is O(k) with O(1) state.
std::vector<uint64_t> SampleIndicesWithReplacement(uint64_t n, uint64_t k,
                                                   Xoshiro256* rng);

/// Draws `k` distinct indices uniformly from [0, n) using Robert Floyd's
/// algorithm (O(k) expected). Fails when k > n.
Result<std::vector<uint64_t>> SampleIndicesWithoutReplacement(
    uint64_t n, uint64_t k, Xoshiro256* rng);

/// Streams a Bernoulli(p) subset of [0, n) using geometric skip sampling:
/// expected O(np) work independent of n's magnitude. Invokes `emit` for each
/// selected index in increasing order.
Status BernoulliSample(uint64_t n, double p,
                       const std::function<void(uint64_t)>& emit,
                       Xoshiro256* rng);

/// Classic reservoir sampler: retains a uniform k-subset of a stream of
/// unknown length.
class ReservoirSampler {
 public:
  ReservoirSampler(uint64_t capacity, uint64_t seed);

  /// Offers one stream element.
  void Offer(double value);

  /// Number of elements offered so far.
  uint64_t seen() const { return seen_; }

  /// The current reservoir (size = min(capacity, seen)).
  const std::vector<double>& reservoir() const { return reservoir_; }

 private:
  uint64_t capacity_;
  uint64_t seen_ = 0;
  std::vector<double> reservoir_;
  Xoshiro256 rng_;
};

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
/// batched and value-at-a-time execution see identical RNG state.
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

/// Convenience: materializes `k` uniform samples from `block`.
Result<std::vector<double>> DrawBlockSample(const storage::Block& block,
                                            uint64_t k, Xoshiro256* rng);

/// Batch analogue of DrawBlockSample writing into caller-owned storage:
/// fills `out` (resized to k) with the identical sample sequence, using
/// `scratch` (nullable) for the index batches. Steady state allocates
/// nothing beyond `out`'s capacity.
Status DrawBlockSampleInto(const storage::Block& block, uint64_t k,
                           Xoshiro256* rng, runtime::ScratchArena* scratch,
                           std::vector<double>* out);

}  // namespace sampling
}  // namespace isla

#endif  // ISLA_SAMPLING_SAMPLERS_H_
