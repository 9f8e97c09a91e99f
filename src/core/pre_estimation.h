#ifndef ISLA_CORE_PRE_ESTIMATION_H_
#define ISLA_CORE_PRE_ESTIMATION_H_

#include <cstdint>
#include <limits>

#include "common/result.h"
#include "common/status.h"
#include "core/group_by.h"
#include "core/options.h"
#include "runtime/scratch_arena.h"
#include "storage/block.h"
#include "storage/table.h"
#include "util/rng.h"

namespace isla {
namespace core {

/// Domain-separation salts of the three ungrouped sampling phases. Block j
/// of a phase samples on the stream Hash(phase_seed, j), where
///   σ pilot:      phase_seed = Hash(base, kSigmaPilotSalt)
///   sketch pilot: phase_seed = Hash(base, kSketchPilotSalt)
///   Calculation:  phase_seed = Hash(seed, seed_salt ^ kCalcPhaseSalt)
/// and `base` is one draw of the rng IslaEngine::AggregateAvg seeds with
/// Hash(seed, seed_salt). A worker holding block j as shard j replays the
/// block's stream as Hash(request.seed, worker_id), so the distributed
/// coordinator reproduces the single-node answer bit for bit.
inline constexpr uint64_t kSigmaPilotSalt = 0x5167a0ULL;
inline constexpr uint64_t kSketchPilotSalt = 0x5ce7cbULL;
inline constexpr uint64_t kCalcPhaseSalt = 0xca1cULL;

/// One pilot draw: Welford moments of the values drawn plus their minimum.
/// The state is exactly what PilotResponse carries, so pooling decoded
/// worker draws is bit-identical to pooling local ones.
struct PilotDraw {
  GroupMoments moments;
  double min_value = std::numeric_limits<double>::infinity();

  /// Folds `other` in. Call in block order.
  void Merge(const PilotDraw& other) {
    moments.Merge(other.moments);
    if (other.min_value < min_value) min_value = other.min_value;
  }
};

/// Draws min(count, block.size()) uniform rows (with replacement) from
/// `block`, the `index`-th block of its column, on the stream
/// Hash(phase_seed, index). The single pilot-draw loop: the local
/// pre-estimation, the online sketch top-up and the worker's PilotRequest
/// handler all call it. `scratch` (nullable) receives the gather batches.
Result<PilotDraw> DrawBlockPilot(const storage::Block& block, uint64_t count,
                                 uint64_t phase_seed, uint64_t index,
                                 runtime::ScratchArena* scratch = nullptr);

/// Per-block σ-pilot share: max(2, sigma_pilot_size / n_blocks), which
/// DrawBlockPilot clamps to the block's rows. The share is equal rather
/// than proportional because the distributed coordinator learns the shard
/// sizes only from this first round's responses.
uint64_t SigmaPilotShare(const IslaOptions& options, uint64_t n_blocks);

/// Sample sizes from Eq. (1) for σ̂ = `sigma` over `data_size` rows.
struct SampleSizes {
  /// Sketch pilot: m at the relaxed precision t_e·e; 0 when σ̂ = 0.
  uint64_t sketch_pilot = 0;
  /// Main pass: m at e, times options.sampling_rate_scale; 2 when σ̂ = 0.
  uint64_t target = 0;
};

/// Sizes the sketch pilot and the main pass, both clamped to `data_size`.
Result<SampleSizes> PlanSampleSizes(double sigma, const IslaOptions& options,
                                    uint64_t data_size);

/// The negative-data translation d (footnote 1): data are shifted to the
/// positive axis before leveraging. The margin of 3σ̂ past the observed
/// pilot minimum makes unseen negative tail values positive w.h.p.
double ComputeShift(double min_value, double sigma);

/// Output of the Pre-estimation module (§III): the σ estimate, the sketch
/// estimator's initial value, and the derived main-pass sampling plan.
struct PilotEstimate {
  /// Estimated overall standard deviation σ̂ from the small pilot.
  double sigma = 0.0;

  /// Initial sketch estimator, computed at the relaxed precision t_e·e.
  double sketch0 = 0.0;

  /// Smallest pilot value seen; drives the negative-data translation
  /// (footnote 1 of the paper: shift by d, aggregate, shift back).
  double min_value = 0.0;

  /// Pilot sizes actually drawn.
  uint64_t sigma_pilot_samples = 0;
  uint64_t sketch_pilot_samples = 0;

  /// Main-pass plan from Eq. (1): m = u²σ̂²/e² and r = m/M, after applying
  /// options.sampling_rate_scale and clamping to the population size.
  uint64_t target_sample_size = 0;
  double sampling_rate = 0.0;
};

/// Runs the Pre-estimation module over `column`: draws the σ pilot in equal
/// per-block shares (SigmaPilotShare) and the sketch pilot in shares
/// proportional to block sizes (§III-B), each block on its own stream
/// derived from one draw of `rng` (see kSigmaPilotSalt), merges the draws
/// in block order, then sizes the main pass. Fails on empty columns or
/// invalid options.
///
/// A phase that draws at least one gather batch per block on average
/// (sampling::kGatherBatch rows) runs its blocks through runtime::ParallelFor
/// at options.parallelism; a smaller one draws on the calling thread, where
/// the hop to the pool would cost more than the draw. Either way block j
/// writes slot j and the slots merge in block order after the loop, so the
/// estimate is bit-identical for every thread count. Each block leases its
/// gather arena from `scratch` (nullable), so repeated queries reuse warmed
/// arenas.
Result<PilotEstimate> RunPreEstimation(const storage::Column& column,
                                       const IslaOptions& options,
                                       Xoshiro256* rng,
                                       runtime::ScratchPool* scratch =
                                           nullptr);

/// Forwards to the pool overload with no pool; `scratch` goes unused. Kept
/// only because bench_suite's traced rebuild of AggregateAvg
/// (bench_suite/avg_dram.cc) still passes one leased arena.
Result<PilotEstimate> RunPreEstimation(const storage::Column& column,
                                       const IslaOptions& options,
                                       Xoshiro256* rng,
                                       runtime::ScratchArena* scratch);

}  // namespace core
}  // namespace isla

#endif  // ISLA_CORE_PRE_ESTIMATION_H_
