#ifndef ISLA_CORE_ONLINE_H_
#define ISLA_CORE_ONLINE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/block_solver.h"
#include "core/boundaries.h"
#include "core/engine.h"
#include "core/options.h"
#include "core/pre_estimation.h"
#include "storage/table.h"
#include "util/rng.h"

namespace isla {
namespace core {

/// Online-aggregation mode (§VII-A): after a first round completes, users
/// may keep refining. Because Algorithm 1 reduces each block to
/// (paramS, paramL), refinement just streams more samples into the stored
/// moments and re-runs the O(log) iteration phase — no sample is ever
/// stored, and earlier work is never discarded.
///
/// The column must outlive the aggregator.
class OnlineAggregator {
 public:
  /// Prepares the aggregator; no sampling happens yet.
  OnlineAggregator(const storage::Column* column, IslaOptions options);

  /// Runs pre-estimation and the first sampling round at the options'
  /// precision. Must be called once, before Refine()/CurrentAnswer().
  Result<AggregateResult> Start();

  /// Tightens the target precision to `new_precision` (must be smaller than
  /// the current one), draws only the additional samples required by
  /// Eq. (1), merges them into the stored moments, and re-solves. The
  /// sketch pilot is topped up to the new relaxed precision t_e·e as well —
  /// the data boundaries stay frozen (so the stored paramS/paramL remain
  /// valid), but the sketch estimator entering the iteration sharpens with
  /// each round.
  Result<AggregateResult> Refine(double new_precision);

  /// Re-solves from the current moments without further sampling.
  Result<AggregateResult> CurrentAnswer() const;

  /// Total main-pass samples drawn so far across rounds.
  uint64_t total_samples() const { return total_samples_; }

  /// Precision currently in force.
  double current_precision() const { return current_precision_; }

  bool started() const { return started_; }

 private:
  Result<AggregateResult> SampleAndSolve(uint64_t additional_samples);
  Result<AggregateResult> Solve() const;

  const storage::Column* column_;
  IslaOptions options_;
  Xoshiro256 rng_;

  bool started_ = false;
  PilotEstimate pilot_;
  double shift_ = 0.0;
  double sketch0_shifted_ = 0.0;  // Frozen: defines the boundaries.
  /// Sketch pilot pooled with every refinement top-up (unshifted); its
  /// mean is the sketch entering the iteration phase.
  GroupMoments sketch_;
  std::vector<BlockParams> block_params_;
  uint64_t total_samples_ = 0;
  double current_precision_ = 0.0;
};

}  // namespace core
}  // namespace isla

#endif  // ISLA_CORE_ONLINE_H_
