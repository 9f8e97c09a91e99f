#include "baselines/estimators.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "sampling/samplers.h"
#include "stats/moments.h"
#include "util/rng.h"

namespace isla {
namespace baselines {

namespace {

Status ValidateColumn(const storage::Column& column, uint64_t m) {
  if (column.num_rows() == 0) {
    return Status::FailedPrecondition("cannot aggregate an empty column");
  }
  if (m == 0) return Status::InvalidArgument("sample size must be > 0");
  return Status::OK();
}

}  // namespace

Result<BaselineResult> UniformSamplingAvg(const storage::Column& column,
                                          uint64_t m, uint64_t seed) {
  ISLA_RETURN_NOT_OK(ValidateColumn(column, m));
  Xoshiro256 rng(seed);
  std::vector<uint64_t> alloc =
      sampling::ProportionalAllocation(column.BlockSizes(), m);
  stats::StreamingMoments moments;
  for (size_t j = 0; j < column.num_blocks(); ++j) {
    if (alloc[j] == 0) continue;
    ISLA_RETURN_NOT_OK(sampling::SampleBlockValues(
        *column.blocks()[j], alloc[j], [&](double v) { moments.Add(v); },
        &rng));
  }
  BaselineResult out;
  out.average = moments.Mean();
  out.samples_used = moments.count();
  return out;
}

Result<BaselineResult> StratifiedSamplingAvg(const storage::Column& column,
                                             uint64_t m, uint64_t seed) {
  ISLA_RETURN_NOT_OK(ValidateColumn(column, m));
  Xoshiro256 rng(seed);
  std::vector<uint64_t> sizes = column.BlockSizes();
  std::vector<uint64_t> alloc = sampling::ProportionalAllocation(sizes, m);

  stats::CompensatedSum weighted;
  uint64_t rows_covered = 0;
  uint64_t used = 0;
  for (size_t j = 0; j < column.num_blocks(); ++j) {
    if (alloc[j] == 0) continue;
    stats::StreamingMoments stratum;
    ISLA_RETURN_NOT_OK(sampling::SampleBlockValues(
        *column.blocks()[j], alloc[j], [&](double v) { stratum.Add(v); },
        &rng));
    weighted.Add(stratum.Mean() * static_cast<double>(sizes[j]));
    rows_covered += sizes[j];
    used += stratum.count();
  }
  if (rows_covered == 0) {
    return Status::Internal("stratified allocation covered no block");
  }
  BaselineResult out;
  out.average = weighted.Total() / static_cast<double>(rows_covered);
  out.samples_used = used;
  return out;
}

Result<BaselineResult> StratifiedNeymanAvg(const storage::Column& column,
                                           uint64_t m,
                                           uint64_t pilot_per_block,
                                           uint64_t seed) {
  ISLA_RETURN_NOT_OK(ValidateColumn(column, m));
  if (pilot_per_block < 2) {
    return Status::InvalidArgument("Neyman pilot needs >= 2 samples/block");
  }
  Xoshiro256 rng(seed);
  std::vector<uint64_t> sizes = column.BlockSizes();

  std::vector<double> sigmas(column.num_blocks(), 0.0);
  for (size_t j = 0; j < column.num_blocks(); ++j) {
    stats::StreamingMoments pilot;
    uint64_t want = std::min<uint64_t>(pilot_per_block, sizes[j]);
    ISLA_RETURN_NOT_OK(sampling::SampleBlockValues(
        *column.blocks()[j], want, [&](double v) { pilot.Add(v); }, &rng));
    sigmas[j] = std::sqrt(pilot.Variance());
  }

  std::vector<uint64_t> alloc = sampling::NeymanAllocation(sizes, sigmas, m);
  stats::CompensatedSum weighted;
  uint64_t rows_covered = 0;
  uint64_t used = 0;
  for (size_t j = 0; j < column.num_blocks(); ++j) {
    if (alloc[j] == 0) continue;
    stats::StreamingMoments stratum;
    ISLA_RETURN_NOT_OK(sampling::SampleBlockValues(
        *column.blocks()[j], alloc[j], [&](double v) { stratum.Add(v); },
        &rng));
    weighted.Add(stratum.Mean() * static_cast<double>(sizes[j]));
    rows_covered += sizes[j];
    used += stratum.count();
  }
  if (rows_covered == 0) {
    return Status::Internal("Neyman allocation covered no block");
  }
  BaselineResult out;
  out.average = weighted.Total() / static_cast<double>(rows_covered);
  out.samples_used = used;
  return out;
}

Result<BaselineResult> MeasureBiasedAvg(const storage::Column& column,
                                        uint64_t m, uint64_t seed) {
  ISLA_RETURN_NOT_OK(ValidateColumn(column, m));
  Xoshiro256 rng(seed);
  std::vector<uint64_t> alloc =
      sampling::ProportionalAllocation(column.BlockSizes(), m);
  stats::CompensatedSum sum;
  stats::CompensatedSum sum_sq;
  uint64_t used = 0;
  for (size_t j = 0; j < column.num_blocks(); ++j) {
    if (alloc[j] == 0) continue;
    ISLA_RETURN_NOT_OK(sampling::SampleBlockValues(
        *column.blocks()[j], alloc[j],
        [&](double v) {
          sum.Add(v);
          sum_sq.Add(v * v);
          ++used;
        },
        &rng));
  }
  if (!(sum.Total() > 0.0)) {
    return Status::FailedPrecondition(
        "measure-biased probabilities require a positive sample sum");
  }
  BaselineResult out;
  out.average = sum_sq.Total() / sum.Total();
  out.samples_used = used;
  return out;
}

Result<BaselineResult> MeasureBiasedBoundariesAvg(
    const storage::Column& column, uint64_t m,
    const core::DataBoundaries& boundaries, uint64_t seed) {
  ISLA_RETURN_NOT_OK(ValidateColumn(column, m));
  Xoshiro256 rng(seed);
  std::vector<uint64_t> alloc =
      sampling::ProportionalAllocation(column.BlockSizes(), m);

  // Per-region Σa and Σa², indexed by Region.
  struct RegionAcc {
    stats::CompensatedSum sum;
    stats::CompensatedSum sum_sq;
    uint64_t count = 0;
  };
  std::array<RegionAcc, 5> regions;
  uint64_t used = 0;
  for (size_t j = 0; j < column.num_blocks(); ++j) {
    if (alloc[j] == 0) continue;
    ISLA_RETURN_NOT_OK(sampling::SampleBlockValues(
        *column.blocks()[j], alloc[j],
        [&](double v) {
          auto& acc = regions[static_cast<size_t>(boundaries.Classify(v))];
          acc.sum.Add(v);
          acc.sum_sq.Add(v * v);
          ++acc.count;
          ++used;
        },
        &rng));
  }
  if (used == 0) return Status::Internal("no samples drawn");

  // answer = Σ_R (n_R/n) · (Σ_{i∈R} aᵢ² / Σ_{i∈R} aᵢ); regions whose sample
  // sum is non-positive cannot carry value-proportional probabilities and
  // contribute their plain mean instead.
  stats::CompensatedSum answer;
  for (const auto& acc : regions) {
    if (acc.count == 0) continue;
    double weight = static_cast<double>(acc.count) /
                    static_cast<double>(used);
    double region_sum = acc.sum.Total();
    if (region_sum > 0.0) {
      answer.Add(weight * acc.sum_sq.Total() / region_sum);
    } else {
      answer.Add(weight * region_sum / static_cast<double>(acc.count));
    }
  }
  BaselineResult out;
  out.average = answer.Total();
  out.samples_used = used;
  return out;
}

Result<core::DataBoundaries> PilotBoundaries(const storage::Column& column,
                                             uint64_t pilot_m, double p1,
                                             double p2, uint64_t seed) {
  ISLA_RETURN_NOT_OK(ValidateColumn(column, pilot_m));
  Xoshiro256 rng(seed);
  std::vector<uint64_t> alloc =
      sampling::ProportionalAllocation(column.BlockSizes(), pilot_m);
  stats::StreamingMoments pilot;
  for (size_t j = 0; j < column.num_blocks(); ++j) {
    if (alloc[j] == 0) continue;
    ISLA_RETURN_NOT_OK(sampling::SampleBlockValues(
        *column.blocks()[j], alloc[j], [&](double v) { pilot.Add(v); },
        &rng));
  }
  double sigma = std::sqrt(pilot.Variance());
  if (!(sigma > 0.0)) {
    return Status::FailedPrecondition("constant pilot: boundaries undefined");
  }
  return core::DataBoundaries::Create(pilot.Mean(), sigma, p1, p2);
}

Result<BaselineResult> MeasureBiasedTrueSamplingAvg(
    const storage::Column& column, uint64_t m, uint64_t seed) {
  ISLA_RETURN_NOT_OK(ValidateColumn(column, m));
  Xoshiro256 rng(seed);
  constexpr uint64_t kBatch = 1 << 16;
  std::vector<double> buffer;

  // Pass 1: total measure Σa.
  stats::CompensatedSum total;
  for (const auto& block : column.blocks()) {
    for (uint64_t start = 0; start < block->size(); start += kBatch) {
      uint64_t n = std::min<uint64_t>(kBatch, block->size() - start);
      ISLA_RETURN_NOT_OK(block->ReadRange(start, n, &buffer));
      for (double v : buffer) {
        if (!(v > 0.0)) {
          return Status::FailedPrecondition(
              "measure-biased sampling requires strictly positive values");
        }
        total.Add(v);
      }
    }
  }
  double measure = total.Total();
  if (!(measure > 0.0)) {
    return Status::FailedPrecondition("zero total measure");
  }

  // Sorted uniform targets in [0, measure).
  std::vector<double> targets;
  targets.reserve(m);
  for (uint64_t i = 0; i < m; ++i) {
    targets.push_back(rng.NextDouble() * measure);
  }
  std::sort(targets.begin(), targets.end());

  // Pass 2: emit the value whose cumulative-measure interval contains each
  // target; accumulate Σ(1/aᵢ) for the harmonic estimator.
  stats::CompensatedSum cumulative;
  stats::CompensatedSum inv_sum;
  size_t next_target = 0;
  uint64_t drawn = 0;
  for (const auto& block : column.blocks()) {
    if (next_target >= targets.size()) break;
    for (uint64_t start = 0;
         start < block->size() && next_target < targets.size();
         start += kBatch) {
      uint64_t n = std::min<uint64_t>(kBatch, block->size() - start);
      ISLA_RETURN_NOT_OK(block->ReadRange(start, n, &buffer));
      for (double v : buffer) {
        double lo = cumulative.Total();
        cumulative.Add(v);
        double hi = cumulative.Total();
        while (next_target < targets.size() && targets[next_target] >= lo &&
               targets[next_target] < hi) {
          inv_sum.Add(1.0 / v);
          ++drawn;
          ++next_target;
        }
      }
    }
  }
  if (drawn == 0 || !(inv_sum.Total() > 0.0)) {
    return Status::Internal("measure-biased sampling drew nothing");
  }
  BaselineResult out;
  out.average = static_cast<double>(drawn) / inv_sum.Total();
  out.samples_used = drawn;
  return out;
}

}  // namespace baselines
}  // namespace isla
