#include "sampling/samplers.h"

#include <algorithm>

namespace isla {
namespace sampling {

std::vector<uint64_t> ProportionalAllocation(
    const std::vector<uint64_t>& sizes, uint64_t m) {
  std::vector<uint64_t> out(sizes.size(), 0);
  uint64_t total = 0;
  for (uint64_t s : sizes) total += s;
  if (total == 0 || m == 0) return out;

  // Largest remainder (Hamilton) method.
  std::vector<double> remainders(sizes.size());
  uint64_t assigned = 0;
  for (size_t i = 0; i < sizes.size(); ++i) {
    double exact = static_cast<double>(m) * static_cast<double>(sizes[i]) /
                   static_cast<double>(total);
    out[i] = static_cast<uint64_t>(exact);
    remainders[i] = exact - static_cast<double>(out[i]);
    assigned += out[i];
  }
  std::vector<size_t> order(sizes.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return remainders[a] > remainders[b];
  });
  for (size_t i = 0; assigned < m && i < order.size(); ++i, ++assigned) {
    ++out[order[i]];
  }
  return out;
}

std::vector<uint64_t> NeymanAllocation(const std::vector<uint64_t>& sizes,
                                       const std::vector<double>& sigmas,
                                       uint64_t m) {
  std::vector<double> weights(sizes.size(), 0.0);
  double total = 0.0;
  for (size_t i = 0; i < sizes.size(); ++i) {
    double sigma = i < sigmas.size() ? std::max(sigmas[i], 0.0) : 0.0;
    weights[i] = static_cast<double>(sizes[i]) * sigma;
    total += weights[i];
  }
  if (total <= 0.0) return ProportionalAllocation(sizes, m);

  // Reuse the largest-remainder machinery on the Neyman weights by scaling
  // them into integer pseudo-sizes.
  std::vector<uint64_t> pseudo(sizes.size());
  for (size_t i = 0; i < sizes.size(); ++i) {
    pseudo[i] = static_cast<uint64_t>(weights[i] / total * 1e12);
  }
  return ProportionalAllocation(pseudo, m);
}

void GenerateUniformIndices(uint64_t n, uint64_t count, Xoshiro256* rng,
                            std::vector<uint64_t>* out) {
  out->resize(count);
  uint64_t* dst = out->data();
  // Draw from a local copy: `dst` is uint64_t* and may alias the RNG's
  // uint64_t state words as far as the compiler knows, which would force a
  // state spill/reload around every store — a ~30x slowdown on this loop.
  // A local whose address never escapes stays in registers. There is no
  // SIMD version: the stream is a sequential Xoshiro recurrence, and AVX2
  // has no 64x64 high multiply, so a 4-lane Lemire reduction over
  // pre-drawn raws benched at 0.8x of this loop.
  Xoshiro256 local = *rng;
  for (uint64_t i = 0; i < count; ++i) dst[i] = local.NextBounded(n);
  *rng = local;
}

BlockSampleStream::BlockSampleStream(const storage::Block& block, uint64_t k,
                                     Xoshiro256* rng,
                                     runtime::ScratchArena* scratch)
    : block_(block),
      n_(block.size()),
      remaining_(k),
      rng_(rng),
      scratch_(scratch != nullptr ? scratch : &local_) {}

Status BlockSampleStream::Next(std::span<const double>* batch) {
  if (batch == nullptr) {
    return Status::InvalidArgument("batch must not be null");
  }
  *batch = {};
  if (rng_ == nullptr) return Status::InvalidArgument("rng must not be null");
  if (n_ == 0) {
    return Status::FailedPrecondition("cannot sample empty block");
  }
  if (remaining_ == 0) return Status::OK();
  const uint64_t want = std::min<uint64_t>(kGatherBatch, remaining_);
  GenerateUniformIndices(n_, want, rng_, &scratch_->indices);
  scratch_->values.resize(want);
  ISLA_RETURN_NOT_OK(
      block_.GatherAt(scratch_->indices, scratch_->values.data()));
  remaining_ -= want;
  *batch = {scratch_->values.data(), want};
  return Status::OK();
}

Status SampleBlockValues(const storage::Block& block, uint64_t k,
                         const std::function<void(double)>& visit,
                         Xoshiro256* rng) {
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  if (block.size() == 0) {
    return Status::FailedPrecondition("cannot sample empty block");
  }
  BlockSampleStream stream(block, k, rng, nullptr);
  std::span<const double> batch;
  for (;;) {
    ISLA_RETURN_NOT_OK(stream.Next(&batch));
    if (batch.empty()) return Status::OK();
    for (double v : batch) visit(v);
  }
}

}  // namespace sampling
}  // namespace isla
