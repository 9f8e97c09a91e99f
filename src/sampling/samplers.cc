#include "sampling/samplers.h"

#include <algorithm>
#include <cmath>

namespace isla {
namespace sampling {

namespace {

/// Flat open-addressing set of uint64 keys for Floyd's algorithm: linear
/// probing over a power-of-two table sized ~2x the final cardinality k.
/// Replaces unordered_set in the without-replacement path — no per-node
/// heap allocation, no pointer chasing, one contiguous table. Membership
/// semantics are identical, so the emitted index sequence for a given RNG
/// stream is unchanged.
class FlatIndexSet {
 public:
  explicit FlatIndexSet(uint64_t expected) {
    uint64_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    slots_.assign(cap, kEmpty);
    mask_ = cap - 1;
  }

  /// Inserts `key`; returns true when the key was not already present.
  bool Insert(uint64_t key) {
    size_t i = static_cast<size_t>(SplitMix64::Mix(key)) & mask_;
    while (slots_[i] != kEmpty) {
      if (slots_[i] == key) return false;
      i = (i + 1) & mask_;
    }
    slots_[i] = key;
    return true;
  }

 private:
  // Floyd's only inserts values <= j with j < n <= UINT64_MAX, i.e. at
  // most UINT64_MAX - 1, so the all-ones sentinel cannot collide.
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  std::vector<uint64_t> slots_;
  size_t mask_ = 0;
};

}  // namespace

std::vector<uint64_t> SampleIndicesWithReplacement(uint64_t n, uint64_t k,
                                                   Xoshiro256* rng) {
  std::vector<uint64_t> out;
  if (n == 0) return out;
  out.reserve(k);
  for (uint64_t i = 0; i < k; ++i) out.push_back(rng->NextBounded(n));
  return out;
}

Result<std::vector<uint64_t>> SampleIndicesWithoutReplacement(
    uint64_t n, uint64_t k, Xoshiro256* rng) {
  if (k > n) {
    return Status::InvalidArgument(
        "cannot sample more distinct indices than the population size");
  }
  // Robert Floyd's algorithm: for j in [n-k, n), pick t in [0, j]; insert t
  // unless already present, else insert j.
  FlatIndexSet chosen(k);
  std::vector<uint64_t> out;
  out.reserve(k);
  for (uint64_t j = n - k; j < n; ++j) {
    uint64_t t = rng->NextBounded(j + 1);
    if (chosen.Insert(t)) {
      out.push_back(t);
    } else {
      chosen.Insert(j);
      out.push_back(j);
    }
  }
  return out;
}

Status BernoulliSample(uint64_t n, double p,
                       const std::function<void(uint64_t)>& emit,
                       Xoshiro256* rng) {
  if (!(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument("Bernoulli probability must be in [0, 1]");
  }
  if (p == 0.0 || n == 0) return Status::OK();
  if (p == 1.0) {
    for (uint64_t i = 0; i < n; ++i) emit(i);
    return Status::OK();
  }
  // Geometric skips: gap ~ floor(log(U)/log(1-p)).
  const double log1mp = std::log1p(-p);
  double i = -1.0;
  while (true) {
    double u = rng->NextDouble();
    if (u <= 0.0) u = 0x1.0p-53;
    i += 1.0 + std::floor(std::log(u) / log1mp);
    if (i >= static_cast<double>(n)) break;
    emit(static_cast<uint64_t>(i));
  }
  return Status::OK();
}

ReservoirSampler::ReservoirSampler(uint64_t capacity, uint64_t seed)
    : capacity_(capacity), rng_(seed) {
  reservoir_.reserve(capacity);
}

void ReservoirSampler::Offer(double value) {
  ++seen_;
  if (reservoir_.size() < capacity_) {
    reservoir_.push_back(value);
    return;
  }
  uint64_t j = rng_.NextBounded(seen_);
  if (j < capacity_) reservoir_[j] = value;
}

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
  ISLA_RETURN_NOT_OK(storage::GatherInto(block_, scratch_->indices,
                                         scratch_->values.data()));
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

Result<std::vector<double>> DrawBlockSample(const storage::Block& block,
                                            uint64_t k, Xoshiro256* rng) {
  std::vector<double> out;
  ISLA_RETURN_NOT_OK(DrawBlockSampleInto(block, k, rng, nullptr, &out));
  return out;
}

Status DrawBlockSampleInto(const storage::Block& block, uint64_t k,
                           Xoshiro256* rng, runtime::ScratchArena* scratch,
                           std::vector<double>* out) {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  const uint64_t n = block.size();
  if (n == 0) return Status::FailedPrecondition("cannot sample empty block");
  out->resize(k);
  double* dst = out->data();
  runtime::ScratchArena local;
  runtime::ScratchArena* s = scratch != nullptr ? scratch : &local;
  for (uint64_t done = 0; done < k;) {
    const uint64_t batch = std::min<uint64_t>(kGatherBatch, k - done);
    GenerateUniformIndices(n, batch, rng, &s->indices);
    ISLA_RETURN_NOT_OK(storage::GatherInto(block, s->indices, dst + done));
    done += batch;
  }
  return Status::OK();
}

}  // namespace sampling
}  // namespace isla
