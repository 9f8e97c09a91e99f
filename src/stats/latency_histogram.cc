#include "stats/latency_histogram.h"

#include <cmath>

namespace isla {
namespace stats {

namespace {

/// Index of the highest set bit; 0 maps to bucket 0.
int BucketOf(uint64_t micros) {
  int b = 0;
  while (micros > 1 && b < LatencyHistogram::kBuckets - 1) {
    micros >>= 1;
    ++b;
  }
  return b;
}

}  // namespace

void LatencyHistogram::Record(uint64_t micros) {
  buckets_[BucketOf(micros)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
}

double LatencyHistogram::PercentileMicros(double q) const {
  // Snapshot the buckets once; Record() racing the walk can at worst shift
  // the estimate by the in-flight statements, which is noise at gauge
  // granularity.
  std::array<uint64_t, kBuckets> snap;
  uint64_t total = 0;
  for (int b = 0; b < kBuckets; ++b) {
    snap[b] = buckets_[b].load(std::memory_order_relaxed);
    total += snap[b];
  }
  if (total == 0) return 0.0;
  // Every sample sub-microsecond: the whole distribution lives in bucket 0
  // ([0, 2) µs), whose only honest point estimate is its lower bound.
  if (snap[0] == total) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total - 1));
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += snap[b];
    if (seen > rank) {
      // Interpolate the rank within [2^b, 2^(b+1)) (bucket 0 is [0, 2)),
      // from the bucket's lower bound, so the estimate never exceeds the
      // bucket's upper bound.
      if (b == kBuckets - 1) {
        // The open-ended top bucket has no width to interpolate over;
        // its lower bound is the only defensible point estimate.
        return std::ldexp(1.0, b);
      }
      double lo = b == 0 ? 0.0 : std::ldexp(1.0, b);
      double hi = std::ldexp(1.0, b + 1);
      uint64_t idx_in_bucket = rank - (seen - snap[b]);
      return lo + (hi - lo) * static_cast<double>(idx_in_bucket) /
                      static_cast<double>(snap[b]);
    }
  }
  return std::ldexp(1.0, kBuckets - 1);  // Unreachable.
}

}  // namespace stats
}  // namespace isla
