#ifndef ISLA_STATS_LATENCY_HISTOGRAM_H_
#define ISLA_STATS_LATENCY_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>

namespace isla {
namespace stats {

/// A lock-free log-bucketed latency histogram. Record() costs two relaxed
/// atomic increments, so it sits directly on the statement and RPC hot
/// paths; Percentile() walks the 48 buckets and interpolates the requested
/// rank linearly within its bucket [2^b, 2^(b+1)) — so an
/// all-sub-microsecond workload reports 0, not a phantom 1.41 µs midpoint,
/// and the estimate is never above the bucket's upper bound. Plenty for
/// p50/p99 observability and the auto hedge delay (this is a gauge, not a
/// benchmark harness).
class LatencyHistogram {
 public:
  /// Buckets cover [2^i, 2^(i+1)) microseconds; 48 buckets span past the
  /// age of the universe, so no latency is ever dropped.
  static constexpr int kBuckets = 48;

  void Record(uint64_t micros);

  /// The latency (micros) at quantile `q` in [0, 1], the rank interpolated
  /// linearly within its bucket. Returns 0 when nothing was recorded (and
  /// when every sample was sub-microsecond: the whole rank range then sits
  /// in bucket 0, which starts at 0). The open-ended top bucket reports
  /// its lower bound.
  double PercentileMicros(double q) const;

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
};

}  // namespace stats
}  // namespace isla

#endif  // ISLA_STATS_LATENCY_HISTOGRAM_H_
