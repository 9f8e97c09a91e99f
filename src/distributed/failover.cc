#include "distributed/failover.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "util/rng.h"
#include "util/timer.h"

namespace isla {
namespace distributed {

namespace {

/// Floor of the auto-derived hedge delay, so a burst of microsecond-fast
/// loopback calls cannot turn hedging into "always send twice".
constexpr uint64_t kHedgeFloorMillis = 20;

}  // namespace

FailoverStats& GlobalFailoverStats() {
  // Leaked on purpose: transports and servers record into it from threads
  // that may outlive any static-destruction order.
  static FailoverStats* stats = new FailoverStats();
  return *stats;
}

FailoverTransport::FailoverTransport(
    Transport* inner, std::vector<std::vector<uint64_t>> placement,
    FailoverOptions options)
    : inner_(inner),
      placement_(std::move(placement)),
      options_(options),
      outstanding_(inner->size()) {}

FailoverTransport::~FailoverTransport() { racers_.JoinAll(); }

FailoverCounters FailoverTransport::failover_snapshot() const {
  FailoverCounters c;
  c.retries = retries_.load(std::memory_order_relaxed);
  c.failovers = failovers_.load(std::memory_order_relaxed);
  c.hedges = hedges_.load(std::memory_order_relaxed);
  c.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
  c.exhausted = exhausted_.load(std::memory_order_relaxed);
  c.placement_epoch = options_.placement_epoch;
  return c;
}

uint64_t FailoverTransport::outstanding_on(uint64_t channel) const {
  if (channel >= outstanding_.size()) return 0;
  return outstanding_[channel].load(std::memory_order_relaxed);
}

size_t FailoverTransport::PickStart(
    uint64_t shard_id, const std::vector<uint64_t>& replicas) const {
  const size_t n = replicas.size();
  const size_t rotation = static_cast<size_t>(shard_id) % n;
  size_t best = rotation;
  uint64_t best_load = outstanding_on(replicas[rotation]);
  for (size_t i = 1; i < n; ++i) {
    const size_t idx = (rotation + i) % n;
    const uint64_t load = outstanding_on(replicas[idx]);
    if (load < best_load) {
      best = idx;
      best_load = load;
    }
  }
  return best;
}

Result<std::string> FailoverTransport::CallOnce(uint64_t shard_id,
                                                uint64_t channel,
                                                const std::string& frame) {
  (void)shard_id;
  const bool tracked = channel < outstanding_.size();
  if (tracked) {
    outstanding_[channel].fetch_add(1, std::memory_order_relaxed);
  }
  Timer timer;
  Result<std::string> result = inner_->Call(channel, frame);
  if (tracked) {
    outstanding_[channel].fetch_sub(1, std::memory_order_relaxed);
  }
  if (result.ok()) {
    latency_.Record(static_cast<uint64_t>(timer.ElapsedMillis() * 1000.0));
  }
  return result;
}

uint64_t FailoverTransport::HedgeDelayMillis() const {
  if (options_.hedge_delay_millis > 0) return options_.hedge_delay_millis;
  // Auto mode: p99 of observed successful calls, floored at
  // kHedgeFloorMillis. Before enough samples exist the p99 of a handful of
  // calls is meaningless, so stay at the floor.
  uint64_t p99_millis =
      latency_.count() >= 32
          ? static_cast<uint64_t>(latency_.PercentileMicros(0.99)) / 1000
          : 0;
  return std::max(kHedgeFloorMillis, p99_millis);
}

Result<std::string> FailoverTransport::HedgedCall(uint64_t shard_id,
                                                  uint64_t primary,
                                                  uint64_t secondary,
                                                  const std::string& frame) {
  // Both racers write into shared state owned by a shared_ptr: if the
  // caller takes the primary's answer and returns, a straggling hedge (or
  // vice versa) still has a live home for its result.
  struct RaceState {
    std::mutex mu;
    std::condition_variable cv;
    bool primary_done = false;
    bool hedge_done = false;
    bool hedge_launched = false;
    Result<std::string> primary_result{Status::Internal("pending")};
    Result<std::string> hedge_result{Status::Internal("pending")};
  };
  auto state = std::make_shared<RaceState>();

  racers_.Spawn([this, state, primary, shard_id, frame]() {
    Result<std::string> r = CallOnce(shard_id, primary, frame);
    std::lock_guard<std::mutex> lock(state->mu);
    state->primary_result = std::move(r);
    state->primary_done = true;
    state->cv.notify_all();
  });

  const auto hedge_after = std::chrono::milliseconds(HedgeDelayMillis());
  std::unique_lock<std::mutex> lock(state->mu);
  if (!state->cv.wait_for(lock, hedge_after,
                          [&] { return state->primary_done; })) {
    // Primary is straggling: duplicate the request to the second replica.
    // First answer wins; the RNG-prefix property makes both answers
    // bit-identical, so the race cannot change the query result.
    state->hedge_launched = true;
    hedges_.fetch_add(1, std::memory_order_relaxed);
    GlobalFailoverStats().hedged_requests.fetch_add(1,
                                                    std::memory_order_relaxed);
    racers_.Spawn([this, state, secondary, shard_id, frame]() {
      Result<std::string> r = CallOnce(shard_id, secondary, frame);
      std::lock_guard<std::mutex> lock2(state->mu);
      state->hedge_result = std::move(r);
      state->hedge_done = true;
      state->cv.notify_all();
    });
  }

  // Wait for the first *success*, or for both sides to have failed.
  state->cv.wait(lock, [&] {
    if (state->primary_done && state->primary_result.ok()) return true;
    if (state->hedge_done && state->hedge_result.ok()) return true;
    return state->primary_done &&
           (!state->hedge_launched || state->hedge_done);
  });

  if (state->primary_done && state->primary_result.ok()) {
    return state->primary_result;
  }
  if (state->hedge_done && state->hedge_result.ok()) {
    hedge_wins_.fetch_add(1, std::memory_order_relaxed);
    GlobalFailoverStats().hedge_wins.fetch_add(1, std::memory_order_relaxed);
    return state->hedge_result;
  }
  // Both failed: report the primary's error (deterministic choice).
  return state->primary_result;
}

Result<std::string> FailoverTransport::Call(uint64_t shard_id,
                                            const std::string& frame) {
  if (shard_id >= placement_.size() || placement_[shard_id].empty()) {
    return Status::InvalidArgument("no replicas placed for shard");
  }
  const std::vector<uint64_t>& replicas = placement_[shard_id];
  const size_t n = replicas.size();
  // Preferred replica for this call: least outstanding requests, chosen
  // once up front (not per attempt, so the retry rotation below stays the
  // exhaustive sweep the failover tests pin). On an idle transport every
  // load is zero and the deterministic tie-break degenerates to the
  // static shard-id rotation, spreading first-choice load across the
  // replica set exactly as before the balancer existed.
  const size_t start = PickStart(shard_id, replicas);
  const uint64_t max_attempts = options_.max_rounds * n;

  Status last_error = Status::Internal("no attempt made");
  for (uint64_t attempt = 0; attempt < max_attempts; ++attempt) {
    const uint64_t channel = replicas[(start + attempt) % n];

    Result<std::string> result =
        (options_.enable_hedging && n > 1)
            ? HedgedCall(shard_id, channel,
                         replicas[(start + attempt + 1) % n], frame)
            : CallOnce(shard_id, channel, frame);
    if (result.ok()) return result;
    if (!result.status().IsRetryable()) return result;

    last_error = result.status();
    if (attempt + 1 >= max_attempts) break;

    retries_.fetch_add(1, std::memory_order_relaxed);
    GlobalFailoverStats().shard_retries.fetch_add(1,
                                                  std::memory_order_relaxed);
    if (n > 1) {
      failovers_.fetch_add(1, std::memory_order_relaxed);
      GlobalFailoverStats().shard_failovers.fetch_add(
          1, std::memory_order_relaxed);
    }

    // Bounded exponential backoff with deterministic jitter. The shift is
    // clamped so a large max_rounds cannot overflow the multiplier.
    uint64_t shift = std::min<uint64_t>(attempt, 16);
    uint64_t backoff = std::min(options_.backoff_max_millis,
                                options_.backoff_base_millis << shift);
    uint64_t jitter =
        options_.backoff_base_millis > 0
            ? SplitMix64::Hash(options_.seed, shard_id, attempt) %
                  (options_.backoff_base_millis + 1)
            : 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff + jitter));
  }

  exhausted_.fetch_add(1, std::memory_order_relaxed);
  GlobalFailoverStats().shards_exhausted.fetch_add(1,
                                                   std::memory_order_relaxed);
  return Status(last_error.code(),
                "shard " + std::to_string(shard_id) +
                    " failed on every replica: " + last_error.message());
}

std::vector<std::vector<uint64_t>> RoundRobinPlacement(size_t n_shards,
                                                       size_t n_channels,
                                                       size_t replicas) {
  std::vector<std::vector<uint64_t>> placement(n_shards);
  if (n_shards == 0 || n_channels == 0) return placement;
  replicas = std::max<size_t>(1, std::min(replicas, n_channels));
  for (size_t s = 0; s < n_shards; ++s) {
    for (size_t r = 0; r < replicas; ++r) {
      placement[s].push_back((s + r * n_shards) % n_channels);
    }
  }
  return placement;
}

}  // namespace distributed
}  // namespace isla
