#include "engine/scan_scheduler.h"

#include <bit>
#include <utility>

namespace isla {
namespace engine {

namespace {

/// Inserts (or refreshes) one LRU entry, evicting the tail past `cap`.
template <typename Lru, typename Index, typename Key, typename Value>
void LruPut(Lru* lru, Index* index, const Key& key, Value value, size_t cap) {
  if (cap == 0) return;
  auto it = index->find(key);
  if (it != index->end()) {
    it->second->second = std::move(value);
    lru->splice(lru->begin(), *lru, it->second);
    return;
  }
  lru->emplace_front(key, std::move(value));
  (*index)[key] = lru->begin();
  if (lru->size() > cap) {
    index->erase(lru->back().first);
    lru->pop_back();
  }
}

/// Looks up one LRU entry, refreshing it on a hit; null on a miss.
template <typename Lru, typename Index, typename Key>
auto LruGet(Lru* lru, Index* index, const Key& key)
    -> const typename Lru::value_type::second_type* {
  auto it = index->find(key);
  if (it == index->end()) return nullptr;
  lru->splice(lru->begin(), *lru, it->second);
  return &it->second->second;
}

}  // namespace

ScanScheduler::ScanScheduler(size_t cache_capacity)
    : cache_capacity_(cache_capacity) {}

ScanScheduler::~ScanScheduler() = default;

ScanSchedulerStats ScanScheduler::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void ScanScheduler::ClearCaches() {
  std::lock_guard<std::mutex> lk(mu_);
  pilot_lru_.clear();
  pilot_index_.clear();
  result_lru_.clear();
  result_index_.clear();
}

ScanScheduler::CacheKey ScanScheduler::MakeCacheKey(
    const core::GroupedSpec& spec, const core::IslaOptions& options,
    uint64_t seed_salt, bool pilot) {
  const bool has_pred = spec.predicate != nullptr;
  CacheKey k{};
  k[0] = spec.values->ContentFingerprint();
  k[1] = has_pred ? spec.predicate->ContentFingerprint() : 0;
  k[2] = has_pred ? static_cast<uint64_t>(spec.op) + 1 : 0;
  k[3] = has_pred ? std::bit_cast<uint64_t>(spec.literal) : 0;
  k[4] = spec.keys == nullptr ? 0 : spec.keys->ContentFingerprint();
  k[5] = options.seed;
  k[6] = seed_salt;
  k[7] = options.sigma_pilot_size;
  // The pilot depends on none of the target or summary parameters (it is
  // planned *into* them), so the pilot key zeroes these slots and repeated
  // queries that only move precision or shape reuse one pilot. parallelism
  // is excluded from both keys: per-block RNG streams make answers
  // parallelism-invariant.
  if (!pilot) {
    k[8] = std::bit_cast<uint64_t>(options.precision);
    k[9] = std::bit_cast<uint64_t>(options.confidence);
    k[10] = std::bit_cast<uint64_t>(options.sampling_rate_scale);
    k[11] = spec.want_sketch ? 1 : 0;
    k[12] = std::bit_cast<uint64_t>(spec.summary.quantile_q);
    k[13] = spec.summary.histogram_bins;
    k[14] = spec.summary.top_k;
  }
  k[15] = pilot ? 1 : 2;
  return k;
}

Result<core::GroupedAggregateResult> ScanScheduler::Execute(
    const core::GroupedSpec& spec, const core::IslaOptions& options,
    uint64_t seed_salt) {
  ISLA_RETURN_NOT_OK(options.Validate());
  ISLA_RETURN_NOT_OK(core::ValidateGroupedSpec(spec));
  const CacheKey result_key = MakeCacheKey(spec, options, seed_salt, false);
  const CacheKey pilot_key = MakeCacheKey(spec, options, seed_salt, true);

  std::shared_ptr<InFlight> flight;
  Result<core::GroupedPilot> pilot{Status::NotFound("pilot not cached")};
  {
    std::unique_lock<std::mutex> lk(mu_);
    ++stats_.queries;
    if (const auto* hit = LruGet(&result_lru_, &result_index_, result_key)) {
      ++stats_.result_cache_hits;
      stats_.rows_requested += hit->scanned_samples + hit->pilot_samples;
      return *hit;
    }
    ++stats_.result_cache_misses;
    auto twin = in_flight_.find(result_key);
    if (twin != in_flight_.end()) {
      std::shared_ptr<InFlight> joined = twin->second;
      // The first joiner makes the execution shared and counts the
      // statement that started it too.
      if (++joined->joiners == 1) {
        ++stats_.shared_batches;
        ++stats_.batched_queries;
      }
      ++stats_.batched_queries;
      done_cv_.wait(lk, [&] { return joined->done; });
      return joined->result;
    }
    flight = std::make_shared<InFlight>();
    in_flight_.emplace(result_key, flight);
    if (const auto* hit = LruGet(&pilot_lru_, &pilot_index_, pilot_key)) {
      ++stats_.pilot_cache_hits;
      pilot = *hit;
    } else {
      ++stats_.pilot_cache_misses;
    }
  }

  // The only sampling: the engine's own pipeline, outside the lock.
  const core::GroupByEngine engine(options, &scratch_pool_);
  const bool fresh_pilot = !pilot.ok();
  if (fresh_pilot) pilot = engine.Pilot(spec, seed_salt);
  Result<core::GroupedAggregateResult> result =
      pilot.ok() ? engine.Aggregate(spec, seed_salt, *pilot)
                 : Result<core::GroupedAggregateResult>(pilot.status());

  {
    std::lock_guard<std::mutex> lk(mu_);
    if (fresh_pilot && pilot.ok()) {
      stats_.rows_gathered += pilot->pilot_samples;
      LruPut(&pilot_lru_, &pilot_index_, pilot_key, *pilot, cache_capacity_);
    }
    if (result.ok()) {
      const uint64_t rows = result->scanned_samples + result->pilot_samples;
      stats_.rows_gathered += result->scanned_samples;
      stats_.rows_requested += (1 + flight->joiners) * rows;
      LruPut(&result_lru_, &result_index_, result_key, *result,
             cache_capacity_);
    }
    flight->result = result;
    flight->done = true;
    in_flight_.erase(result_key);
  }
  done_cv_.notify_all();
  return result;
}

}  // namespace engine
}  // namespace isla
