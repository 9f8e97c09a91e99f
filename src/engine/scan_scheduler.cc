#include "engine/scan_scheduler.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <thread>
#include <utility>

#include "runtime/parallel_for.h"
#include "sampling/samplers.h"
#include "storage/block.h"
#include "util/rng.h"

namespace isla {
namespace engine {

struct ScanScheduler::Participant {
  const core::GroupedSpec* spec = nullptr;
  core::IslaOptions options;
  uint64_t salt = 0;
  uint64_t value_fp = 0;
  uint64_t pred_fp = 0;
  uint64_t key_fp = 0;
  CacheKey result_key{};
  CacheKey pilot_key{};
  Result<core::GroupedAggregateResult> result{
      Status::Internal("scan scheduler produced no result")};
  bool done = false;
};

struct ScanScheduler::Batch {
  std::vector<Participant*> members;
  bool closing = false;  // window elapsed; no further joins
  std::condition_variable cv;
};

/// One *distinct* execution of a batch: members whose full execution keys
/// match collapse into a single Exec and all receive copies of its result.
struct ScanScheduler::Exec {
  const core::GroupedSpec* spec = nullptr;  // canonical (first member's)
  core::IslaOptions options;
  CacheKey pilot_key{};
  CacheKey result_key{};
  std::vector<Participant*> members;
  core::GroupedPilot pilot;
  bool pilot_cached = false;
  core::GroupedBlockPartial main;
  uint64_t scan = 0;
  Status failed = Status::OK();
};

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

}  // namespace

ScanScheduler::ScanScheduler(ScanSchedulerOptions options)
    : options_(options) {}

ScanScheduler::~ScanScheduler() = default;

ScanSchedulerStats ScanScheduler::stats() const {
  std::lock_guard<std::mutex> lk(cache_mu_);
  return stats_;
}

void ScanScheduler::ClearCaches() {
  std::lock_guard<std::mutex> lk(cache_mu_);
  pilot_lru_.clear();
  pilot_index_.clear();
  result_lru_.clear();
  result_index_.clear();
}

ScanScheduler::CacheKey ScanScheduler::MakeCacheKey(const Participant& p,
                                                    bool pilot) {
  const bool has_pred = p.spec->predicate != nullptr;
  CacheKey k{};
  k[0] = p.value_fp;
  k[1] = p.pred_fp;
  k[2] = has_pred ? static_cast<uint64_t>(p.spec->op) + 1 : 0;
  k[3] = has_pred ? std::bit_cast<uint64_t>(p.spec->literal) : 0;
  k[4] = p.key_fp;
  k[5] = p.options.seed;
  k[6] = p.salt;
  k[7] = p.options.sigma_pilot_size;
  // The pilot depends on none of the target parameters (it is planned
  // *into* them), so the pilot key zeroes these slots and repeated queries
  // that only move precision reuse one pilot. parallelism is excluded from
  // both keys: per-block RNG streams make answers parallelism-invariant.
  k[8] = pilot ? 0 : std::bit_cast<uint64_t>(p.options.precision);
  k[9] = pilot ? 0 : std::bit_cast<uint64_t>(p.options.confidence);
  k[10] = pilot ? 0 : std::bit_cast<uint64_t>(p.options.sampling_rate_scale);
  k[11] = pilot ? 1 : 2;
  return k;
}

Result<core::GroupedAggregateResult> ScanScheduler::Execute(
    const core::GroupedSpec& spec, const core::IslaOptions& options,
    uint64_t seed_salt) {
  ISLA_RETURN_NOT_OK(options.Validate());
  ISLA_RETURN_NOT_OK(core::ValidateGroupedSpec(spec));

  Participant self;
  self.spec = &spec;
  self.options = options;
  self.salt = seed_salt;
  self.value_fp = spec.values->ContentFingerprint();
  self.pred_fp =
      spec.predicate == nullptr ? 0 : spec.predicate->ContentFingerprint();
  self.key_fp = spec.keys == nullptr ? 0 : spec.keys->ContentFingerprint();
  self.result_key = MakeCacheKey(self, /*pilot=*/false);
  self.pilot_key = MakeCacheKey(self, /*pilot=*/true);
  {
    std::lock_guard<std::mutex> lk(cache_mu_);
    ++stats_.queries;
  }

  // Two queries may share a scan iff they consume the same per-block RNG
  // streams over the same bytes: (column content, seed, method salt).
  const BatchKey bkey{self.value_fp, options.seed, seed_salt};
  std::shared_ptr<Batch> batch;
  if (options_.admission_window_micros > 0) {
    std::unique_lock<std::mutex> lk(mu_);
    auto it = open_.find(bkey);
    if (it != open_.end() && !it->second->closing) {
      // Join the open batch and wait for its leader to fan out.
      std::shared_ptr<Batch> joined = it->second;
      joined->members.push_back(&self);
      joined->cv.wait(lk, [&] { return self.done; });
      return std::move(self.result);
    }
    batch = std::make_shared<Batch>();
    batch->members.push_back(&self);
    open_[bkey] = batch;
  }

  if (batch == nullptr) {
    // Admission batching disabled: a solo batch still goes through the
    // caches and the shared-pass machinery.
    std::vector<Participant*> members{&self};
    RunBatch(members);
    return std::move(self.result);
  }

  // Leader: hold the admission window open, then close and run the batch.
  std::this_thread::sleep_for(
      std::chrono::microseconds(options_.admission_window_micros));
  std::vector<Participant*> members;
  {
    std::lock_guard<std::mutex> lk(mu_);
    batch->closing = true;
    open_.erase(bkey);
    members = batch->members;
  }
  RunBatch(members);
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (Participant* m : members) m->done = true;
  }
  batch->cv.notify_all();
  return std::move(self.result);
}

void ScanScheduler::RunBatch(std::vector<Participant*>& members) {
  if (members.size() >= 2) {
    std::lock_guard<std::mutex> lk(cache_mu_);
    ++stats_.shared_batches;
    stats_.batched_queries += members.size();
  }

  // --- Result cache: hits are already the exact standalone bytes. ---
  std::vector<Participant*> remaining;
  remaining.reserve(members.size());
  for (Participant* m : members) {
    bool hit = false;
    if (options_.enable_result_cache) {
      std::lock_guard<std::mutex> lk(cache_mu_);
      auto it = result_index_.find(m->result_key);
      if (it != result_index_.end()) {
        result_lru_.splice(result_lru_.begin(), result_lru_, it->second);
        m->result = it->second->second;
        ++stats_.result_cache_hits;
        hit = true;
      } else {
        ++stats_.result_cache_misses;
      }
    }
    if (!hit) remaining.push_back(m);
  }

  uint64_t rows_gathered = 0;
  if (!remaining.empty()) {
    const uint64_t seed = remaining[0]->options.seed;
    const uint64_t salt = remaining[0]->salt;

    // --- Dedup identical executions: one pass serves every holder. ---
    std::vector<std::unique_ptr<Exec>> execs;
    std::map<CacheKey, size_t> exec_of;
    for (Participant* m : remaining) {
      auto [it, inserted] = exec_of.try_emplace(m->result_key, execs.size());
      if (inserted) {
        auto e = std::make_unique<Exec>();
        e->spec = m->spec;
        e->options = m->options;
        e->pilot_key = m->pilot_key;
        e->result_key = m->result_key;
        execs.push_back(std::move(e));
      }
      execs[it->second]->members.push_back(m);
    }

    // Parallelism: honor the most permissive participant; any participant
    // on auto (0) keeps auto. Answers are parallelism-invariant, so this
    // only moves wall clock.
    uint32_t parallelism = 1;
    for (const auto& e : execs) {
      if (e->options.parallelism == 0) parallelism = 0;
      if (parallelism != 0) {
        parallelism = std::max(parallelism, e->options.parallelism);
      }
    }

    const storage::Column& values = *execs[0]->spec->values;
    const uint64_t num_rows = values.num_rows();
    const std::vector<uint64_t> sizes = values.BlockSizes();

    // --- Pre-estimation: pilot cache, then one shared pilot pass. ---
    std::vector<Exec*> need_pilot;
    for (auto& e : execs) {
      if (options_.enable_pilot_cache) {
        std::lock_guard<std::mutex> lk(cache_mu_);
        auto it = pilot_index_.find(e->pilot_key);
        if (it != pilot_index_.end()) {
          pilot_lru_.splice(pilot_lru_.begin(), pilot_lru_, it->second);
          e->pilot = it->second->second;
          e->pilot_cached = true;
          ++stats_.pilot_cache_hits;
          continue;
        }
        ++stats_.pilot_cache_misses;
      }
      need_pilot.push_back(e.get());
    }
    if (!need_pilot.empty()) {
      std::vector<std::vector<uint64_t>> alloc;
      alloc.reserve(need_pilot.size());
      for (Exec* e : need_pilot) {
        alloc.push_back(sampling::ProportionalAllocation(
            sizes,
            std::min<uint64_t>(e->options.sigma_pilot_size, num_rows)));
      }
      std::vector<core::GroupedBlockPartial> merged(need_pilot.size());
      std::vector<core::GroupedBlockPartial*> merged_ptrs;
      for (auto& p : merged) merged_ptrs.push_back(&p);
      Status pass = SharedPass(need_pilot, seed, salt, core::kGroupPilotSalt,
                               alloc, parallelism, merged_ptrs,
                               &rows_gathered);
      for (size_t i = 0; i < need_pilot.size(); ++i) {
        Exec* e = need_pilot[i];
        if (!pass.ok() && e->failed.ok()) e->failed = pass;
        if (!e->failed.ok()) continue;
        e->pilot.pilot_samples = merged[i].scanned;
        e->pilot.all = merged[i].all;
        e->pilot.groups = std::move(merged[i].groups);
        if (options_.enable_pilot_cache) {
          std::lock_guard<std::mutex> lk(cache_mu_);
          LruPut(&pilot_lru_, &pilot_index_, e->pilot_key, e->pilot,
                 options_.cache_capacity);
        }
      }
    }

    // --- Calculation: per-execution plan, one shared main pass sized for
    // the weakest participant of each block. ---
    std::vector<Exec*> need_calc;
    for (auto& e : execs) {
      if (!e->failed.ok()) continue;
      Result<uint64_t> scan =
          core::PlanGroupedScan(e->pilot, e->options, num_rows);
      if (!scan.ok()) {
        e->failed = scan.status();
        continue;
      }
      e->scan = *scan;
      if (e->scan > 0) need_calc.push_back(e.get());
    }
    if (!need_calc.empty()) {
      std::vector<std::vector<uint64_t>> alloc;
      alloc.reserve(need_calc.size());
      for (Exec* e : need_calc) {
        alloc.push_back(sampling::ProportionalAllocation(sizes, e->scan));
      }
      std::vector<core::GroupedBlockPartial*> merged_ptrs;
      for (Exec* e : need_calc) merged_ptrs.push_back(&e->main);
      Status pass = SharedPass(need_calc, seed, salt, core::kGroupCalcSalt,
                               alloc, parallelism, merged_ptrs,
                               &rows_gathered);
      for (Exec* e : need_calc) {
        if (!pass.ok() && e->failed.ok()) e->failed = pass;
      }
    }

    // --- Summarization + fan-out + result-cache insert. ---
    for (auto& e : execs) {
      if (e->failed.ok()) {
        Result<core::GroupedAggregateResult> summary = core::SummarizeGroups(
            e->main.groups, num_rows, e->main.scanned,
            e->pilot.pilot_samples, e->options);
        if (summary.ok() && options_.enable_result_cache) {
          std::lock_guard<std::mutex> lk(cache_mu_);
          LruPut(&result_lru_, &result_index_, e->result_key, *summary,
                 options_.cache_capacity);
        }
        for (Participant* m : e->members) m->result = summary;
      } else {
        for (Participant* m : e->members) m->result = e->failed;
      }
    }
  }

  // rows_requested counts what standalone executions would have sampled —
  // cache hits and deduped members included, which is exactly the work the
  // scheduler avoided re-doing.
  uint64_t rows_requested = 0;
  for (Participant* m : members) {
    if (m->result.ok()) {
      rows_requested += m->result->scanned_samples + m->result->pilot_samples;
    }
  }
  std::lock_guard<std::mutex> lk(cache_mu_);
  stats_.rows_gathered += rows_gathered;
  stats_.rows_requested += rows_requested;
}

Status ScanScheduler::SharedPass(
    std::vector<Exec*>& active, uint64_t seed, uint64_t salt,
    uint64_t phase_salt, const std::vector<std::vector<uint64_t>>& alloc,
    uint32_t parallelism, std::vector<core::GroupedBlockPartial*> merged_out,
    uint64_t* rows_gathered) {
  const storage::Column& values = *active[0]->spec->values;
  const size_t num_blocks = values.num_blocks();
  const size_t num_execs = active.size();

  // Distinct predicate/key columns by content fingerprint: each is gathered
  // once per batch from a canonical holder and served to every execution
  // that references equal content.
  struct AuxCol {
    uint64_t fp;
    const storage::Column* col;
  };
  std::vector<AuxCol> pred_cols, key_cols;
  std::vector<int> pred_of(num_execs, -1), key_of(num_execs, -1);
  auto intern = [](std::vector<AuxCol>* cols, uint64_t fp,
                   const storage::Column* col) {
    for (size_t i = 0; i < cols->size(); ++i) {
      if ((*cols)[i].fp == fp) return static_cast<int>(i);
    }
    cols->push_back({fp, col});
    return static_cast<int>(cols->size() - 1);
  };
  for (size_t e = 0; e < num_execs; ++e) {
    const core::GroupedSpec* spec = active[e]->spec;
    if (spec->predicate != nullptr) {
      pred_of[e] = intern(&pred_cols, spec->predicate->ContentFingerprint(),
                          spec->predicate);
    }
    if (spec->keys != nullptr) {
      key_of[e] =
          intern(&key_cols, spec->keys->ContentFingerprint(), spec->keys);
    }
  }

  // Per-(execution, block) partials and statuses: all blocks complete even
  // when one execution's routing fails, so errors stay per-execution (the
  // ISSUE's isolation contract) and merge order stays block order.
  std::vector<std::vector<core::GroupedBlockPartial>> partials(num_execs);
  for (auto& p : partials) p.resize(num_blocks);
  std::vector<Status> block_status(num_blocks, Status::OK());
  std::vector<std::vector<Status>> exec_status(
      num_execs, std::vector<Status>(num_blocks, Status::OK()));
  std::vector<uint64_t> gathered(num_blocks, 0);

  ISLA_RETURN_NOT_OK(runtime::ParallelFor(
      num_blocks, parallelism, [&](uint64_t j) -> Status {
        uint64_t shared = 0;
        for (size_t e = 0; e < num_execs; ++e) {
          shared = std::max(shared, alloc[e][j]);
        }
        const storage::Block& vb = *values.blocks()[j];
        const uint64_t n = vb.size();
        for (size_t e = 0; e < num_execs; ++e) {
          partials[e][j].block_rows = n;
        }
        if (shared == 0) return Status::OK();
        if (n == 0) {
          block_status[j] =
              Status::FailedPrecondition("cannot sample empty block");
          return Status::OK();
        }

        // The standalone stream of every participant: prefix-shared by
        // sequential RNG consumption in GenerateUniformIndices.
        Xoshiro256 rng(SplitMix64::Hash(seed, salt ^ phase_salt, j));
        runtime::ScratchPool::Lease lease = scratch_pool_.Acquire();
        runtime::ScratchArena* s = lease.get();
        std::vector<std::vector<double>> pred_buf(pred_cols.size());
        std::vector<std::vector<double>> key_buf(key_cols.size());
        std::vector<std::vector<uint8_t>> mask_buf(num_execs);
        std::vector<uint64_t> remaining(num_execs);
        for (size_t e = 0; e < num_execs; ++e) remaining[e] = alloc[e][j];

        for (uint64_t done = 0; done < shared;) {
          const uint64_t batch =
              std::min<uint64_t>(sampling::kGatherBatch, shared - done);
          sampling::GenerateUniformIndices(n, batch, &rng, &s->indices);
          s->values.resize(batch);
          Status g = storage::GatherInto(vb, s->indices, s->values.data());
          if (!g.ok()) {
            block_status[j] = g;
            return Status::OK();
          }
          // Gather each distinct aux column once, only while some live
          // execution still needs it. Skipping a gather never moves the
          // value RNG stream, so exhausted executions stay bit-exact.
          for (size_t p = 0; p < pred_cols.size(); ++p) {
            bool needed = false;
            for (size_t e = 0; e < num_execs; ++e) {
              if (pred_of[e] == static_cast<int>(p) && remaining[e] > 0 &&
                  exec_status[e][j].ok()) {
                needed = true;
                break;
              }
            }
            if (!needed) continue;
            pred_buf[p].resize(batch);
            g = storage::GatherInto(*pred_cols[p].col->blocks()[j],
                                    s->indices, pred_buf[p].data());
            if (!g.ok()) {
              for (size_t e = 0; e < num_execs; ++e) {
                if (pred_of[e] == static_cast<int>(p) &&
                    exec_status[e][j].ok()) {
                  exec_status[e][j] = g;
                  remaining[e] = 0;
                }
              }
            }
          }
          for (size_t k = 0; k < key_cols.size(); ++k) {
            bool needed = false;
            for (size_t e = 0; e < num_execs; ++e) {
              if (key_of[e] == static_cast<int>(k) && remaining[e] > 0 &&
                  exec_status[e][j].ok()) {
                needed = true;
                break;
              }
            }
            if (!needed) continue;
            key_buf[k].resize(batch);
            g = storage::GatherInto(*key_cols[k].col->blocks()[j],
                                    s->indices, key_buf[k].data());
            if (!g.ok()) {
              for (size_t e = 0; e < num_execs; ++e) {
                if (key_of[e] == static_cast<int>(k) &&
                    exec_status[e][j].ok()) {
                  exec_status[e][j] = g;
                  remaining[e] = 0;
                }
              }
            }
          }

          // Route each execution's prefix: m = min(batch, remaining) cuts
          // at the same kGatherBatch boundaries its standalone run uses,
          // so accumulators see the identical Add sequence.
          for (size_t e = 0; e < num_execs; ++e) {
            if (remaining[e] == 0 || !exec_status[e][j].ok()) continue;
            const uint64_t m = std::min<uint64_t>(batch, remaining[e]);
            const core::GroupedSpec* spec = active[e]->spec;
            const uint8_t* mask = nullptr;
            if (pred_of[e] >= 0) {
              std::vector<uint8_t>& mb = mask_buf[e];
              mb.resize(batch);
              core::EvalPredicateMask(
                  spec->op, {pred_buf[pred_of[e]].data(), batch},
                  spec->literal, mb.data());
              mask = mb.data();
            }
            const double* keys =
                key_of[e] >= 0 ? key_buf[key_of[e]].data() : nullptr;
            Status routed = core::RouteGroupedBatch(
                {s->values.data(), m}, mask, keys, &partials[e][j].all,
                &partials[e][j].groups, s);
            if (!routed.ok()) {
              exec_status[e][j] = routed;
              remaining[e] = 0;
              continue;
            }
            remaining[e] -= m;
          }
          done += batch;
        }
        for (size_t e = 0; e < num_execs; ++e) {
          if (exec_status[e][j].ok()) partials[e][j].scanned += alloc[e][j];
        }
        gathered[j] = shared;
        return Status::OK();
      }));

  // Merge in block order — the same deterministic order GroupByEngine uses.
  for (size_t e = 0; e < num_execs; ++e) {
    Exec* exec = active[e];
    if (!exec->failed.ok()) continue;
    for (size_t j = 0; j < num_blocks; ++j) {
      if (!block_status[j].ok()) {
        exec->failed = block_status[j];
        break;
      }
      if (!exec_status[e][j].ok()) {
        exec->failed = exec_status[e][j];
        break;
      }
      Status merged = merged_out[e]->Merge(partials[e][j]);
      if (!merged.ok()) {
        exec->failed = merged;
        break;
      }
    }
  }
  for (uint64_t g : gathered) *rows_gathered += g;
  return Status::OK();
}

}  // namespace engine
}  // namespace isla
