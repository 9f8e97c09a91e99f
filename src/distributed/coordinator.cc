#include "distributed/coordinator.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "core/pre_estimation.h"
#include "core/summarizer.h"
#include "runtime/parallel_for.h"
#include "sampling/samplers.h"
#include "util/rng.h"

namespace isla {
namespace distributed {

LoopbackTransport::LoopbackTransport(
    std::vector<std::unique_ptr<Worker>> workers)
    : workers_(std::move(workers)) {}

Result<std::string> LoopbackTransport::Call(uint64_t worker_id,
                                            const std::string& frame) {
  if (worker_id >= workers_.size()) {
    return Status::NotFound("no such worker");
  }
  return workers_[worker_id]->HandleRequest(frame);
}

Coordinator::Coordinator(Transport* transport, core::IslaOptions options)
    : transport_(transport), options_(options) {}

Status Coordinator::FanOut(
    const std::function<Status(uint64_t)>& call) const {
  // ParallelFor runs every iteration even after a failure, but the whole
  // round is discarded on any error — so shards above a failed one are
  // skipped instead of paying for their work. Skipping only *higher*
  // indices keeps the reported error deterministic: the smallest-index
  // failing shard is never skipped (a skip would need an even smaller
  // failure), so ParallelFor's smallest-failing-index rule still yields the
  // same error no matter how the schedule interleaves.
  std::atomic<uint64_t> first_failed{std::numeric_limits<uint64_t>::max()};
  return runtime::ParallelFor(
      transport_->size(), options_.parallelism, [&](uint64_t w) -> Status {
        if (first_failed.load(std::memory_order_relaxed) < w) {
          return Status::OK();
        }
        Status s = call(w);
        if (!s.ok()) {
          uint64_t seen = first_failed.load(std::memory_order_relaxed);
          while (w < seen && !first_failed.compare_exchange_weak(
                                 seen, w, std::memory_order_relaxed)) {
          }
        }
        return s;
      });
}

Result<DistributedResult> Coordinator::AggregateAvg(uint64_t query_id) {
  if (transport_ == nullptr || transport_->size() == 0) {
    return Status::FailedPrecondition("no workers attached");
  }
  ISLA_RETURN_NOT_OK(options_.Validate());
  const size_t n_workers = transport_->size();
  // The pilot base IslaEngine::AggregateAvg draws for seed salt `query_id`.
  Xoshiro256 query_rng(SplitMix64::Hash(options_.seed, query_id));
  const uint64_t pilot_base = query_rng.Next();

  // One pilot round: worker w draws shares[w] rows on its block's stream of
  // the phase, and the draws merge in worker order — the engine's block
  // order.
  std::vector<uint64_t> shard_rows(n_workers, 0);
  auto pilot_round = [&](uint64_t phase_salt,
                         const std::vector<uint64_t>& shares,
                         core::PilotDraw* merged) -> Status {
    std::vector<core::PilotDraw> draws(n_workers);
    ISLA_RETURN_NOT_OK(FanOut([&](uint64_t w) -> Status {
      PilotRequest req{query_id, shares[w],
                       SplitMix64::Hash(pilot_base, phase_salt)};
      ISLA_ASSIGN_OR_RETURN(std::string frame,
                            transport_->Call(w, Encode(req)));
      ISLA_ASSIGN_OR_RETURN(PilotResponse resp, DecodePilotResponse(frame));
      if (resp.query_id != query_id || resp.worker_id != w) {
        return Status::Internal("pilot response for wrong query or worker");
      }
      shard_rows[w] = resp.block_rows;
      draws[w].moments = {resp.count, resp.mean, resp.m2};
      draws[w].min_value = resp.min_value;
      return Status::OK();
    }));
    for (const core::PilotDraw& draw : draws) merged->Merge(draw);
    return Status::OK();
  };

  core::PilotDraw sigma_draw;
  ISLA_RETURN_NOT_OK(pilot_round(
      core::kSigmaPilotSalt,
      std::vector<uint64_t>(n_workers,
                            core::SigmaPilotShare(options_, n_workers)),
      &sigma_draw));
  DistributedResult out;
  for (uint64_t rows : shard_rows) out.data_size += rows;
  if (out.data_size == 0) {
    return Status::FailedPrecondition("workers hold no rows");
  }
  const double sigma = std::sqrt(sigma_draw.moments.Variance());
  out.sigma_estimate = sigma;
  out.sketch0 = sigma_draw.moments.mean;
  out.average = out.sketch0;  // constant data: the pilot mean is exact
  if (sigma > 0.0) {
    ISLA_ASSIGN_OR_RETURN(core::SampleSizes sizes,
                          core::PlanSampleSizes(sigma, options_,
                                                out.data_size));
    core::PilotDraw sketch_draw;
    ISLA_RETURN_NOT_OK(pilot_round(
        core::kSketchPilotSalt,
        sampling::ProportionalAllocation(shard_rows, sizes.sketch_pilot),
        &sketch_draw));
    out.sketch0 = sketch_draw.moments.mean;
    const double shift = core::ComputeShift(
        std::min(sigma_draw.min_value, sketch_draw.min_value), sigma);

    QueryPlan plan;
    plan.query_id = query_id;
    plan.seed =
        SplitMix64::Hash(options_.seed, query_id ^ core::kCalcPhaseSalt);
    plan.sketch0 = out.sketch0 + shift;
    plan.sigma = sigma;
    plan.shift = shift;
    plan.options = options_;
    const std::vector<uint64_t> alloc =
        sampling::ProportionalAllocation(shard_rows, sizes.target);
    out.partials.resize(n_workers);
    ISLA_RETURN_NOT_OK(FanOut([&](uint64_t w) -> Status {
      QueryPlan shard_plan = plan;
      shard_plan.sample_count = alloc[w];
      ISLA_ASSIGN_OR_RETURN(std::string frame,
                            transport_->Call(w, Encode(shard_plan)));
      ISLA_ASSIGN_OR_RETURN(out.partials[w], DecodePartialResult(frame));
      if (out.partials[w].query_id != query_id) {
        return Status::Internal("partial result for wrong query");
      }
      return Status::OK();
    }));

    std::vector<double> partial_avgs;
    std::vector<uint64_t> partial_rows;
    for (const PartialResult& partial : out.partials) {
      out.total_samples += partial.samples_drawn;
      partial_avgs.push_back(partial.avg);
      partial_rows.push_back(partial.block_rows);
    }
    ISLA_ASSIGN_OR_RETURN(double avg_shifted,
                          core::SummarizePartials(partial_avgs, partial_rows));
    out.average = avg_shifted - shift;
  }
  out.sum = out.average * static_cast<double>(out.data_size);
  out.failover = transport_->failover_snapshot();
  return out;
}

Result<core::GroupedAggregateResult> Coordinator::AggregateGrouped(
    const GroupedQuerySpec& spec, uint64_t query_id, uint64_t seed_salt) {
  if (transport_ == nullptr || transport_->size() == 0) {
    return Status::FailedPrecondition("no workers attached");
  }
  ISLA_RETURN_NOT_OK(options_.Validate());
  const size_t n_workers = transport_->size();

  GroupedScanRequest base;
  base.query_id = query_id;
  base.has_predicate = spec.has_predicate ? 1 : 0;
  base.op = spec.op;
  base.literal = spec.literal;
  base.has_group = spec.has_group ? 1 : 0;

  // Runs one phase: per-worker requests fanned out by FanOut, responses
  // merged in worker order — the same deterministic merge the local engine
  // performs in block order. Every phase records the shard row counts. With
  // `want_sketch`, the phase speaks the sketch frames instead and the
  // merged partial carries per-group quantile sketches.
  std::vector<uint64_t> shard_rows(n_workers, 0);
  auto run_phase = [&](uint64_t stream_seed,
                       const std::vector<uint64_t>& alloc, bool want_sketch,
                       core::GroupedBlockPartial* merged) -> Status {
    std::vector<core::GroupedBlockPartial> partials(n_workers);
    ISLA_RETURN_NOT_OK(FanOut([&](uint64_t w) -> Status {
      GroupedScanRequest req = base;
      req.sample_count = alloc[w];
      req.stream_seed = stream_seed;
      const std::string req_frame =
          want_sketch ? Encode(SketchScanRequest{req}) : Encode(req);
      ISLA_ASSIGN_OR_RETURN(std::string resp_frame,
                            transport_->Call(w, req_frame));
      uint64_t resp_query = 0, resp_worker = 0;
      if (want_sketch) {
        ISLA_ASSIGN_OR_RETURN(SketchScanResponse resp,
                              DecodeSketchScanResponse(resp_frame));
        resp_query = resp.query_id;
        resp_worker = resp.worker_id;
        partials[w] = std::move(resp.partial);
      } else {
        ISLA_ASSIGN_OR_RETURN(GroupedScanResponse resp,
                              DecodeGroupedScanResponse(resp_frame));
        resp_query = resp.query_id;
        resp_worker = resp.worker_id;
        partials[w] = std::move(resp.partial);
      }
      if (resp_query != query_id || resp_worker != w) {
        return Status::Internal("grouped response for wrong query or worker");
      }
      shard_rows[w] = partials[w].block_rows;
      return Status::OK();
    }));
    for (const core::GroupedBlockPartial& partial : partials) {
      ISLA_RETURN_NOT_OK(merged->Merge(partial));
    }
    return Status::OK();
  };

  // --- Phase 0: shard metadata (sample_count = 0 draws nothing), giving
  // the per-shard row counts that drive proportional allocation. ---
  core::GroupedBlockPartial metadata;
  ISLA_RETURN_NOT_OK(run_phase(/*stream_seed=*/0,
                               std::vector<uint64_t>(n_workers, 0),
                               /*want_sketch=*/false, &metadata));
  const uint64_t data_size = metadata.block_rows;
  if (data_size == 0) {
    return Status::FailedPrecondition("workers hold no rows");
  }

  // --- Phase 1: grouped pilot on the per-block pilot streams. The pilot
  // never folds sketches — exactly like the local engine's pilot phase. ---
  const uint64_t pilot_size =
      std::min<uint64_t>(options_.sigma_pilot_size, data_size);
  core::GroupedBlockPartial pilot_merged;
  ISLA_RETURN_NOT_OK(run_phase(
      SplitMix64::Hash(options_.seed, seed_salt ^ core::kGroupPilotSalt),
      sampling::ProportionalAllocation(shard_rows, pilot_size),
      /*want_sketch=*/false, &pilot_merged));
  core::GroupedPilot pilot;
  pilot.pilot_samples = pilot_merged.scanned;
  pilot.all = pilot_merged.all;
  pilot.groups = std::move(pilot_merged.groups);

  // --- Phase 2: shared scan sized for the weakest group. ---
  ISLA_ASSIGN_OR_RETURN(uint64_t scan,
                        core::PlanGroupedScan(pilot, options_, data_size,
                                              spec.want_sketch));
  core::GroupedBlockPartial main_merged;
  if (scan > 0) {
    ISLA_RETURN_NOT_OK(run_phase(
        SplitMix64::Hash(options_.seed, seed_salt ^ core::kGroupCalcSalt),
        sampling::ProportionalAllocation(shard_rows, scan), spec.want_sketch,
        &main_merged));
  }

  // --- Summarization: identical pure functions as the local engine, so
  // the distributed answer matches GroupByEngine::Aggregate bit for bit. ---
  ISLA_ASSIGN_OR_RETURN(
      core::GroupedAggregateResult result,
      core::SummarizeGroups(main_merged.groups, data_size,
                            main_merged.scanned, pilot.pilot_samples,
                            options_));
  if (spec.want_sketch) {
    ISLA_RETURN_NOT_OK(core::ApplyQuantileSummary(main_merged.sketches,
                                                  spec.summary, options_,
                                                  /*sampled=*/true, &result));
  }
  core::ApplyTopK(spec.summary.top_k, &result);
  return result;
}

}  // namespace distributed
}  // namespace isla
