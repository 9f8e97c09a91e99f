// Tests for the distributed execution simulation (§VII-E): message
// round-trips, worker behaviour, coordinator aggregation, and transport
// fault injection.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <memory>

#include "core/engine.h"
#include "distributed/coordinator.h"
#include "distributed/message.h"
#include "distributed/worker.h"
#include "sampling/samplers.h"
#include "stats/distribution.h"
#include "storage/block.h"
#include "util/rng.h"
#include "workload/datasets.h"

namespace isla {
namespace distributed {
namespace {

TEST(Messages, PilotRequestRoundTrip) {
  PilotRequest m{/*query_id=*/7, /*sample_count=*/1000, /*seed=*/42};
  auto decoded = DecodePilotRequest(Encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->query_id, 7u);
  EXPECT_EQ(decoded->sample_count, 1000u);
  EXPECT_EQ(decoded->seed, 42u);
}

TEST(Messages, PilotResponseRoundTrip) {
  PilotResponse m;
  m.query_id = 3;
  m.worker_id = 2;
  m.block_rows = 999;
  m.count = 100;
  m.mean = 99.5;
  m.m2 = 400.25;
  m.min_value = -3.5;
  auto decoded = DecodePilotResponse(Encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->worker_id, 2u);
  EXPECT_DOUBLE_EQ(decoded->mean, 99.5);
  EXPECT_DOUBLE_EQ(decoded->m2, 400.25);
  EXPECT_DOUBLE_EQ(decoded->min_value, -3.5);
}

TEST(Messages, QueryPlanRoundTripsOptions) {
  QueryPlan m;
  m.query_id = 5;
  m.sample_count = 12345;
  m.seed = 777;
  m.sketch0 = 101.25;
  m.sigma = 19.5;
  m.shift = 250.0;
  m.options.precision = 0.25;
  m.options.step_length_factor = 0.6;
  m.options.clamp_to_sketch_interval = false;
  m.options.q_prime_severe = 12.0;
  auto decoded = DecodeQueryPlan(Encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_DOUBLE_EQ(decoded->sketch0, 101.25);
  EXPECT_DOUBLE_EQ(decoded->shift, 250.0);
  EXPECT_DOUBLE_EQ(decoded->options.precision, 0.25);
  EXPECT_DOUBLE_EQ(decoded->options.step_length_factor, 0.6);
  EXPECT_FALSE(decoded->options.clamp_to_sketch_interval);
  EXPECT_DOUBLE_EQ(decoded->options.q_prime_severe, 12.0);
}

TEST(Messages, PartialResultRoundTrip) {
  PartialResult m;
  m.query_id = 9;
  m.worker_id = 4;
  m.avg = 100.125;
  m.s_count = 10;
  m.l_count = 12;
  m.iterations = 8;
  m.alpha = -0.25;
  m.s_sum = 1.0;
  m.l_sum3 = 7.0;
  auto decoded = DecodePartialResult(Encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_DOUBLE_EQ(decoded->avg, 100.125);
  EXPECT_DOUBLE_EQ(decoded->alpha, -0.25);
  EXPECT_DOUBLE_EQ(decoded->l_sum3, 7.0);
}

TEST(Messages, DecodeRejectsWrongType) {
  PilotRequest m{1, 2, 3};
  EXPECT_TRUE(DecodeQueryPlan(Encode(m)).status().IsCorruption());
  EXPECT_TRUE(DecodePilotResponse(Encode(m)).status().IsCorruption());
}

TEST(Messages, DecodeRejectsTruncationAndTrailing) {
  std::string frame = Encode(PilotRequest{1, 2, 3});
  std::string truncated = frame.substr(0, frame.size() - 1);
  EXPECT_TRUE(DecodePilotRequest(truncated).status().IsCorruption());
  std::string padded = frame + "x";
  EXPECT_TRUE(DecodePilotRequest(padded).status().IsCorruption());
}

TEST(Messages, PeekTypeValidates) {
  EXPECT_TRUE(PeekType("ab").status().IsCorruption());
  std::string bogus(8, '\xff');
  EXPECT_TRUE(PeekType(bogus).status().IsCorruption());
  auto t = PeekType(Encode(PilotRequest{1, 2, 3}));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, MessageType::kPilotRequest);
}

std::unique_ptr<Worker> NormalWorker(uint64_t id, uint64_t rows,
                                     double mu = 100.0, double sigma = 20.0) {
  return std::make_unique<Worker>(
      id, std::make_shared<storage::GeneratorBlock>(
              std::make_shared<stats::NormalDistribution>(mu, sigma), rows,
              SplitMix64::Hash(5150, id)));
}

TEST(Worker, PilotResponseCarriesLocalStats) {
  auto worker = NormalWorker(0, 1'000'000);
  PilotRequest req{1, 5000, 11};
  auto resp_frame = worker->HandleRequest(Encode(req));
  ASSERT_TRUE(resp_frame.ok());
  auto resp = DecodePilotResponse(*resp_frame);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->block_rows, 1'000'000u);
  EXPECT_EQ(resp->count, 5000u);
  EXPECT_NEAR(resp->mean, 100.0, 1.5);
  double sigma = std::sqrt(resp->m2 / (resp->count - 1));
  EXPECT_NEAR(sigma, 20.0, 1.5);
}

TEST(Worker, RejectsForeignMessageTypes) {
  auto worker = NormalWorker(0, 1000);
  PartialResult pr;
  EXPECT_TRUE(
      worker->HandleRequest(Encode(pr)).status().IsInvalidArgument());
  EXPECT_TRUE(worker->HandleRequest("junk").status().IsCorruption());
}

TEST(Coordinator, DistributedMatchesTruth) {
  std::vector<std::unique_ptr<Worker>> workers;
  for (uint64_t w = 0; w < 8; ++w) {
    workers.push_back(NormalWorker(w, 10'000'000));
  }
  LoopbackTransport transport(std::move(workers));
  core::IslaOptions options;
  options.precision = 0.2;
  Coordinator coordinator(&transport, options);
  auto r = coordinator.AggregateAvg();
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_NEAR(r->average, 100.0, 0.4);
  EXPECT_EQ(r->data_size, 80'000'000u);
  EXPECT_EQ(r->partials.size(), 8u);
  EXPECT_GT(r->total_samples, 0u);
}

TEST(Coordinator, HeterogeneousShardSizesWeightCorrectly) {
  std::vector<std::unique_ptr<Worker>> workers;
  workers.push_back(NormalWorker(0, 9'000'000, 10.0, 1.0));
  workers.push_back(NormalWorker(1, 3'000'000, 50.0, 1.0));
  LoopbackTransport transport(std::move(workers));
  core::IslaOptions options;
  options.precision = 0.2;
  Coordinator coordinator(&transport, options);
  auto r = coordinator.AggregateAvg();
  ASSERT_TRUE(r.ok());
  // True mean = (9M·10 + 3M·50)/12M = 20.
  EXPECT_NEAR(r->average, 20.0, 1.0);
}

TEST(Coordinator, SumEqualsAvgTimesRows) {
  std::vector<std::unique_ptr<Worker>> workers;
  workers.push_back(NormalWorker(0, 2'000'000));
  LoopbackTransport transport(std::move(workers));
  core::IslaOptions options;
  options.precision = 0.5;
  Coordinator coordinator(&transport, options);
  auto r = coordinator.AggregateAvg();
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->sum, r->average * 2e6);
}

TEST(Coordinator, NoWorkersFails) {
  LoopbackTransport transport({});
  Coordinator coordinator(&transport, core::IslaOptions{});
  EXPECT_TRUE(
      coordinator.AggregateAvg().status().IsFailedPrecondition());
}

/// Fault injection: a transport that corrupts response frames.
class CorruptingTransport : public Transport {
 public:
  explicit CorruptingTransport(std::unique_ptr<Worker> worker)
      : worker_(std::move(worker)) {}

  Result<std::string> Call(uint64_t, const std::string& frame) override {
    ISLA_ASSIGN_OR_RETURN(std::string resp, worker_->HandleRequest(frame));
    resp[resp.size() / 2] ^= 0x01;  // Flip a payload bit.
    resp.pop_back();                // And truncate.
    return resp;
  }
  size_t size() const override { return 1; }

 private:
  std::unique_ptr<Worker> worker_;
};

TEST(Coordinator, CorruptedFramesSurfaceAsErrors) {
  CorruptingTransport transport(NormalWorker(0, 100'000));
  Coordinator coordinator(&transport, core::IslaOptions{});
  auto r = coordinator.AggregateAvg();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

/// Fault injection: a transport where one worker is unreachable.
class FlakyTransport : public Transport {
 public:
  explicit FlakyTransport(std::vector<std::unique_ptr<Worker>> workers)
      : inner_(std::move(workers)) {}

  Result<std::string> Call(uint64_t worker_id,
                           const std::string& frame) override {
    if (worker_id == 1) return Status::IOError("worker 1 unreachable");
    return inner_.Call(worker_id, frame);
  }
  size_t size() const override { return inner_.size(); }

 private:
  LoopbackTransport inner_;
};

TEST(Coordinator, UnreachableWorkerPropagates) {
  std::vector<std::unique_ptr<Worker>> workers;
  workers.push_back(NormalWorker(0, 100'000));
  workers.push_back(NormalWorker(1, 100'000));
  FlakyTransport transport(std::move(workers));
  Coordinator coordinator(&transport, core::IslaOptions{});
  auto r = coordinator.AggregateAvg();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
}

/// Fault injection: shards 2 and 5 fail every call with distinguishable
/// statuses; every call is counted per shard.
class FailingShardsTransport : public Transport {
 public:
  FailingShardsTransport() : inner_(Workers()), calls_(kShards) {}

  Result<std::string> Call(uint64_t worker_id,
                           const std::string& frame) override {
    calls_[worker_id].fetch_add(1);
    if (worker_id == 2) return Status::IOError("shard 2 down");
    if (worker_id == 5) return Status::NotFound("shard 5 down");
    return inner_.Call(worker_id, frame);
  }
  size_t size() const override { return kShards; }
  int calls(uint64_t worker_id) const { return calls_[worker_id].load(); }

 private:
  static constexpr uint64_t kShards = 8;
  static std::vector<std::unique_ptr<Worker>> Workers() {
    std::vector<std::unique_ptr<Worker>> workers;
    for (uint64_t w = 0; w < kShards; ++w) {
      workers.push_back(NormalWorker(w, 10'000));
    }
    return workers;
  }

  LoopbackTransport inner_;
  std::vector<std::atomic<int>> calls_;
};

TEST(Coordinator, FailedRoundReportsLowestFailingShard) {
  // Every coordinator round shares one fan-out: whatever the schedule, a
  // failed round reports the lowest failing shard, and run sequentially it
  // never calls a shard above that one. The first round of either query
  // kind (σ pilot / shard metadata) is the one that fails here.
  for (uint32_t parallelism : {1u, 4u}) {
    core::IslaOptions options;
    options.parallelism = parallelism;

    FailingShardsTransport avg_transport;
    auto avg = Coordinator(&avg_transport, options).AggregateAvg();
    ASSERT_FALSE(avg.ok());
    EXPECT_TRUE(avg.status().IsIOError()) << avg.status();
    EXPECT_EQ(avg.status().message(), "shard 2 down");

    FailingShardsTransport grouped_transport;
    auto grouped =
        Coordinator(&grouped_transport, options).AggregateGrouped({});
    ASSERT_FALSE(grouped.ok());
    EXPECT_TRUE(grouped.status().IsIOError()) << grouped.status();
    EXPECT_EQ(grouped.status().message(), "shard 2 down");

    if (parallelism == 1) {
      for (uint64_t w = 0; w <= 2; ++w) {
        EXPECT_EQ(avg_transport.calls(w), 1) << "shard " << w;
        EXPECT_EQ(grouped_transport.calls(w), 1) << "shard " << w;
      }
      for (uint64_t w = 3; w < 8; ++w) {
        EXPECT_EQ(avg_transport.calls(w), 0) << "shard " << w;
        EXPECT_EQ(grouped_transport.calls(w), 0) << "shard " << w;
      }
    }
  }
}

TEST(Messages, GroupedScanRequestRoundTrip) {
  GroupedScanRequest m;
  m.query_id = 11;
  m.sample_count = 4096;
  m.stream_seed = 0xabcdef;
  m.has_predicate = 1;
  m.op = core::PredicateOp::kLe;
  m.literal = -12.5;
  m.has_group = 1;
  auto decoded = DecodeGroupedScanRequest(Encode(m));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->sample_count, 4096u);
  EXPECT_EQ(decoded->op, core::PredicateOp::kLe);
  EXPECT_DOUBLE_EQ(decoded->literal, -12.5);
  EXPECT_EQ(decoded->has_group, 1u);
}

TEST(Messages, GroupedScanResponseRoundTripsGroupMap) {
  GroupedScanResponse m;
  m.query_id = 4;
  m.worker_id = 2;
  m.partial.block_rows = 1000;
  m.partial.scanned = 500;
  for (double v : {1.0, 2.0, 3.0}) m.partial.all.Add(v);
  for (double v : {1.0, 3.0}) m.partial.groups[0.0].Add(v);
  m.partial.groups[7.5].Add(2.0);
  auto decoded = DecodeGroupedScanResponse(Encode(m));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->partial.scanned, 500u);
  ASSERT_EQ(decoded->partial.groups.size(), 2u);
  // Bit-exact round trip of the merge state.
  EXPECT_EQ(decoded->partial.all.mean, m.partial.all.mean);
  EXPECT_EQ(decoded->partial.all.m2, m.partial.all.m2);
  EXPECT_EQ(decoded->partial.groups.at(0.0).n, 2u);
  EXPECT_EQ(decoded->partial.groups.at(0.0).mean,
            m.partial.groups.at(0.0).mean);
  EXPECT_EQ(decoded->partial.groups.at(7.5).n, 1u);
}

TEST(Messages, GroupedScanResponseRejectsDamage) {
  GroupedScanResponse m;
  m.partial.groups[1.0].Add(5.0);
  std::string frame = Encode(m);
  EXPECT_TRUE(DecodeGroupedScanResponse(frame.substr(0, frame.size() - 3))
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(
      DecodeGroupedScanResponse(frame + "zz").status().IsCorruption());
  // A frame claiming more groups than the cap must be refused before any
  // allocation happens.
  GroupedScanResponse empty;
  std::string huge = Encode(empty);
  // group-count field is the last 8 bytes of an empty response.
  uint64_t bogus = core::kMaxGroups + 1;
  std::memcpy(huge.data() + huge.size() - sizeof(bogus), &bogus,
              sizeof(bogus));
  EXPECT_TRUE(DecodeGroupedScanResponse(huge).status().IsCorruption());
}

/// Builds `blocks` row-aligned (value, predicate, key) MemoryBlock shards
/// and returns them both as columns (for the local engine) and as
/// per-shard block triples (for workers).
struct GroupedFixture {
  storage::Column values{"v"};
  storage::Column preds{"p"};
  storage::Column keys{"k"};
  std::vector<std::array<storage::BlockPtr, 3>> shards;
};

std::unique_ptr<GroupedFixture> MakeGroupedFixture(uint64_t rows_per_block,
                                                   uint64_t blocks,
                                                   uint64_t seed) {
  auto fx = std::make_unique<GroupedFixture>();
  Xoshiro256 rng(seed);
  for (uint64_t b = 0; b < blocks; ++b) {
    std::vector<double> vals, preds, keys;
    for (uint64_t i = 0; i < rows_per_block; ++i) {
      double key = static_cast<double>(rng.NextBounded(4));
      vals.push_back(25.0 * (key + 1.0) + 3.0 * rng.NextDouble());
      preds.push_back(rng.NextDouble());
      keys.push_back(key);
    }
    auto vb = std::make_shared<storage::MemoryBlock>(std::move(vals));
    auto pb = std::make_shared<storage::MemoryBlock>(std::move(preds));
    auto kb = std::make_shared<storage::MemoryBlock>(std::move(keys));
    EXPECT_TRUE(fx->values.AppendBlock(vb).ok());
    EXPECT_TRUE(fx->preds.AppendBlock(pb).ok());
    EXPECT_TRUE(fx->keys.AppendBlock(kb).ok());
    fx->shards.push_back({vb, pb, kb});
  }
  return fx;
}

TEST(Coordinator, GroupedLoopbackIsBitIdenticalToLocalEngine) {
  // The acceptance bar for the distributed grouped path: the loopback
  // cluster — every byte crossing serialized frames — must reproduce the
  // single-node GroupByEngine answer bit for bit, because workers replay
  // the same per-block RNG streams and the coordinator reuses the same
  // planning/merge/summarize functions.
  auto fx = MakeGroupedFixture(50'000, 4, 31337);
  core::IslaOptions options;
  options.precision = 0.2;

  core::GroupedSpec spec;
  spec.values = &fx->values;
  spec.predicate = &fx->preds;
  spec.op = core::PredicateOp::kGe;
  spec.literal = 0.3;
  spec.keys = &fx->keys;
  core::GroupByEngine engine(options);
  auto local = engine.Aggregate(spec);
  ASSERT_TRUE(local.ok()) << local.status();

  std::vector<std::unique_ptr<Worker>> workers;
  for (uint64_t w = 0; w < fx->shards.size(); ++w) {
    workers.push_back(std::make_unique<Worker>(w, fx->shards[w][0],
                                               fx->shards[w][1],
                                               fx->shards[w][2]));
  }
  LoopbackTransport transport(std::move(workers));
  Coordinator coordinator(&transport, options);
  GroupedQuerySpec wire_spec;
  wire_spec.has_predicate = true;
  wire_spec.op = core::PredicateOp::kGe;
  wire_spec.literal = 0.3;
  wire_spec.has_group = true;
  auto dist = coordinator.AggregateGrouped(wire_spec);
  ASSERT_TRUE(dist.ok()) << dist.status();

  ASSERT_EQ(dist->groups.size(), local->groups.size());
  EXPECT_EQ(dist->data_size, local->data_size);
  EXPECT_EQ(dist->scanned_samples, local->scanned_samples);
  EXPECT_EQ(dist->pilot_samples, local->pilot_samples);
  for (size_t g = 0; g < local->groups.size(); ++g) {
    EXPECT_EQ(dist->groups[g].key, local->groups[g].key);
    EXPECT_EQ(dist->groups[g].average, local->groups[g].average);
    EXPECT_EQ(dist->groups[g].sum, local->groups[g].sum);
    EXPECT_EQ(dist->groups[g].count_estimate,
              local->groups[g].count_estimate);
    EXPECT_EQ(dist->groups[g].ci_half_width,
              local->groups[g].ci_half_width);
    EXPECT_EQ(dist->groups[g].count_ci_half_width,
              local->groups[g].count_ci_half_width);
    EXPECT_EQ(dist->groups[g].samples, local->groups[g].samples);
  }
}

TEST(Coordinator, GroupedBitIdenticalAcrossCoordinatorParallelism) {
  auto fx = MakeGroupedFixture(30'000, 8, 777);
  GroupedQuerySpec wire_spec;
  wire_spec.has_group = true;
  std::vector<core::GroupedAggregateResult> results;
  for (uint32_t parallelism : {1u, 2u, 8u}) {
    std::vector<std::unique_ptr<Worker>> workers;
    for (uint64_t w = 0; w < fx->shards.size(); ++w) {
      workers.push_back(std::make_unique<Worker>(w, fx->shards[w][0],
                                                 fx->shards[w][1],
                                                 fx->shards[w][2]));
    }
    LoopbackTransport transport(std::move(workers));
    core::IslaOptions options;
    options.precision = 0.2;
    options.parallelism = parallelism;
    Coordinator coordinator(&transport, options);
    auto r = coordinator.AggregateGrouped(wire_spec);
    ASSERT_TRUE(r.ok()) << r.status();
    results.push_back(*std::move(r));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[i].groups.size(), results[0].groups.size());
    for (size_t g = 0; g < results[0].groups.size(); ++g) {
      EXPECT_EQ(results[i].groups[g].average, results[0].groups[g].average);
      EXPECT_EQ(results[i].groups[g].count_estimate,
                results[0].groups[g].count_estimate);
    }
  }
}

TEST(Worker, GroupedScanWithoutShardsFailsCleanly) {
  // A worker holding only a value shard must refuse predicate/group scans.
  auto worker = NormalWorker(0, 10'000);
  GroupedScanRequest req;
  req.query_id = 1;
  req.sample_count = 100;
  req.has_predicate = 1;
  EXPECT_TRUE(worker->HandleRequest(Encode(req))
                  .status()
                  .IsFailedPrecondition());
  GroupedScanRequest group_req;
  group_req.query_id = 1;
  group_req.sample_count = 100;
  group_req.has_group = 1;
  EXPECT_TRUE(worker->HandleRequest(Encode(group_req))
                  .status()
                  .IsFailedPrecondition());
}

TEST(Coordinator, AgreesWithSingleNodeEngine) {
  // Worker j holds block j and replays its streams, and the coordinator's
  // query id is the engine's seed salt: the answers are the same bits.
  auto ds = workload::MakeNormalDataset(40'000'000, 4, 100.0, 20.0, 5150);
  ASSERT_TRUE(ds.ok());

  std::vector<std::unique_ptr<Worker>> workers;
  for (uint64_t w = 0; w < 4; ++w) {
    workers.push_back(
        std::make_unique<Worker>(w, ds->data()->blocks()[w]));
  }
  LoopbackTransport transport(std::move(workers));
  core::IslaOptions options;
  options.precision = 0.2;
  Coordinator coordinator(&transport, options);
  auto dist = coordinator.AggregateAvg();
  ASSERT_TRUE(dist.ok());

  core::IslaEngine engine(options);
  auto local = engine.AggregateAvg(*ds->data(), /*seed_salt=*/1);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(dist->average, local->average);
  EXPECT_EQ(dist->sum, local->sum);
  EXPECT_EQ(dist->sigma_estimate, local->sigma_estimate);
  EXPECT_EQ(dist->sketch0, local->sketch0);
  EXPECT_EQ(dist->total_samples, local->total_samples);
}

TEST(Coordinator, AgreesWithSingleNodeEngineWhenThePilotRunsInParallel) {
  // At e = 0.05 the engine's sketch pilot draws more than one gather batch
  // per block, so it runs its blocks on the pool; the workers replay the
  // same per-block streams, so the answers are still the same bits.
  auto ds = workload::MakeNormalDataset(4'000'000, 4, 100.0, 20.0, 5151);
  ASSERT_TRUE(ds.ok());

  std::vector<std::unique_ptr<Worker>> workers;
  for (uint64_t w = 0; w < 4; ++w) {
    workers.push_back(
        std::make_unique<Worker>(w, ds->data()->blocks()[w]));
  }
  LoopbackTransport transport(std::move(workers));
  core::IslaOptions options;
  options.precision = 0.05;
  options.parallelism = 4;
  Coordinator coordinator(&transport, options);
  auto dist = coordinator.AggregateAvg();
  ASSERT_TRUE(dist.ok());

  core::IslaEngine engine(options);
  auto local = engine.AggregateAvg(*ds->data(), /*seed_salt=*/1);
  ASSERT_TRUE(local.ok());
  ASSERT_GE(local->pilot_samples,
            options.sigma_pilot_size + 4 * sampling::kGatherBatch);
  EXPECT_EQ(dist->average, local->average);
  EXPECT_EQ(dist->sigma_estimate, local->sigma_estimate);
  EXPECT_EQ(dist->sketch0, local->sketch0);
  EXPECT_EQ(dist->total_samples, local->total_samples);
}

}  // namespace
}  // namespace distributed
}  // namespace isla
