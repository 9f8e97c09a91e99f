// Golden wire-format suite: the exact serialized bytes of every
// distributed message frame (and of the net transport frame wrapper) are
// pinned against checked-in hex fixtures. The distributed protocol is a
// cross-version compatibility surface — a coordinator built from one
// commit must interoperate with worker daemons built from another — so
// any edit that moves a field, changes a width, or reorders the options
// block fails here *loudly* instead of silently producing garbage on
// mixed-version clusters.
//
// If a test fails because the format changed ON PURPOSE, bump the
// protocol semantics deliberately: update the fixture from the printed
// actual bytes AND treat the change as a wire-format break (old daemons
// cannot talk to new coordinators).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "distributed/message.h"
#include "stats/sketch.h"
#include "net/frame.h"
#include "net/partial.h"
#include "util/wire.h"

namespace isla {
namespace distributed {
namespace {

std::string ToHex(const std::string& bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  char buf[3];
  for (unsigned char c : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", c);
    out += buf;
  }
  return out;
}

/// EXPECT helper: on mismatch the actual hex is printed ready to paste.
void ExpectGolden(const std::string& frame, const std::string& golden_hex,
                  const char* what) {
  EXPECT_EQ(ToHex(frame), golden_hex)
      << what << " wire format changed; actual bytes:\n"
      << ToHex(frame);
}

// ---------------------------------------------------------------------------
// Fixtures. One representative message per frame type, every field set to
// a distinctive value so a swapped pair of fields cannot cancel out.
// ---------------------------------------------------------------------------

PilotRequest GoldenPilotRequest() {
  PilotRequest m;
  m.query_id = 7;
  m.sample_count = 1000;
  m.seed = 42;
  return m;
}
constexpr char kPilotRequestHex[] =
    "010000000700000000000000e8030000000000002a00000000000000";

PilotResponse GoldenPilotResponse() {
  PilotResponse m;
  m.query_id = 7;
  m.worker_id = 3;
  m.block_rows = 1'000'000;
  m.count = 500;
  m.mean = 100.25;
  m.m2 = 1234.5;
  m.min_value = -3.5;
  return m;
}
constexpr char kPilotResponseHex[] =
    "020000000700000000000000030000000000000040420f0000000000f4010000"
    "00000000000000000010594000000000004a93400000000000000cc0";

QueryPlan GoldenQueryPlan() {
  QueryPlan m;  // options stay at IslaOptions defaults: they are part of
  m.query_id = 7;  // the pinned bytes, so a default change fails here too.
  m.sample_count = 4242;
  m.seed = 99;
  m.sketch0 = 101.5;
  m.sigma = 19.75;
  m.shift = 250.0;
  return m;
}
constexpr char kQueryPlanHex[] =
    "0300000007000000000000009210000000000000630000000000000000000000"
    "006059400000000000c033400000000000406f409a9999999999b93f66666666"
    "6666ee3f0000000000000840000000000000e03f00000000000000409a999999"
    "9999e93f000000000000e03f00000000000000007b14ae47e17a843fae47e17a"
    "14aeef3f295c8fc2f528f03f0ad7a3703d0aef3f7b14ae47e17af03f14ae47e1"
    "7a14ee3ff6285c8fc2f5f03f0000000000001440000000000000244001000000"
    "00000000e8030000000000005aa1155a01000000000000000000f03f00000000"
    "00000000";

PartialResult GoldenPartialResult() {
  PartialResult m;
  m.query_id = 7;
  m.worker_id = 3;
  m.block_rows = 1'000'000;
  m.samples_drawn = 4242;
  m.avg = 100.125;
  m.s_count = 10;
  m.l_count = 12;
  m.iterations = 8;
  m.alpha = -0.25;
  m.s_sum = 1.5;
  m.s_sum2 = 2.5;
  m.s_sum3 = 3.5;
  m.l_sum = 4.5;
  m.l_sum2 = 5.5;
  m.l_sum3 = 6.5;
  return m;
}
constexpr char kPartialResultHex[] =
    "040000000700000000000000030000000000000040420f000000000092100000"
    "0000000000000000000859400a000000000000000c0000000000000008000000"
    "00000000000000000000d0bf000000000000f83f000000000000044000000000"
    "00000c40000000000000124000000000000016400000000000001a40";

GroupedScanRequest GoldenGroupedScanRequest() {
  GroupedScanRequest m;
  m.query_id = 11;
  m.sample_count = 4096;
  m.stream_seed = 0xabcdef;
  m.has_predicate = 1;
  m.op = core::PredicateOp::kLe;
  m.literal = -12.5;
  m.has_group = 1;
  return m;
}
constexpr char kGroupedScanRequestHex[] =
    "050000000b000000000000000010000000000000efcdab000000000001000000"
    "00000000030000000000000000000000000029c00100000000000000";

GroupedScanResponse GoldenGroupedScanResponse() {
  GroupedScanResponse m;
  m.query_id = 11;
  m.worker_id = 2;
  m.partial.block_rows = 1000;
  m.partial.scanned = 500;
  for (double v : {1.0, 2.0, 3.0}) m.partial.all.Add(v);
  for (double v : {1.0, 3.0}) m.partial.groups[0.0].Add(v);
  m.partial.groups[7.5].Add(2.0);
  return m;
}
constexpr char kGroupedScanResponseHex[] =
    "060000000b000000000000000200000000000000e803000000000000f4010000"
    "0000000003000000000000000000000000000040000000000000004002000000"
    "0000000000000000000000000200000000000000000000000000004000000000"
    "000000400000000000001e400100000000000000000000000000004000000000"
    "00000000";

SketchScanRequest GoldenSketchScanRequest() {
  SketchScanRequest m;
  m.scan.query_id = 13;
  m.scan.sample_count = 2048;
  m.scan.stream_seed = 0xfedcba;
  m.scan.has_predicate = 1;
  m.scan.op = core::PredicateOp::kGt;
  m.scan.literal = 6.25;
  m.scan.has_group = 1;
  return m;
}
constexpr char kSketchScanRequestHex[] =
    "0a0000000d000000000000000008000000000000badcfe000000000001000000"
    "00000000040000000000000000000000000019400100000000000000";

SketchScanResponse GoldenSketchScanResponse() {
  SketchScanResponse m;
  m.query_id = 13;
  m.worker_id = 2;
  m.partial.block_rows = 1000;
  m.partial.scanned = 500;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) m.partial.all.Add(v);
  for (double v : {1.0, 3.0, 5.0}) m.partial.groups[0.0].Add(v);
  for (double v : {2.0, 4.0}) m.partial.groups[7.5].Add(v);
  // Tiny capacity so the fixture exercises a compacted level with a
  // flipped parity — the state a real per-block sketch ships mid-query.
  stats::QuantileSketch a(4);
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) a.Add(v);
  stats::QuantileSketch b(4);
  for (double v : {2.0, 4.0}) b.Add(v);
  m.partial.sketches.emplace(0.0, std::move(a));
  m.partial.sketches.emplace(7.5, std::move(b));
  return m;
}
constexpr char kSketchScanResponseHex[] =
    "0b0000000d000000000000000200000000000000e803000000000000f4010000"
    "0000000005000000000000000000000000000840000000000000244002000000"
    "0000000000000000000000000300000000000000000000000000084000000000"
    "000020400000000000001e400200000000000000000000000000084000000000"
    "0000004002000000000000000000000000000000040000000000000005000000"
    "00000000000000000000f03f0000000000001440010000000000000002000000"
    "0000000001000000000000000100000000000000000000000000144000000000"
    "000000000200000000000000000000000000f03f000000000000084000000000"
    "00001e4004000000000000000200000000000000000000000000004000000000"
    "0000104000000000000000000100000000000000000000000000000002000000"
    "0000000000000000000000400000000000001040";

RegisterFrame GoldenRegisterFrame() {
  RegisterFrame m;
  m.shard_id = 3;
  m.port = 7101;
  m.block_rows = 25'000;
  m.fingerprint = 0x1122334455667788;
  m.host = "10.0.0.7";
  return m;
}
constexpr char kRegisterFrameHex[] =
    "080000000300000000000000bd1b000000000000a86100000000000088776655"
    "44332211080000000000000031302e302e302e37";

RegisterAck GoldenRegisterAck() {
  RegisterAck m;
  m.shard_id = 3;
  m.accepted = 1;
  m.known_shards = 4;
  m.epoch = 5;
  return m;
}
constexpr char kRegisterAckHex[] =
    "0900000003000000000000000100000000000000000000000000000004000000"
    "000000000500000000000000";

RegisterAck GoldenRefusalAck() {
  RegisterAck m;
  m.shard_id = 3;
  m.accepted = 0;
  m.reason = static_cast<uint64_t>(RegisterRefusal::kFingerprintMismatch);
  m.known_shards = 4;
  m.epoch = 7;
  return m;
}
constexpr char kRefusalAckHex[] =
    "0900000003000000000000000000000000000000010000000000000004000000"
    "000000000700000000000000";

ShardFetchRequest GoldenShardFetchRequest() {
  ShardFetchRequest m;
  m.shard_id = 3;
  m.column = kShardColumnPredicate;
  m.start_row = 4096;
  m.max_rows = 512;
  return m;
}
constexpr char kShardFetchRequestHex[] =
    "0c00000003000000000000000100000000000000001000000000000000020000"
    "00000000";

ShardBlockChunk GoldenShardBlockChunk() {
  ShardBlockChunk m;
  m.shard_id = 3;
  m.column = kShardColumnValues;
  m.column_present = 1;
  m.total_rows = 100;
  m.start_row = 8;
  m.rows = {1.5, -2.25, 64.0};
  m.crc = 0x5cb64106;  // Crc32 of the three rows' raw f64 bytes.
  return m;
}
constexpr char kShardBlockChunkHex[] =
    "0d00000003000000000000000000000000000000010000000000000064000000"
    "0000000008000000000000000641b65c00000000030000000000000000000000"
    "0000f83f00000000000002c00000000000005040";

ErrorFrame GoldenErrorFrame() {
  ErrorFrame m;
  m.code = 7;  // FailedPrecondition
  m.message = "worker has no group column shard";
  return m;
}
constexpr char kErrorFrameHex[] =
    "0700000007000000000000002000000000000000776f726b657220686173206e"
    "6f2067726f757020636f6c756d6e207368617264";

// ---------------------------------------------------------------------------
// Encode: exact bytes.
// ---------------------------------------------------------------------------

TEST(WireFormat, PilotRequest) {
  ExpectGolden(Encode(GoldenPilotRequest()), kPilotRequestHex,
               "PilotRequest");
}

TEST(WireFormat, PilotResponse) {
  ExpectGolden(Encode(GoldenPilotResponse()), kPilotResponseHex,
               "PilotResponse");
}

TEST(WireFormat, QueryPlan) {
  ExpectGolden(Encode(GoldenQueryPlan()), kQueryPlanHex, "QueryPlan");
}

TEST(WireFormat, PartialResult) {
  ExpectGolden(Encode(GoldenPartialResult()), kPartialResultHex,
               "PartialResult");
}

TEST(WireFormat, GroupedScanRequest) {
  ExpectGolden(Encode(GoldenGroupedScanRequest()), kGroupedScanRequestHex,
               "GroupedScanRequest");
}

TEST(WireFormat, GroupedScanResponse) {
  ExpectGolden(Encode(GoldenGroupedScanResponse()),
               kGroupedScanResponseHex, "GroupedScanResponse");
}

TEST(WireFormat, SketchScanRequest) {
  ExpectGolden(Encode(GoldenSketchScanRequest()), kSketchScanRequestHex,
               "SketchScanRequest");
}

TEST(WireFormat, SketchScanResponse) {
  ExpectGolden(Encode(GoldenSketchScanResponse()),
               kSketchScanResponseHex, "SketchScanResponse");
}

TEST(WireFormat, ErrorFrame) {
  ExpectGolden(Encode(GoldenErrorFrame()), kErrorFrameHex, "ErrorFrame");
}

TEST(WireFormat, RegisterFrame) {
  ExpectGolden(Encode(GoldenRegisterFrame()), kRegisterFrameHex,
               "RegisterFrame");
}

TEST(WireFormat, RegisterAck) {
  ExpectGolden(Encode(GoldenRegisterAck()), kRegisterAckHex, "RegisterAck");
}

TEST(WireFormat, RefusalRegisterAck) {
  ExpectGolden(Encode(GoldenRefusalAck()), kRefusalAckHex,
               "RegisterAck (refusal)");
}

TEST(WireFormat, ShardFetchRequest) {
  ExpectGolden(Encode(GoldenShardFetchRequest()), kShardFetchRequestHex,
               "ShardFetchRequest");
}

TEST(WireFormat, ShardBlockChunk) {
  ExpectGolden(Encode(GoldenShardBlockChunk()), kShardBlockChunkHex,
               "ShardBlockChunk");
}

// ---------------------------------------------------------------------------
// Decode: the checked-in bytes (as an old peer would send them) must
// reproduce the message, field by field — encode symmetry alone would not
// catch a change that breaks decoding of *old* frames.
// ---------------------------------------------------------------------------

std::string FromHex(const std::string& hex) {
  std::string out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

TEST(WireFormat, DecodesPinnedPilotResponse) {
  auto m = DecodePilotResponse(FromHex(kPilotResponseHex));
  ASSERT_TRUE(m.ok()) << m.status();
  PilotResponse want = GoldenPilotResponse();
  EXPECT_EQ(m->query_id, want.query_id);
  EXPECT_EQ(m->worker_id, want.worker_id);
  EXPECT_EQ(m->block_rows, want.block_rows);
  EXPECT_EQ(m->count, want.count);
  EXPECT_EQ(m->mean, want.mean);
  EXPECT_EQ(m->m2, want.m2);
  EXPECT_EQ(m->min_value, want.min_value);
}

TEST(WireFormat, DecodesPinnedQueryPlan) {
  auto m = DecodeQueryPlan(FromHex(kQueryPlanHex));
  ASSERT_TRUE(m.ok()) << m.status();
  QueryPlan want = GoldenQueryPlan();
  EXPECT_EQ(m->sample_count, want.sample_count);
  EXPECT_EQ(m->sketch0, want.sketch0);
  EXPECT_EQ(m->sigma, want.sigma);
  EXPECT_EQ(m->shift, want.shift);
  EXPECT_EQ(m->options.precision, want.options.precision);
  EXPECT_EQ(m->options.confidence, want.options.confidence);
  EXPECT_EQ(m->options.q_prime_severe, want.options.q_prime_severe);
  EXPECT_EQ(m->options.seed, want.options.seed);
  EXPECT_EQ(m->options.parallelism, want.options.parallelism);
}

TEST(WireFormat, DecodesPinnedGroupedScanResponse) {
  auto m = DecodeGroupedScanResponse(FromHex(kGroupedScanResponseHex));
  ASSERT_TRUE(m.ok()) << m.status();
  GroupedScanResponse want = GoldenGroupedScanResponse();
  EXPECT_EQ(m->partial.block_rows, want.partial.block_rows);
  EXPECT_EQ(m->partial.scanned, want.partial.scanned);
  EXPECT_EQ(m->partial.all.n, want.partial.all.n);
  EXPECT_EQ(m->partial.all.mean, want.partial.all.mean);
  EXPECT_EQ(m->partial.all.m2, want.partial.all.m2);
  ASSERT_EQ(m->partial.groups.size(), want.partial.groups.size());
  EXPECT_EQ(m->partial.groups.at(0.0).n, 2u);
  EXPECT_EQ(m->partial.groups.at(7.5).mean, 2.0);
}

TEST(WireFormat, DecodesPinnedSketchScanRequest) {
  auto m = DecodeSketchScanRequest(FromHex(kSketchScanRequestHex));
  ASSERT_TRUE(m.ok()) << m.status();
  SketchScanRequest want = GoldenSketchScanRequest();
  EXPECT_EQ(m->scan.query_id, want.scan.query_id);
  EXPECT_EQ(m->scan.sample_count, want.scan.sample_count);
  EXPECT_EQ(m->scan.stream_seed, want.scan.stream_seed);
  EXPECT_EQ(m->scan.has_predicate, want.scan.has_predicate);
  EXPECT_EQ(m->scan.op, want.scan.op);
  EXPECT_EQ(m->scan.literal, want.scan.literal);
  EXPECT_EQ(m->scan.has_group, want.scan.has_group);
}

TEST(WireFormat, DecodesPinnedSketchScanResponse) {
  auto m = DecodeSketchScanResponse(FromHex(kSketchScanResponseHex));
  ASSERT_TRUE(m.ok()) << m.status();
  SketchScanResponse want = GoldenSketchScanResponse();
  EXPECT_EQ(m->query_id, want.query_id);
  EXPECT_EQ(m->worker_id, want.worker_id);
  EXPECT_EQ(m->partial.block_rows, want.partial.block_rows);
  EXPECT_EQ(m->partial.scanned, want.partial.scanned);
  ASSERT_EQ(m->partial.groups.size(), want.partial.groups.size());
  ASSERT_EQ(m->partial.sketches.size(), want.partial.sketches.size());
  for (const auto& [key, ws] : want.partial.sketches) {
    const auto it = m->partial.sketches.find(key);
    ASSERT_NE(it, m->partial.sketches.end()) << "missing sketch " << key;
    const stats::QuantileSketch& ds = it->second;
    EXPECT_EQ(ds.capacity(), ws.capacity());
    EXPECT_EQ(ds.count(), ws.count());
    EXPECT_EQ(ds.min(), ws.min());
    EXPECT_EQ(ds.max(), ws.max());
    EXPECT_EQ(ds.error_weight(), ws.error_weight());
    ASSERT_EQ(ds.num_levels(), ws.num_levels());
    for (size_t l = 0; l < ws.num_levels(); ++l) {
      EXPECT_EQ(ds.level_parity(l), ws.level_parity(l)) << "level " << l;
      EXPECT_EQ(ds.level(l), ws.level(l)) << "level " << l;
    }
  }
}

TEST(WireFormat, SketchScanResponseRejectsDamage) {
  const std::string frame = FromHex(kSketchScanResponseHex);
  EXPECT_TRUE(DecodeSketchScanResponse(frame.substr(0, frame.size() - 1))
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(
      DecodeSketchScanResponse(frame + "x").status().IsCorruption());
  // A parity outside {0,1} must be refused: it would silently desync the
  // deterministic compaction schedule on merge.
  std::string bad_parity = frame;
  bool flipped = false;
  for (size_t i = 0; i + 16 <= bad_parity.size() && !flipped; ++i) {
    // Locate the first per-level header (parity u64 = 1, size u64 = 1)
    // of the key-0.0 sketch: parity 1 followed by size 1.
    if (static_cast<unsigned char>(bad_parity[i]) == 1 &&
        bad_parity.compare(i + 1, 7, std::string(7, '\0')) == 0 &&
        static_cast<unsigned char>(bad_parity[i + 8]) == 1 &&
        bad_parity.compare(i + 9, 7, std::string(7, '\0')) == 0) {
      bad_parity[i] = 2;
      flipped = true;
    }
  }
  ASSERT_TRUE(flipped);
  EXPECT_TRUE(DecodeSketchScanResponse(bad_parity).status().IsCorruption());
}

TEST(WireFormat, DecodesPinnedErrorFrame) {
  auto m = DecodeErrorFrame(FromHex(kErrorFrameHex));
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_TRUE(m->ToStatus().IsFailedPrecondition());
  EXPECT_EQ(m->message, "worker has no group column shard");
}

TEST(WireFormat, DecodesPinnedRegisterFrame) {
  auto m = DecodeRegisterFrame(FromHex(kRegisterFrameHex));
  ASSERT_TRUE(m.ok()) << m.status();
  RegisterFrame want = GoldenRegisterFrame();
  EXPECT_EQ(m->shard_id, want.shard_id);
  EXPECT_EQ(m->port, want.port);
  EXPECT_EQ(m->block_rows, want.block_rows);
  EXPECT_EQ(m->fingerprint, want.fingerprint);
  EXPECT_EQ(m->host, want.host);
}

TEST(WireFormat, DecodesPinnedRegisterAck) {
  auto m = DecodeRegisterAck(FromHex(kRegisterAckHex));
  ASSERT_TRUE(m.ok()) << m.status();
  RegisterAck want = GoldenRegisterAck();
  EXPECT_EQ(m->shard_id, want.shard_id);
  EXPECT_EQ(m->accepted, want.accepted);
  EXPECT_EQ(m->reason, want.reason);
  EXPECT_EQ(m->known_shards, want.known_shards);
  EXPECT_EQ(m->epoch, want.epoch);
}

TEST(WireFormat, DecodesPinnedRefusalAck) {
  auto m = DecodeRegisterAck(FromHex(kRefusalAckHex));
  ASSERT_TRUE(m.ok()) << m.status();
  RegisterAck want = GoldenRefusalAck();
  EXPECT_EQ(m->accepted, 0u);
  EXPECT_EQ(m->reason, want.reason);
  EXPECT_EQ(m->epoch, want.epoch);
}

TEST(WireFormat, RegisterAckRejectsDamage) {
  std::string frame = FromHex(kRegisterAckHex);
  EXPECT_FALSE(DecodeRegisterAck(frame.substr(0, frame.size() - 1)).ok());
  EXPECT_FALSE(DecodeRegisterAck(frame + "x").ok());
  // A refusal reason out of the typed range must be refused, not mapped
  // onto some arbitrary enum value the worker then misreports.
  std::string bad_reason = frame;
  bad_reason[20] = 99;
  EXPECT_FALSE(DecodeRegisterAck(bad_reason).ok());
  // accepted=1 with a non-zero refusal reason is self-contradictory.
  std::string contradicting = frame;
  contradicting[20] = 1;
  EXPECT_FALSE(DecodeRegisterAck(contradicting).ok());
}

TEST(WireFormat, DecodesPinnedShardFetchRequest) {
  auto m = DecodeShardFetchRequest(FromHex(kShardFetchRequestHex));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardFetchRequest want = GoldenShardFetchRequest();
  EXPECT_EQ(m->shard_id, want.shard_id);
  EXPECT_EQ(m->column, want.column);
  EXPECT_EQ(m->start_row, want.start_row);
  EXPECT_EQ(m->max_rows, want.max_rows);
}

TEST(WireFormat, ShardFetchRequestRejectsDamage) {
  std::string frame = FromHex(kShardFetchRequestHex);
  EXPECT_FALSE(
      DecodeShardFetchRequest(frame.substr(0, frame.size() - 1)).ok());
  EXPECT_FALSE(DecodeShardFetchRequest(frame + "x").ok());
  std::string bad_column = frame;
  bad_column[12] = 9;  // Columns are {values, predicate, keys} only.
  EXPECT_FALSE(DecodeShardFetchRequest(bad_column).ok());
}

TEST(WireFormat, DecodesPinnedShardBlockChunk) {
  auto m = DecodeShardBlockChunk(FromHex(kShardBlockChunkHex));
  ASSERT_TRUE(m.ok()) << m.status();
  ShardBlockChunk want = GoldenShardBlockChunk();
  EXPECT_EQ(m->shard_id, want.shard_id);
  EXPECT_EQ(m->column, want.column);
  EXPECT_EQ(m->column_present, want.column_present);
  EXPECT_EQ(m->total_rows, want.total_rows);
  EXPECT_EQ(m->start_row, want.start_row);
  EXPECT_EQ(m->crc, want.crc);
  EXPECT_EQ(m->rows, want.rows);
}

TEST(WireFormat, ShardBlockChunkRejectsDamage) {
  const std::string frame = FromHex(kShardBlockChunkHex);
  // Truncated mid-payload and oversized frames both fail the exact-length
  // check before any row is trusted.
  EXPECT_TRUE(DecodeShardBlockChunk(frame.substr(0, frame.size() - 1))
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(DecodeShardBlockChunk(frame + "x").status().IsCorruption());
  // Oversized row_count (beyond kMaxShardChunkRows) must be refused at
  // the header, before the decoder allocates or walks a payload.
  std::string bad_count = frame;
  bad_count[4 + 6 * 8] = '\xff';
  bad_count[4 + 6 * 8 + 1] = '\xff';
  bad_count[4 + 6 * 8 + 2] = '\xff';
  EXPECT_TRUE(DecodeShardBlockChunk(bad_count).status().IsCorruption());
  // A flipped payload bit fails the chunk CRC: a damaged chunk can never
  // land rows in a streamed shard file.
  std::string bad_payload = frame;
  bad_payload[frame.size() - 3] ^= 0x20;
  EXPECT_TRUE(DecodeShardBlockChunk(bad_payload).status().IsCorruption());
  // A chunk reaching past its own block bounds is structural damage even
  // when the CRC matches the rows it carries.
  std::string bad_bounds = frame;
  bad_bounds[4 + 3 * 8] = 9;  // total_rows 100 -> 9 < start_row + rows
  EXPECT_TRUE(DecodeShardBlockChunk(bad_bounds).status().IsCorruption());
}

TEST(WireFormat, RegisterFrameTruncatesOversizedHosts) {
  // Same encoder-side clamp discipline as ErrorFrame: an absurd hostname
  // still produces a decodable (truncated) frame instead of one every
  // registry rejects.
  RegisterFrame big;
  big.shard_id = 1;
  big.port = 7101;
  big.host.assign(3 * kMaxHostBytes, 'h');
  auto decoded = DecodeRegisterFrame(Encode(big));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->host.size(), kMaxHostBytes);
}

TEST(WireFormat, RegisterFrameRejectsDamage) {
  std::string frame = FromHex(kRegisterFrameHex);
  EXPECT_FALSE(DecodeRegisterFrame(frame.substr(0, frame.size() - 1)).ok());
  EXPECT_FALSE(DecodeRegisterFrame(frame + "x").ok());
  std::string bad_port = frame;
  // Zero the port field (bytes 12..19): workers cannot serve on port 0.
  for (size_t i = 12; i < 20; ++i) bad_port[i] = '\0';
  EXPECT_FALSE(DecodeRegisterFrame(bad_port).ok());
}

TEST(WireFormat, ErrorFrameTruncatesOversizedMessages) {
  // The encoder must clamp to the decode cap: a worker failing with a
  // huge Status message still round-trips (truncated), instead of the
  // peer rejecting the frame and masking the real error.
  ErrorFrame big;
  big.code = 5;  // IOError
  big.message.assign(3 * kMaxErrorMessageBytes, 'x');
  auto decoded = DecodeErrorFrame(Encode(big));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->message.size(), kMaxErrorMessageBytes);
  EXPECT_TRUE(decoded->ToStatus().IsIOError());
}

TEST(WireFormat, ErrorFrameRejectsDamage) {
  std::string frame = FromHex(kErrorFrameHex);
  EXPECT_TRUE(DecodeErrorFrame(frame.substr(0, frame.size() - 1))
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(DecodeErrorFrame(frame + "x").status().IsCorruption());
  std::string bad_code = frame;
  bad_code[4] = 99;  // StatusCode far out of range
  EXPECT_TRUE(DecodeErrorFrame(bad_code).status().IsCorruption());
}

// ---------------------------------------------------------------------------
// The net transport frame wrapper.
// ---------------------------------------------------------------------------

TEST(WireFormat, NetFrameAroundPilotRequest) {
  ExpectGolden(net::EncodeFrame(Encode(GoldenPilotRequest())),
               "49534c461c0000005856b9df010000000700000000000000e8030000"
               "000000002a00000000000000",
               "net frame wrapper");
}

TEST(WireFormat, NetFrameEmptyPayload) {
  // Magic "ISLF", zero length, CRC32 of the empty string (0).
  ExpectGolden(net::EncodeFrame(""), "49534c460000000000000000",
               "net frame (empty)");
}

// ---------------------------------------------------------------------------
// The query-server PARTIAL streaming frame.
// ---------------------------------------------------------------------------

net::PartialFrame GoldenPartialFrame() {
  net::PartialFrame m;
  m.round = 3;
  m.total_rounds = 8;
  m.samples = 12345;
  m.value = 100.25;
  m.ci_half_width = 0.125;
  m.confidence = 0.95;
  return m;
}
// "partial\n" tag, then LE u32 round, u32 total_rounds, u64 samples,
// f64 value, f64 ci_half_width, f64 confidence — 48 bytes total.
constexpr char kPartialFrameHex[] =
    "7061727469616c0a030000000800000039300000000000000000000000105940"
    "000000000000c03f666666666666ee3f";

TEST(WireFormat, PartialFrameGoldenBytes) {
  std::string payload = net::EncodePartialFrame(GoldenPartialFrame());
  EXPECT_EQ(payload.size(), net::kPartialFrameBytes);
  ExpectGolden(payload, kPartialFrameHex, "PARTIAL frame");
}

TEST(WireFormat, PartialFrameDecodesGoldenBytes) {
  auto decoded = net::DecodePartialFrame(FromHex(kPartialFrameHex));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  const net::PartialFrame want = GoldenPartialFrame();
  EXPECT_EQ(decoded->round, want.round);
  EXPECT_EQ(decoded->total_rounds, want.total_rounds);
  EXPECT_EQ(decoded->samples, want.samples);
  EXPECT_EQ(decoded->value, want.value);
  EXPECT_EQ(decoded->ci_half_width, want.ci_half_width);
  EXPECT_EQ(decoded->confidence, want.confidence);
}

TEST(WireFormat, PartialFrameTagDistinguishesFromTextResponses) {
  EXPECT_TRUE(net::IsPartialFrame(net::EncodePartialFrame({})));
  // The tag can never collide with the query server's text responses.
  EXPECT_FALSE(net::IsPartialFrame("ok\nAVG = 100.0"));
  EXPECT_FALSE(net::IsPartialFrame("error: InvalidArgument: nope"));
  EXPECT_FALSE(net::IsPartialFrame(""));
}

TEST(WireFormat, PartialFrameRejectsTruncationAndTrailingBytes) {
  std::string frame = FromHex(kPartialFrameHex);
  EXPECT_TRUE(net::DecodePartialFrame(frame.substr(0, frame.size() - 1))
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(net::DecodePartialFrame(frame + "x").status().IsCorruption());
  EXPECT_TRUE(net::DecodePartialFrame("partial?" + frame.substr(8))
                  .status()
                  .IsCorruption());
}

// ---------------------------------------------------------------------------
// The reader and writer every frame codec goes through.
// ---------------------------------------------------------------------------

TEST(WireReader, ReadPastTheEndIsCorruptionAndZeroFills) {
  const std::string bytes("\x01\x02\x03", 3);
  wire::Reader r(bytes);
  EXPECT_EQ(r.U32(), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.Finish().IsCorruption());
  double out = 1.5;
  r.Bytes(&out, sizeof(out));
  EXPECT_EQ(out, 0.0);
}

TEST(WireReader, FirstFailureSticks) {
  wire::Writer w;
  w.U64(7);
  w.F64(2.5);
  const std::string bytes = w.Take();
  wire::Reader r(bytes);
  r.Fail("first failure");
  // The bytes are there, but nothing is read after a failure.
  EXPECT_EQ(r.U64(), 0u);
  EXPECT_EQ(r.F64(), 0.0);
  r.Fail("second failure");
  const Status status = r.Finish();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_EQ(status.message(), "first failure");
}

TEST(WireReader, FinishReportsTrailingBytes) {
  wire::Writer w;
  w.U64(42);
  w.U32(7);
  const std::string bytes = w.Take();
  wire::Reader r(bytes);
  EXPECT_EQ(r.U64(), 42u);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.Finish().IsCorruption());
  EXPECT_EQ(r.U32(), 7u);
  EXPECT_TRUE(r.Finish().ok());
}

TEST(WireReader, ZeroLengthReadsAndEmptyWritesDoNothing) {
  // An empty vector's data() may be null; copying zero bytes from or to it
  // must not reach memcpy.
  std::vector<double> empty;
  wire::Writer w;
  w.Bytes(empty.data(), 0);
  const std::string bytes = w.Take();
  EXPECT_TRUE(bytes.empty());
  wire::Reader r(bytes);
  r.Bytes(empty.data(), 0);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.Finish().ok());

  // The same through a frame: an absent column's chunk carries no rows.
  ShardBlockChunk absent;
  absent.column = kShardColumnKeys;
  auto decoded = DecodeShardBlockChunk(Encode(absent));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->rows.empty());
}

}  // namespace
}  // namespace distributed
}  // namespace isla
