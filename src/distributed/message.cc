#include "distributed/message.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <type_traits>
#include <utility>

#include "storage/file_block.h"
#include "util/wire.h"

namespace isla {
namespace distributed {

namespace {

/// The highest tag; PeekType refuses anything past it.
constexpr MessageType kLastMessageType = MessageType::kShardBlockChunk;

/// Caps on a sketch blob's shape, checked before the blob sizes anything
/// (FromParts then re-validates every part).
constexpr uint64_t kMaxSketchLevels = 64;
constexpr uint64_t kMaxSketchCapacity = 65536;

// ---------------------------------------------------------------------------
// Visitors. A frame is its u32 tag followed by the fields its Layout lists:
// u64 for integers, flags and enums, f64 for doubles, a u64 length before
// text, a u64 count before a double vector or a key-ordered map.
// ---------------------------------------------------------------------------

/// Walks a Layout and appends each field.
class Encoder {
 public:
  static constexpr bool kEncoding = true;

  // 256 bytes hold every fixed-width frame (QueryPlan, the largest, is 228).
  explicit Encoder(MessageType type) : w_(256) {
    w_.U32(static_cast<uint32_t>(type));
  }

  template <class... Fields>
  void operator()(const Fields&... fields) {
    (Field(fields), ...);
  }

  /// Text cut at `cap`: the decoder refuses anything longer, so a worker
  /// failing with a long Status must have its message truncated here rather
  /// than replaced by a decode Corruption at the peer.
  void Text(const std::string& s, uint64_t cap) {
    const uint64_t len = std::min<uint64_t>(s.size(), cap);
    w_.U64(len);
    w_.Bytes(s.data(), len);
  }

  void Doubles(const std::vector<double>& v, uint64_t /*cap*/) {
    w_.U64(v.size());
    w_.Bytes(v.data(), v.size() * sizeof(double));
  }

  /// Entries in ascending key order: the f64 key, then `value`'s fields.
  template <class V, class F>
  void Map(const std::map<double, V>& map, uint64_t /*cap*/, F&& value) {
    w_.U64(map.size());
    for (const auto& [key, v] : map) {
      w_.F64(key);
      value(v);
    }
  }

  /// The complete compactor state (levels, per-level parities, error
  /// weight), so a decoded sketch merges bit-identically to the original.
  void Sketch(const stats::QuantileSketch& s) {
    w_.U64(s.capacity());
    w_.U64(s.count());
    w_.F64(s.min());
    w_.F64(s.max());
    w_.U64(s.error_weight());
    w_.U64(s.num_levels());
    for (size_t l = 0; l < s.num_levels(); ++l) {
      w_.U64(s.level_parity(l));
      Doubles(s.level(l), kMaxSketchCapacity);
    }
  }

  std::string Take() { return w_.Take(); }

 private:
  void Field(uint64_t v) { w_.U64(v); }
  void Field(uint32_t v) { w_.U64(v); }
  void Field(bool v) { w_.U64(v ? 1 : 0); }
  void Field(double v) { w_.F64(v); }
  void Field(core::PredicateOp op) { w_.U64(static_cast<uint64_t>(op)); }
  template <class T>
    requires std::is_class_v<T>
  void Field(const T& nested) {
    Layout(*this, nested);
  }

  wire::Writer w_;
};

/// Reads a Layout back. Every count is checked against its cap before it
/// sizes an allocation; a failure sticks in the reader, so later fields
/// read as zeros and Finish() reports the first failure.
class Decoder {
 public:
  static constexpr bool kEncoding = false;

  Decoder(const std::string& frame, MessageType type) : r_(frame) {
    if (r_.U32() != static_cast<uint32_t>(type)) {
      r_.Fail("unexpected message type tag");
    }
  }

  template <class... Fields>
  void operator()(Fields&... fields) {
    (Field(fields), ...);
  }

  void Text(std::string& s, uint64_t cap) {
    s.resize(Count(cap, "text exceeds its length cap"));
    r_.Bytes(s.data(), s.size());
  }

  void Doubles(std::vector<double>& v, uint64_t cap) {
    v.resize(Count(cap, "vector exceeds its length cap"));
    r_.Bytes(v.data(), v.size() * sizeof(double));
  }

  /// Keys must be distinct and not NaN.
  template <class V, class F>
  void Map(std::map<double, V>& map, uint64_t cap, F&& value) {
    const uint64_t n = Count(cap, "group map exceeds the group cap");
    for (uint64_t i = 0; i < n && r_.ok(); ++i) {
      const double key = r_.F64();
      V v;
      value(v);
      if (std::isnan(key) || !map.emplace(key, std::move(v)).second) {
        r_.Fail("group map has a NaN or repeated key");
      }
    }
  }

  void Sketch(stats::QuantileSketch& s) {
    const uint64_t capacity = r_.U64();
    const uint64_t count = r_.U64();
    const double min_v = r_.F64();
    const double max_v = r_.F64();
    const uint64_t error_weight = r_.U64();
    if (capacity > kMaxSketchCapacity) {
      r_.Fail("sketch blob exceeds the capacity cap");
    }
    std::vector<std::vector<double>> levels(
        Count(kMaxSketchLevels, "sketch blob has too many levels"));
    std::vector<uint8_t> parities(levels.size());
    for (size_t l = 0; l < levels.size(); ++l) {
      const uint64_t parity = r_.U64();
      if (parity > 1) r_.Fail("sketch blob has a non-boolean parity");
      parities[l] = static_cast<uint8_t>(parity);
      // A level holds fewer values than the capacity.
      Doubles(levels[l], std::max<uint64_t>(capacity, 1) - 1);
    }
    if (!r_.ok()) return;
    Result<stats::QuantileSketch> sketch = stats::QuantileSketch::FromParts(
        capacity, count, min_v, max_v, error_weight, std::move(levels),
        std::move(parities));
    if (!sketch.ok()) {
      r_.Fail("sketch blob failed validation: " + sketch.status().message());
      return;
    }
    s = std::move(sketch).value();
  }

  Status Finish() const { return r_.Finish(); }

 private:
  uint64_t Count(uint64_t cap, const char* what) {
    const uint64_t n = r_.U64();
    if (n <= cap) return n;
    r_.Fail(what);
    return 0;
  }

  void Field(uint64_t& v) { v = r_.U64(); }
  void Field(uint32_t& v) { v = static_cast<uint32_t>(r_.U64()); }
  void Field(bool& v) { v = r_.U64() != 0; }
  void Field(double& v) { v = r_.F64(); }
  void Field(core::PredicateOp& op) {
    const uint64_t v = r_.U64();
    if (v > static_cast<uint64_t>(core::PredicateOp::kGe)) {
      r_.Fail("predicate operator out of range");
      return;
    }
    op = static_cast<core::PredicateOp>(v);
  }
  template <class T>
    requires std::is_class_v<T>
  void Field(T& nested) {
    Layout(*this, nested);
  }

  wire::Reader r_;
};

// ---------------------------------------------------------------------------
// Layouts: each frame's fields in wire order, after the tag. Encode and
// decode both walk these, so every layout is written once.
// ---------------------------------------------------------------------------

/// `const T` to encode, `T` to decode.
template <class Io, class T>
using Of = std::conditional_t<Io::kEncoding, const T, T>;

template <class Io>
void Layout(Io& io, Of<Io, core::IslaOptions>& o) {
  io(o.precision, o.confidence, o.sketch_relaxation, o.p1, o.p2,
     o.step_length_factor, o.convergence_rate, o.threshold,
     o.threshold_fraction, o.dev_balanced_lo, o.dev_balanced_hi,
     o.dev_mild_lo, o.dev_mild_hi, o.dev_severe_lo, o.dev_severe_hi,
     o.q_prime_mild, o.q_prime_severe, o.clamp_to_sketch_interval,
     o.sigma_pilot_size, o.seed, o.sampling_rate_scale, o.parallelism);
}

/// The moments section shared by the grouped and sketch scan responses.
template <class Io>
void Layout(Io& io, Of<Io, core::GroupedBlockPartial>& p) {
  const auto moments = [&io](auto& g) { io(g.n, g.mean, g.m2); };
  io(p.block_rows, p.scanned);
  moments(p.all);
  io.Map(p.groups, core::kMaxGroups, moments);
}

template <class Io>
void Layout(Io& io, Of<Io, PilotRequest>& m) {
  io(m.query_id, m.sample_count, m.seed);
}

template <class Io>
void Layout(Io& io, Of<Io, PilotResponse>& m) {
  io(m.query_id, m.worker_id, m.block_rows, m.count, m.mean, m.m2,
     m.min_value);
}

template <class Io>
void Layout(Io& io, Of<Io, QueryPlan>& m) {
  io(m.query_id, m.sample_count, m.seed, m.sketch0, m.sigma, m.shift,
     m.options);
}

template <class Io>
void Layout(Io& io, Of<Io, PartialResult>& m) {
  io(m.query_id, m.worker_id, m.block_rows, m.samples_drawn, m.avg,
     m.s_count, m.l_count, m.iterations, m.alpha, m.s_sum, m.s_sum2,
     m.s_sum3, m.l_sum, m.l_sum2, m.l_sum3);
}

template <class Io>
void Layout(Io& io, Of<Io, GroupedScanRequest>& m) {
  io(m.query_id, m.sample_count, m.stream_seed, m.has_predicate, m.op,
     m.literal, m.has_group);
}

template <class Io>
void Layout(Io& io, Of<Io, GroupedScanResponse>& m) {
  io(m.query_id, m.worker_id, m.partial);
}

/// GroupedScanRequest's fields; the frames differ only by tag.
template <class Io>
void Layout(Io& io, Of<Io, SketchScanRequest>& m) {
  io(m.scan);
}

template <class Io>
void Layout(Io& io, Of<Io, SketchScanResponse>& m) {
  io(m.query_id, m.worker_id, m.partial);
  io.Map(m.partial.sketches, core::kMaxGroups,
         [&io](auto& sketch) { io.Sketch(sketch); });
}

template <class Io>
void Layout(Io& io, Of<Io, ErrorFrame>& m) {
  io(m.code);
  io.Text(m.message, kMaxErrorMessageBytes);
}

template <class Io>
void Layout(Io& io, Of<Io, RegisterFrame>& m) {
  io(m.shard_id, m.port, m.block_rows, m.fingerprint);
  io.Text(m.host, kMaxHostBytes);
}

template <class Io>
void Layout(Io& io, Of<Io, RegisterAck>& m) {
  io(m.shard_id, m.accepted, m.reason, m.known_shards, m.epoch);
}

template <class Io>
void Layout(Io& io, Of<Io, ShardFetchRequest>& m) {
  io(m.shard_id, m.column, m.start_row, m.max_rows);
}

template <class Io>
void Layout(Io& io, Of<Io, ShardBlockChunk>& m) {
  io(m.shard_id, m.column, m.column_present, m.total_rows, m.start_row,
     m.crc);
  io.Doubles(m.rows, kMaxShardChunkRows);
}

// ---------------------------------------------------------------------------
// Checks: the value rules a decoded frame must meet beyond its layout.
// ---------------------------------------------------------------------------

template <class M>
Status Check(const M&) {
  return Status::OK();
}

Status Check(const ErrorFrame& m) {
  if (m.code == 0 ||
      m.code > static_cast<uint64_t>(StatusCode::kResourceExhausted)) {
    return Status::Corruption("error frame carries an invalid status code");
  }
  return Status::OK();
}

Status Check(const RegisterFrame& m) {
  if (m.port == 0 || m.port > 65535) {
    return Status::Corruption("register frame carries an invalid port");
  }
  if (m.host.empty()) {
    return Status::Corruption("register frame carries an empty host");
  }
  return Status::OK();
}

Status Check(const RegisterAck& m) {
  if (m.accepted > 1) {
    return Status::Corruption("register ack carries a non-boolean flag");
  }
  if (m.reason > static_cast<uint64_t>(RegisterRefusal::kRowsMismatch)) {
    return Status::Corruption("register ack carries an unknown refusal");
  }
  if (m.accepted == 1 && m.reason != 0) {
    return Status::Corruption("register ack both accepts and refuses");
  }
  return Status::OK();
}

Status Check(const ShardFetchRequest& m) {
  if (m.column > kShardColumnKeys) {
    return Status::Corruption("shard fetch addresses an unknown column");
  }
  return Status::OK();
}

Status Check(const ShardBlockChunk& m) {
  if (m.column > kShardColumnKeys) {
    return Status::Corruption("shard chunk addresses an unknown column");
  }
  if (m.column_present > 1) {
    return Status::Corruption("shard chunk carries a non-boolean presence");
  }
  if (m.crc > 0xffffffffULL) {
    return Status::Corruption("shard chunk CRC exceeds 32 bits");
  }
  const uint64_t rows = m.rows.size();
  if (m.start_row > m.total_rows || rows > m.total_rows - m.start_row) {
    return Status::Corruption("shard chunk lies outside its block");
  }
  if (m.column_present == 0 && (rows != 0 || m.total_rows != 0)) {
    return Status::Corruption("shard chunk carries rows for an absent column");
  }
  // CRC-verify the payload last: a flipped bit anywhere in the rows is
  // Corruption here, before a single damaged row can be written to disk.
  if (storage::Crc32(m.rows.data(), rows * sizeof(double)) !=
      static_cast<uint32_t>(m.crc)) {
    return Status::Corruption("shard chunk payload fails its CRC");
  }
  return Status::OK();
}

template <class M>
std::string EncodeFrame(MessageType type, const M& m) {
  Encoder io(type);
  Layout(io, m);
  return io.Take();
}

/// Tag check, layout, exact length, then the frame's value rules.
template <class M>
Result<M> DecodeFrame(MessageType type, const std::string& frame) {
  Decoder io(frame, type);
  M m;
  Layout(io, m);
  ISLA_RETURN_NOT_OK(io.Finish());
  ISLA_RETURN_NOT_OK(Check(m));
  return m;
}

}  // namespace

std::string Encode(const PilotRequest& m) {
  return EncodeFrame(MessageType::kPilotRequest, m);
}
std::string Encode(const PilotResponse& m) {
  return EncodeFrame(MessageType::kPilotResponse, m);
}
std::string Encode(const QueryPlan& m) {
  return EncodeFrame(MessageType::kQueryPlan, m);
}
std::string Encode(const PartialResult& m) {
  return EncodeFrame(MessageType::kPartialResult, m);
}
std::string Encode(const GroupedScanRequest& m) {
  return EncodeFrame(MessageType::kGroupedScanRequest, m);
}
std::string Encode(const GroupedScanResponse& m) {
  return EncodeFrame(MessageType::kGroupedScanResponse, m);
}
std::string Encode(const SketchScanRequest& m) {
  return EncodeFrame(MessageType::kSketchScanRequest, m);
}
std::string Encode(const SketchScanResponse& m) {
  return EncodeFrame(MessageType::kSketchScanResponse, m);
}
std::string Encode(const ErrorFrame& m) {
  return EncodeFrame(MessageType::kError, m);
}
std::string Encode(const RegisterFrame& m) {
  return EncodeFrame(MessageType::kRegister, m);
}
std::string Encode(const RegisterAck& m) {
  return EncodeFrame(MessageType::kRegisterAck, m);
}
std::string Encode(const ShardFetchRequest& m) {
  return EncodeFrame(MessageType::kShardFetchRequest, m);
}
std::string Encode(const ShardBlockChunk& m) {
  return EncodeFrame(MessageType::kShardBlockChunk, m);
}

Result<MessageType> PeekType(const std::string& frame) {
  wire::Reader r(frame);
  const uint32_t tag = r.U32();
  if (!r.ok()) return Status::Corruption("frame shorter than a type tag");
  if (tag < 1 || tag > static_cast<uint32_t>(kLastMessageType)) {
    return Status::Corruption("unknown message type tag");
  }
  return static_cast<MessageType>(tag);
}

Result<PilotRequest> DecodePilotRequest(const std::string& frame) {
  return DecodeFrame<PilotRequest>(MessageType::kPilotRequest, frame);
}
Result<PilotResponse> DecodePilotResponse(const std::string& frame) {
  return DecodeFrame<PilotResponse>(MessageType::kPilotResponse, frame);
}
Result<QueryPlan> DecodeQueryPlan(const std::string& frame) {
  return DecodeFrame<QueryPlan>(MessageType::kQueryPlan, frame);
}
Result<PartialResult> DecodePartialResult(const std::string& frame) {
  return DecodeFrame<PartialResult>(MessageType::kPartialResult, frame);
}
Result<GroupedScanRequest> DecodeGroupedScanRequest(const std::string& frame) {
  return DecodeFrame<GroupedScanRequest>(MessageType::kGroupedScanRequest,
                                         frame);
}
Result<GroupedScanResponse> DecodeGroupedScanResponse(
    const std::string& frame) {
  return DecodeFrame<GroupedScanResponse>(MessageType::kGroupedScanResponse,
                                          frame);
}
Result<SketchScanRequest> DecodeSketchScanRequest(const std::string& frame) {
  return DecodeFrame<SketchScanRequest>(MessageType::kSketchScanRequest,
                                        frame);
}
Result<SketchScanResponse> DecodeSketchScanResponse(
    const std::string& frame) {
  return DecodeFrame<SketchScanResponse>(MessageType::kSketchScanResponse,
                                         frame);
}
Result<ErrorFrame> DecodeErrorFrame(const std::string& frame) {
  return DecodeFrame<ErrorFrame>(MessageType::kError, frame);
}
Result<RegisterFrame> DecodeRegisterFrame(const std::string& frame) {
  return DecodeFrame<RegisterFrame>(MessageType::kRegister, frame);
}
Result<RegisterAck> DecodeRegisterAck(const std::string& frame) {
  return DecodeFrame<RegisterAck>(MessageType::kRegisterAck, frame);
}
Result<ShardFetchRequest> DecodeShardFetchRequest(const std::string& frame) {
  return DecodeFrame<ShardFetchRequest>(MessageType::kShardFetchRequest,
                                        frame);
}
Result<ShardBlockChunk> DecodeShardBlockChunk(const std::string& frame) {
  return DecodeFrame<ShardBlockChunk>(MessageType::kShardBlockChunk, frame);
}

}  // namespace distributed
}  // namespace isla
