#ifndef ISLA_UTIL_WIRE_H_
#define ISLA_UTIL_WIRE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"

namespace isla {
namespace wire {

// Fields cross the wire as fixed-width little-endian values, copied as host
// bytes; that is only the wire order on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "wire frames are copied as host bytes, so the host must be "
              "little-endian");

/// Append-only writer of fixed-width little-endian fields.
class Writer {
 public:
  explicit Writer(size_t reserve = 0) { buffer_.reserve(reserve); }

  void U32(uint32_t v) { Bytes(&v, sizeof(v)); }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) { Bytes(&v, sizeof(v)); }

  /// Appends `len` raw bytes. A zero-length write touches nothing, so an
  /// empty vector's null data() is fine here.
  void Bytes(const void* data, size_t len) {
    if (len != 0) buffer_.append(static_cast<const char*>(data), len);
  }

  std::string Take() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

/// Bounds-checked reader of fixed-width little-endian fields. The first
/// failure sticks: every later read returns zeros, later Fail calls are
/// ignored, and Finish() reports that first failure. A decoder therefore
/// reads its whole field list and checks once, at the end.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  uint32_t U32() {
    uint32_t v;
    Bytes(&v, sizeof(v));
    return v;
  }
  uint64_t U64() {
    uint64_t v;
    Bytes(&v, sizeof(v));
    return v;
  }
  double F64() {
    double v;
    Bytes(&v, sizeof(v));
    return v;
  }

  /// Copies the next `len` bytes into `out`. A read past the end, or any
  /// read after a failure, fails with Corruption and zero-fills `out`. A
  /// zero-length read touches nothing.
  void Bytes(void* out, size_t len) {
    if (len > bytes_.size() - offset_) {
      Fail("truncated message frame");
      std::memset(out, 0, len);
      return;
    }
    if (len != 0) std::memcpy(out, bytes_.data() + offset_, len);
    offset_ += len;
  }

  /// Records `message` as a Corruption unless a failure is already
  /// recorded, and ends reading: later reads fail.
  void Fail(std::string message) {
    if (status_.ok()) status_ = Status::Corruption(std::move(message));
    bytes_ = {};
    offset_ = 0;
  }

  bool ok() const { return status_.ok(); }

  /// The first failure; else Corruption if bytes are left unread.
  Status Finish() const {
    if (!status_.ok()) return status_;
    if (offset_ != bytes_.size()) {
      return Status::Corruption("trailing bytes in message frame");
    }
    return Status::OK();
  }

 private:
  std::string_view bytes_;
  size_t offset_ = 0;
  Status status_;
};

}  // namespace wire
}  // namespace isla

#endif  // ISLA_UTIL_WIRE_H_
