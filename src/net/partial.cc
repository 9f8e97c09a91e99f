#include "net/partial.h"

#include <cstring>

#include "util/wire.h"

namespace isla {
namespace net {

std::string EncodePartialFrame(const PartialFrame& frame) {
  wire::Writer w(kPartialFrameBytes);
  w.Bytes(kPartialTag, sizeof(kPartialTag));
  w.U32(frame.round);
  w.U32(frame.total_rounds);
  w.U64(frame.samples);
  w.F64(frame.value);
  w.F64(frame.ci_half_width);
  w.F64(frame.confidence);
  return w.Take();
}

bool IsPartialFrame(std::string_view payload) {
  return payload.size() >= sizeof(kPartialTag) &&
         std::memcmp(payload.data(), kPartialTag, sizeof(kPartialTag)) == 0;
}

Result<PartialFrame> DecodePartialFrame(std::string_view payload) {
  if (!IsPartialFrame(payload)) {
    return Status::Corruption("not a PARTIAL frame");
  }
  wire::Reader r(payload.substr(sizeof(kPartialTag)));
  PartialFrame frame;
  frame.round = r.U32();
  frame.total_rounds = r.U32();
  frame.samples = r.U64();
  frame.value = r.F64();
  frame.ci_half_width = r.F64();
  frame.confidence = r.F64();
  ISLA_RETURN_NOT_OK(r.Finish());
  return frame;
}

}  // namespace net
}  // namespace isla
