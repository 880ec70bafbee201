#include "cluster/payload_stamp.h"

#include "cluster/shard_router.h"
#include "common/logging.h"

namespace dpdpu::cluster {

namespace {

uint64_t BodyState(const PayloadStamp& stamp) {
  return HashU64(stamp.key ^ HashU64(stamp.version) ^
                 HashU64(stamp.seed ^ kPayloadStampMagic));
}

uint64_t BodyWord(uint64_t state, uint64_t index) {
  return HashU64(state + index * 0x9e3779b97f4a7c15ull);
}

}  // namespace

Buffer MakeStampedPayload(size_t bytes, const PayloadStamp& stamp) {
  DPDPU_CHECK(bytes >= kPayloadStampBytes);
  Buffer out;
  out.reserve(bytes);
  out.AppendU64(kPayloadStampMagic);
  out.AppendU64(stamp.key);
  out.AppendU64(stamp.version);
  out.AppendU64(stamp.seed);
  uint64_t state = BodyState(stamp);
  uint64_t index = 0;
  while (out.size() + 8 <= bytes) {
    out.AppendU64(BodyWord(state, index++));
  }
  uint64_t tail = BodyWord(state, index);
  while (out.size() < bytes) {
    out.AppendU8(static_cast<uint8_t>(tail));
    tail >>= 8;
  }
  return out;
}

std::optional<PayloadStamp> ParsePayloadStamp(ByteSpan data) {
  ByteReader reader(data);
  uint64_t magic = 0;
  PayloadStamp stamp;
  if (!reader.ReadU64(&magic) || magic != kPayloadStampMagic) {
    return std::nullopt;
  }
  if (!reader.ReadU64(&stamp.key) || !reader.ReadU64(&stamp.version) ||
      !reader.ReadU64(&stamp.seed)) {
    return std::nullopt;
  }
  return stamp;
}

}  // namespace dpdpu::cluster
