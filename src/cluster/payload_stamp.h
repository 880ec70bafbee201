// Content-verifiable write payloads for the fleet workload. Every write
// carries a 32-byte header naming (key, version, client seed) followed by
// a deterministic pseudo-random body derived from the header, so a read
// can prove *which* write it observed: a recovered replica serving
// pre-failure bytes is detectable by content, not just by out-of-band
// version metadata. This is the repro instrument for the stale-read bug —
// all-zero payloads made staleness invisible.

#ifndef DPDPU_CLUSTER_PAYLOAD_STAMP_H_
#define DPDPU_CLUSTER_PAYLOAD_STAMP_H_

#include <cstdint>
#include <optional>

#include "common/buffer.h"

namespace dpdpu::cluster {

inline constexpr uint64_t kPayloadStampMagic = 0x3154535550445044ull;  // "DPDPUST1"
inline constexpr size_t kPayloadStampBytes = 32;

struct PayloadStamp {
  uint64_t key = 0;
  uint64_t version = 0;
  uint64_t seed = 0;
};

/// Builds a `bytes`-sized payload: magic + stamp header, then a splitmix
/// body seeded from the stamp. `bytes` must be >= kPayloadStampBytes.
Buffer MakeStampedPayload(size_t bytes, const PayloadStamp& stamp);

/// Parses the header; nullopt when the buffer is too short or the magic
/// does not match (e.g. a never-written all-zero shard block).
std::optional<PayloadStamp> ParsePayloadStamp(ByteSpan data);

}  // namespace dpdpu::cluster

#endif  // DPDPU_CLUSTER_PAYLOAD_STAMP_H_
