// Content-defined chunking and deduplication — the workload of the
// BlueField-2 dedup ASIC. Rabin-style rolling hash picks chunk boundaries
// from content, so identical regions dedup even after insertions shift
// their offsets.

#ifndef DPDPU_KERN_DEDUP_H_
#define DPDPU_KERN_DEDUP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/buffer.h"

namespace dpdpu::kern {

/// Chunk sizes: every chunk but the last has at least kMinChunkBytes,
/// none more than kMaxChunkBytes. kAvgChunkBytes is the expected size, a
/// power of two (the boundary mask).
inline constexpr size_t kMinChunkBytes = 2048;
inline constexpr size_t kAvgChunkBytes = 8192;
inline constexpr size_t kMaxChunkBytes = 65536;

struct Chunk {
  size_t offset;
  size_t size;
  uint64_t fingerprint;  // FNV-1a 64 of the chunk contents
};

/// Splits `data` into content-defined chunks.
std::vector<Chunk> ChunkData(ByteSpan data);

/// FNV-1a 64-bit content fingerprint.
uint64_t Fingerprint64(ByteSpan data);

}  // namespace dpdpu::kern

#endif  // DPDPU_KERN_DEDUP_H_
