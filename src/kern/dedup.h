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

struct ChunkerOptions {
  size_t min_size = 2048;
  /// Expected chunk size; must be a power of two (boundary mask).
  size_t avg_size = 8192;
  size_t max_size = 65536;
};

struct Chunk {
  size_t offset;
  size_t size;
  uint64_t fingerprint;  // FNV-1a 64 of the chunk contents
};

/// Splits `data` into content-defined chunks.
std::vector<Chunk> ChunkData(ByteSpan data, const ChunkerOptions& options = {});

/// FNV-1a 64-bit content fingerprint.
uint64_t Fingerprint64(ByteSpan data);

}  // namespace dpdpu::kern

#endif  // DPDPU_KERN_DEDUP_H_
