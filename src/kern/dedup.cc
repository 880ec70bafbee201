#include "kern/dedup.h"

#include <algorithm>
#include <array>

namespace dpdpu::kern {

namespace {

constexpr size_t kWindow = 48;
constexpr uint64_t kPrime = 1099511628211ull;

// Deterministic per-byte mixing table for the rolling hash.
std::array<uint64_t, 256> MakeByteTable() {
  std::array<uint64_t, 256> t{};
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 256; ++i) {
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    t[i] = x;
  }
  return t;
}

const std::array<uint64_t, 256>& ByteTable() {
  static const std::array<uint64_t, 256> t = MakeByteTable();
  return t;
}

uint64_t PowMod(uint64_t base, size_t exp) {
  uint64_t r = 1;
  while (exp--) r *= base;
  return r;
}

}  // namespace

uint64_t Fingerprint64(ByteSpan data) {
  uint64_t h = 14695981039346656037ull;
  for (uint8_t b : data) {
    h ^= b;
    h *= kPrime;
  }
  return h;
}

std::vector<Chunk> ChunkData(ByteSpan data) {
  static_assert(kMinChunkBytes >= kWindow);
  static_assert((kAvgChunkBytes & (kAvgChunkBytes - 1)) == 0);
  static_assert(kMinChunkBytes <= kAvgChunkBytes);
  static_assert(kAvgChunkBytes <= kMaxChunkBytes);

  const auto& table = ByteTable();
  const uint64_t mask = kAvgChunkBytes - 1;
  // Remove the oldest byte's contribution: hash = hash*P + t[b];
  // after `kWindow` steps a byte's term is t[b] * P^(kWindow-1).
  const uint64_t out_factor = PowMod(kPrime, kWindow - 1);

  std::vector<Chunk> chunks;
  size_t start = 0;
  while (start < data.size()) {
    size_t limit = std::min(data.size(), start + kMaxChunkBytes);
    size_t cut = limit;
    if (limit - start > kMinChunkBytes) {
      uint64_t h = 0;
      // Roll the window; boundaries only eligible after min_size.
      size_t warm = start + kMinChunkBytes - kWindow;
      for (size_t i = warm; i < limit; ++i) {
        h = h * kPrime + table[data[i]];
        if (i >= warm + kWindow) {
          h -= table[data[i - kWindow]] * out_factor * kPrime;
        }
        if (i + 1 >= start + kMinChunkBytes && (h & mask) == mask) {
          cut = i + 1;
          break;
        }
      }
    }
    chunks.push_back(Chunk{start, cut - start,
                           Fingerprint64(data.subspan(start, cut - start))});
    start = cut;
  }
  return chunks;
}

}  // namespace dpdpu::kern
