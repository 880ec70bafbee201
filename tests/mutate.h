// Seeded input mutation for the malformed-input tests: each call applies
// one of bit flips, truncation, or an overwritten window to a byte
// container (Buffer, std::string), drawing every choice from a Pcg32.

#ifndef DPDPU_TESTS_MUTATE_H_
#define DPDPU_TESTS_MUTATE_H_

#include <algorithm>
#include <cstdint>
#include <string_view>

#include "common/rng.h"

namespace dpdpu {

/// Mutates a non-empty `bytes` in place. Overwritten windows take their
/// bytes from `alphabet`, or uniformly from all 256 values when it is
/// empty.
template <typename Bytes>
void Mutate(Pcg32& rng, Bytes* bytes, std::string_view alphabet = {}) {
  const uint32_t n = static_cast<uint32_t>(bytes->size());
  switch (rng.NextBounded(3)) {
    case 0: {  // 1-8 bit flips
      for (uint32_t k = 1 + rng.NextBounded(8); k > 0; --k) {
        uint32_t bit = rng.NextBounded(n * 8);
        (*bytes)[bit / 8] ^= uint8_t(1u << (bit % 8));
      }
      break;
    }
    case 1:  // truncation
      bytes->resize(rng.NextBounded(n));
      break;
    default: {  // a window of up to 16 bytes overwritten
      uint32_t start = rng.NextBounded(n);
      uint32_t len = std::min(n - start, 1 + rng.NextBounded(16));
      for (uint32_t i = start; i < start + len; ++i) {
        (*bytes)[i] = alphabet.empty()
                          ? uint8_t(rng.Next())
                          : uint8_t(alphabet[rng.NextBounded(
                                uint32_t(alphabet.size()))]);
      }
      break;
    }
  }
}

}  // namespace dpdpu

#endif  // DPDPU_TESTS_MUTATE_H_
