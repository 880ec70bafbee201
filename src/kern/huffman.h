// Canonical Huffman coding utilities shared by the DEFLATE encoder and
// decoder: optimal length-limited code construction (package-merge),
// canonical code assignment (RFC 1951 §3.2.2), and a canonical decoder.

#ifndef DPDPU_KERN_HUFFMAN_H_
#define DPDPU_KERN_HUFFMAN_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "kern/bitio.h"

namespace dpdpu::kern {

/// Maximum code length permitted by DEFLATE for litlen/dist codes.
inline constexpr int kMaxHuffmanBits = 15;

/// Computes optimal length-limited code lengths for the given symbol
/// frequencies using the package-merge algorithm. Symbols with zero
/// frequency get length 0. A single used symbol gets length 1. Requires
/// 2^max_bits >= number of used symbols.
std::vector<uint8_t> PackageMergeLengths(const std::vector<uint64_t>& freqs,
                                         int max_bits);

/// Assigns canonical code values from code lengths per RFC 1951 §3.2.2.
/// codes[i] is valid when lengths[i] > 0.
std::vector<uint32_t> CanonicalCodes(const std::vector<uint8_t>& lengths);

/// Canonical Huffman decoder over LSB-first DEFLATE bit streams.
/// Tolerates incomplete codes: decoding fails only when the stream
/// actually presents an unassigned code (RFC permits unused incomplete
/// distance codes).
///
/// Build() additionally constructs a single-level lookup table keyed on
/// kLutBits peeked stream bits; DecodeFast resolves codes of length <=
/// kLutBits with one table hit and falls back to the canonical
/// bit-at-a-time walk for the rare longer codes and the stream tail.
class HuffmanDecoder {
 public:
  /// LUT width: covers every code the package-merge encoder emits for
  /// typical corpora (long codes are by construction rare symbols).
  /// 2^10 u16 entries = 2 KB per decoder.
  static constexpr int kLutBits = 10;

  /// Default instance decodes nothing; assign from Build().
  HuffmanDecoder() = default;

  /// Builds from code lengths; fails on over-subscribed codes.
  static Result<HuffmanDecoder> Build(const std::vector<uint8_t>& lengths);

  /// Decodes one symbol. Fails on underflow or unassigned code.
  Status Decode(BitReader& reader, int* symbol) const;

  /// Hot-path decode: one LUT probe on peeked bits; identical results
  /// and error behavior to Decode().
  Status DecodeFast(BitReader& reader, int* symbol) const {
    reader.Refill();
    if (!lut_.empty()) {
      uint16_t entry = lut_[reader.PeekBits(kLutBits)];
      int len = entry & 31;
      if (len != 0 && len <= reader.bits_buffered()) {
        reader.ConsumeBits(len);
        *symbol = entry >> 5;
        return Status::Ok();
      }
    }
    return Decode(reader, symbol);
  }

  /// Number of symbols with non-zero length.
  int used_symbols() const { return static_cast<int>(symbols_.size()); }

  /// The 2^kLutBits-entry table DecodeFast probes (see lut_), for a
  /// decode loop that keeps its bits in locals. Requires a Build()-made
  /// decoder.
  const uint16_t* lut() const { return lut_.data(); }

 private:
  // count_[l]: number of codes of length l; symbols_ sorted canonically.
  std::vector<uint16_t> count_;
  std::vector<uint16_t> symbols_;
  // lut_[peeked kLutBits, LSB-first]: (symbol << 5) | code_length for
  // codes of length <= kLutBits; 0 = miss (longer or unassigned code).
  std::vector<uint16_t> lut_;
};

}  // namespace dpdpu::kern

#endif  // DPDPU_KERN_HUFFMAN_H_
