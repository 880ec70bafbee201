// Shared DEFLATE constant tables (RFC 1951 §3.2.5-§3.2.7).

#ifndef DPDPU_KERN_DEFLATE_TABLES_H_
#define DPDPU_KERN_DEFLATE_TABLES_H_

#include <cstdint>

namespace dpdpu::kern {

inline constexpr int kNumLitLenSymbols = 288;  // 0-287 (286-287 reserved)
inline constexpr int kNumDistSymbols = 30;
inline constexpr int kNumClenSymbols = 19;
inline constexpr int kEndOfBlock = 256;
inline constexpr int kMinMatch = 3;
inline constexpr int kMaxMatch = 258;
inline constexpr int kWindowSize = 32768;

/// Length code i (0-28, symbol 257+i): base length and extra bits.
inline constexpr uint16_t kLengthBase[29] = {
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
inline constexpr uint8_t kLengthExtra[29] = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                                             1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
                                             4, 4, 4, 4, 5, 5, 5, 5, 0};

/// Distance code i (0-29): base distance and extra bits.
inline constexpr uint16_t kDistBase[30] = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,   25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,  769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
inline constexpr uint8_t kDistExtra[30] = {0, 0, 0,  0,  1,  1,  2,  2,  3, 3,
                                           4, 4, 5,  5,  6,  6,  7,  7,  8, 8,
                                           9, 9, 10, 10, 11, 11, 12, 12, 13,
                                           13};

/// Transmission order of code-length code lengths (RFC 1951 §3.2.7).
inline constexpr uint8_t kClenOrder[19] = {16, 17, 18, 0, 8,  7, 9,  6, 10, 5,
                                           11, 4,  12, 3, 13, 2, 14, 1, 15};

/// Maps a match length (3-258) to its length symbol (257-285). Unchecked:
/// the encoder calls it per token, on lengths its match finder bounds.
int LengthToSymbol(int length);

/// Maps a distance (1-32768) to its distance symbol (0-29). Unchecked,
/// like LengthToSymbol.
int DistanceToSymbol(int distance);

/// Fixed litlen code lengths (RFC 1951 §3.2.6).
inline constexpr uint8_t FixedLitLenLength(int symbol) {
  if (symbol < 144) return 8;
  if (symbol < 256) return 9;
  if (symbol < 280) return 7;
  return 8;
}

}  // namespace dpdpu::kern

#endif  // DPDPU_KERN_DEFLATE_TABLES_H_
