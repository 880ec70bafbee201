#include "kern/chacha20.h"

#include <bit>
#include <cstring>

namespace dpdpu::kern {

namespace {

// Four 32-bit lanes in GCC/Clang vector extensions: portable, and SSE2 on
// the x86-64 baseline. ChaCha20Xor computes lane j of word i for block
// counter + j, so each round is the scalar round on whole vectors.
typedef uint32_t U32x4 __attribute__((vector_size(16)));

inline uint32_t Load32(const uint8_t* p) {
  return uint32_t(p[0]) | uint32_t(p[1]) << 8 | uint32_t(p[2]) << 16 |
         uint32_t(p[3]) << 24;
}

inline void Store32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

inline uint32_t Rotl(uint32_t v, int n) { return std::rotl(v, n); }
inline U32x4 Rotl(U32x4 v, int n) { return (v << n) | (v >> (32 - n)); }

template <typename Word>
inline void QuarterRound(Word& a, Word& b, Word& c, Word& d) {
  a += b;
  d = Rotl(d ^ a, 16);
  c += d;
  b = Rotl(b ^ c, 12);
  a += b;
  d = Rotl(d ^ a, 8);
  c += d;
  b = Rotl(b ^ c, 7);
}

// The keystream words of the block(s) whose input words are `state`.
template <typename Word>
void Keystream(const Word (&state)[16], Word (&w)[16]) {
  for (int i = 0; i < 16; ++i) w[i] = state[i];
  for (int round = 0; round < 10; ++round) {
    QuarterRound(w[0], w[4], w[8], w[12]);
    QuarterRound(w[1], w[5], w[9], w[13]);
    QuarterRound(w[2], w[6], w[10], w[14]);
    QuarterRound(w[3], w[7], w[11], w[15]);
    QuarterRound(w[0], w[5], w[10], w[15]);
    QuarterRound(w[1], w[6], w[11], w[12]);
    QuarterRound(w[2], w[7], w[8], w[13]);
    QuarterRound(w[3], w[4], w[9], w[14]);
  }
  for (int i = 0; i < 16; ++i) w[i] += state[i];
}

// The input words of block `counter` (RFC 8439 §2.3).
void InitState(const std::array<uint8_t, kChaCha20KeyBytes>& key,
               const std::array<uint8_t, kChaCha20NonceBytes>& nonce,
               uint32_t counter, uint32_t (&state)[16]) {
  const uint32_t words[16] = {
      0x61707865, 0x3320646e, 0x79622d32, 0x6b206574,
      Load32(&key[0]),  Load32(&key[4]),  Load32(&key[8]),  Load32(&key[12]),
      Load32(&key[16]), Load32(&key[20]), Load32(&key[24]), Load32(&key[28]),
      counter, Load32(&nonce[0]), Load32(&nonce[4]), Load32(&nonce[8])};
  std::memcpy(state, words, sizeof(words));
}

void BlockInto(const uint32_t (&state)[16], uint8_t out[64]) {
  uint32_t w[16];
  Keystream(state, w);
  for (int i = 0; i < 16; ++i) Store32(out + 4 * i, w[i]);
}

}  // namespace

std::array<uint8_t, 64> ChaCha20Block(
    const std::array<uint8_t, kChaCha20KeyBytes>& key,
    const std::array<uint8_t, kChaCha20NonceBytes>& nonce, uint32_t counter) {
  uint32_t state[16];
  InitState(key, nonce, counter, state);
  std::array<uint8_t, 64> out;
  BlockInto(state, out.data());
  return out;
}

Buffer ChaCha20Xor(const std::array<uint8_t, kChaCha20KeyBytes>& key,
                   const std::array<uint8_t, kChaCha20NonceBytes>& nonce,
                   uint32_t counter, ByteSpan input) {
  Buffer out(input.size());
  uint32_t state[16];
  InitState(key, nonce, counter, state);
  size_t pos = 0;
  // 4 blocks (256 bytes) per step; the lane counters wrap mod 2^32 as
  // the scalar counter does.
  for (; input.size() - pos >= 256; pos += 256) {
    U32x4 lanes[16];
    for (int i = 0; i < 16; ++i) lanes[i] = U32x4{} + state[i];
    lanes[12] += U32x4{0, 1, 2, 3};
    U32x4 w[16];
    Keystream(lanes, w);
    for (int j = 0; j < 4; ++j) {
      for (int i = 0; i < 16; ++i) {
        size_t at = pos + 64 * size_t(j) + 4 * size_t(i);
        Store32(out.data() + at, Load32(input.data() + at) ^ w[i][j]);
      }
    }
    state[12] += 4;
  }
  uint8_t keystream[64];
  while (pos < input.size()) {
    BlockInto(state, keystream);
    ++state[12];
    size_t n = std::min<size_t>(64, input.size() - pos);
    for (size_t i = 0; i < n; ++i) {
      out[pos + i] = input[pos + i] ^ keystream[i];
    }
    pos += n;
  }
  return out;
}

}  // namespace dpdpu::kern
