// LSB-first bit I/O as used by the DEFLATE wire format (RFC 1951 §3.1.1):
// bits fill each byte starting from its least significant bit.

#ifndef DPDPU_KERN_BITIO_H_
#define DPDPU_KERN_BITIO_H_

#include <bit>
#include <cstdint>
#include <cstring>

#include "common/buffer.h"

namespace dpdpu::kern {

/// Accumulates bits LSB-first into a Buffer.
class BitWriter {
 public:
  explicit BitWriter(Buffer* out) : out_(out) {}

  /// Writes the low `count` bits of `bits`, LSB-first. count in [0, 32].
  void WriteBits(uint32_t bits, int count) {
    acc_ |= uint64_t(bits & ((count == 32) ? 0xFFFFFFFFu
                                           : ((1u << count) - 1u)))
            << filled_;
    filled_ += count;
    while (filled_ >= 8) {
      out_->AppendU8(static_cast<uint8_t>(acc_));
      acc_ >>= 8;
      filled_ -= 8;
    }
  }

  /// Writes a Huffman code: DEFLATE transmits codes MSB-first, so the
  /// canonical code value is bit-reversed before the LSB-first write.
  void WriteHuffmanCode(uint32_t code, int length) {
    uint32_t reversed = 0;
    for (int i = 0; i < length; ++i) {
      reversed = (reversed << 1) | ((code >> i) & 1u);
    }
    WriteBits(reversed, length);
  }

  /// Pads with zero bits to the next byte boundary. (Not AlignToByte:
  /// simscope resolves calls by name, and BitReader has that one.)
  void PadToByte() {
    if (filled_ > 0) {
      out_->AppendU8(static_cast<uint8_t>(acc_));
      acc_ = 0;
      filled_ = 0;
    }
  }

  /// Bits currently pending (for size accounting).
  int pending_bits() const { return filled_; }

 private:
  Buffer* out_;
  uint64_t acc_ = 0;
  int filled_ = 0;
};

/// Consumes bits LSB-first from a ByteSpan.
class BitReader {
 public:
  explicit BitReader(ByteSpan in) : in_(in) {}

  /// Reads `count` bits (0..32) into *out. Returns false on underflow.
  bool ReadBits(int count, uint32_t* out) {
    while (filled_ < count) {
      if (pos_ >= in_.size()) return false;
      acc_ |= uint64_t(in_[pos_++]) << filled_;
      filled_ += 8;
    }
    *out = static_cast<uint32_t>(
        acc_ & ((count == 32) ? 0xFFFFFFFFull : ((1ull << count) - 1)));
    acc_ >>= count;
    filled_ -= count;
    return true;
  }

  /// Reads a single bit.
  bool ReadBit(uint32_t* out) { return ReadBits(1, out); }

  // -- Bulk lookahead primitives (table-driven Huffman decode) ----------
  //
  // Invariant shared with ReadBits/ReadAlignedByte: accumulator bits at
  // positions >= filled_ are zero, so the byte-level paths stay correct
  // regardless of how the buffer was filled.

  /// Tops the buffer up to >= 56 bits while input remains: one 8-byte
  /// load mid-stream (masked to the whole bytes that fit), byte-wise
  /// within the final 8 bytes.
  void Refill() {
    if (filled_ >= 56) return;
    if (in_.size() - pos_ >= 8) {
      uint64_t w;
      if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&w, in_.data() + pos_, 8);
      } else {
        w = 0;
        for (int i = 7; i >= 0; --i) w = (w << 8) | in_[pos_ + size_t(i)];
      }
      int take = (63 - filled_) >> 3;  // whole bytes that fit; >= 1 here
      acc_ |= (w & ((1ull << (8 * take)) - 1)) << filled_;
      pos_ += size_t(take);
      filled_ += take * 8;
    } else {
      while (filled_ < 56 && pos_ < in_.size()) {
        acc_ |= uint64_t(in_[pos_++]) << filled_;
        filled_ += 8;
      }
    }
  }

  /// Returns the low `count` (<= 32) buffered bits without consuming.
  /// Bits past end-of-stream read as zero; callers must check
  /// bits_buffered() before trusting more than bits_buffered() bits.
  uint32_t PeekBits(int count) const {
    return static_cast<uint32_t>(
        acc_ & ((count == 32) ? 0xFFFFFFFFull : ((1ull << count) - 1)));
  }

  /// Discards `count` bits previously Peeked; count <= bits_buffered().
  void ConsumeBits(int count) {
    acc_ >>= count;
    filled_ -= count;
  }

  /// Bits currently available to Peek/Consume.
  int bits_buffered() const { return filled_; }

  /// Discards buffered bits to realign at the next byte boundary.
  void AlignToByte() {
    int drop = filled_ % 8;
    acc_ >>= drop;
    filled_ -= drop;
  }

  /// Reads a whole byte after alignment. Returns false on underflow.
  bool ReadAlignedByte(uint8_t* out) {
    if (filled_ >= 8) {
      *out = static_cast<uint8_t>(acc_);
      acc_ >>= 8;
      filled_ -= 8;
      return true;
    }
    if (pos_ >= in_.size()) return false;
    *out = in_[pos_++];
    return true;
  }

  /// Bytes not yet pulled into the accumulator.
  size_t bytes_remaining() const { return in_.size() - pos_; }

 private:
  ByteSpan in_;
  size_t pos_ = 0;
  uint64_t acc_ = 0;
  int filled_ = 0;
};

}  // namespace dpdpu::kern

#endif  // DPDPU_KERN_BITIO_H_
