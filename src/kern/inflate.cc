// DEFLATE decoder (RFC 1951). Defensive: every malformed stream path
// returns Status::Corruption rather than reading out of bounds.
//
// The block payload loop is the throughput-critical path. Its fast loop
// keeps the bit accumulator, the input pointer and the output pointer in
// locals: a store through uint8_t* may alias any member, so a loop over
// BitReader's and Buffer's members reloads them after every output byte.
// One 8-byte refill leaves >= 56 bits, enough for a litlen code, its
// extra bits, a distance code and its extra bits, and each code resolves
// with one probe of its decoder's 10-bit table. Output goes through a raw
// pointer into a Buffer sized ahead, which grows by doubling and is cut
// to the bytes produced at the end; a match with distance >= 8 is copied
// 8 bytes at a time into the slack past its end. The fast loop runs while
// 8 input bytes and kFastSlack bytes of buffer remain. CarefulStep, the
// per-symbol decode through BitReader's checked reads, takes the rest:
// the stream's last 8 bytes, codes longer than the table (or unassigned),
// and output within kFastSlack bytes of the buffer's end or max_output.
// Both paths write the same bytes and return the same Status.

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "kern/bitio.h"
#include "kern/deflate.h"
#include "kern/deflate_tables.h"
#include "kern/huffman.h"

namespace dpdpu::kern {

namespace {

// Buffer the fast loop needs past the output position: a kMaxMatch-byte
// match copied 8 bytes at a time writes under 8 bytes beyond its end.
constexpr size_t kFastSlack = kMaxMatch + 8;

// The output so far: buf is sized ahead of the n bytes produced, and
// never beyond max_output.
struct Output {
  Buffer buf;
  size_t n = 0;
};

// Makes room for `more` bytes past out->n, where out->n + more <=
// max_output, by doubling the buffer as a vector grows.
void MakeRoom(Output* out, size_t more, size_t max_output) {
  size_t need = out->n + more;
  if (need <= out->buf.size()) return;
  out->buf.resize(std::min(max_output, std::max(need, 2 * out->buf.size())));
}

// Writes dst[-distance ...] repeated to `length` bytes at dst, exactly.
// Caller has validated distance/length; handles dist < len replication.
void CopyMatch(uint8_t* dst, size_t distance, size_t length) {
  const uint8_t* src = dst - distance;
  if (distance >= length) {
    std::memcpy(dst, src, length);
  } else if (distance == 1) {
    std::memset(dst, src[0], length);
  } else {
    // Overlapping: seed one period, then double the replicated prefix.
    // `done` stays a multiple of `distance` until the final partial
    // chunk, so copying from the front preserves the period.
    std::memcpy(dst, src, distance);
    size_t done = distance;
    while (done < length) {
      size_t chunk = std::min(done, length - done);
      std::memcpy(dst + done, dst, chunk);
      done += chunk;
    }
  }
}

inline uint64_t Load64(const uint8_t* p) {
  uint64_t w;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&w, p, 8);
  } else {
    w = 0;
    for (int i = 7; i >= 0; --i) w = (w << 8) | p[i];
  }
  return w;
}

// The offset in `input` of the first bit `br` has not consumed; br reads
// `input` or a suffix of it.
size_t BitOffset(const BitReader& br, ByteSpan input) {
  return 8 * (input.size() - br.bytes_remaining()) -
         size_t(br.bits_buffered());
}

// A reader of `input` whose next bit is bit `offset`.
BitReader ReaderAt(ByteSpan input, size_t offset) {
  BitReader br(input.subspan(offset / 8));
  uint32_t skipped;
  br.ReadBits(int(offset % 8), &skipped);
  return br;
}

// Decodes one symbol through br and writes its bytes exactly; sets
// *end_of_block on the end-of-block symbol.
Status CarefulStep(BitReader& br, const HuffmanDecoder& litlen,
                   const HuffmanDecoder* dist, size_t max_output,
                   Output* out, bool* end_of_block) {
  int symbol;
  DPDPU_RETURN_IF_ERROR(litlen.DecodeFast(br, &symbol));
  if (symbol < 256) {
    if (out->n >= max_output) {
      return Status::ResourceExhausted("inflate: output limit exceeded");
    }
    MakeRoom(out, 1, max_output);
    out->buf[out->n++] = static_cast<uint8_t>(symbol);
    return Status::Ok();
  }
  if (symbol == kEndOfBlock) {
    *end_of_block = true;
    return Status::Ok();
  }
  if (symbol > 285) return Status::Corruption("inflate: bad length symbol");

  int lidx = symbol - 257;
  uint32_t extra;
  if (!br.ReadBits(kLengthExtra[lidx], &extra)) {
    return Status::Corruption("inflate: truncated length extra bits");
  }
  size_t length = kLengthBase[lidx] + extra;

  if (dist == nullptr) {
    return Status::Corruption("inflate: match with no distance code");
  }
  int dsymbol;
  DPDPU_RETURN_IF_ERROR(dist->DecodeFast(br, &dsymbol));
  if (dsymbol > 29) return Status::Corruption("inflate: bad dist symbol");
  if (!br.ReadBits(kDistExtra[dsymbol], &extra)) {
    return Status::Corruption("inflate: truncated dist extra bits");
  }
  size_t distance = kDistBase[dsymbol] + extra;
  if (distance > out->n) {
    return Status::Corruption("inflate: distance beyond output start");
  }
  if (out->n + length > max_output) {
    return Status::ResourceExhausted("inflate: output limit exceeded");
  }
  MakeRoom(out, length, max_output);
  CopyMatch(out->buf.data() + out->n, distance, length);
  out->n += length;
  return Status::Ok();
}

// Decodes one block's symbols up to its end-of-block; br reads `input`.
Status InflateBlockPayload(ByteSpan input, BitReader& br,
                           const HuffmanDecoder& litlen,
                           const HuffmanDecoder* dist, size_t max_output,
                           Output* out) {
  constexpr uint64_t kLutMask = (1u << HuffmanDecoder::kLutBits) - 1;
  const uint16_t* litlen_lut = litlen.lut();
  const uint16_t* dist_lut = dist == nullptr ? nullptr : dist->lut();
  const uint8_t* const in_end = input.data() + input.size();
  for (;;) {
    size_t offset = BitOffset(br, input);
    const uint8_t* in = input.data() + offset / 8;
    if (in_end - in > 8 && out->n + kFastSlack <= out->buf.size()) {
      uint8_t* const base = out->buf.data();
      uint8_t* const dst_end = base + (out->buf.size() - kFastSlack);
      uint8_t* dst = base + out->n;
      // Invariant: the byte at `in` starts at accumulator bit `bits`, and
      // the bits above it hold that byte's low bits or zeros, so a refill
      // ORs the same bits in again.
      uint64_t acc = in[0] >> (offset % 8);
      int bits = 8 - int(offset % 8);
      ++in;
      bool end_of_block = false;
      while (in_end - in >= 8 && dst <= dst_end) {
        acc |= Load64(in) << bits;
        in += (63 - bits) >> 3;
        bits |= 56;
        uint32_t entry = litlen_lut[acc & kLutMask];
        int len = int(entry & 31);
        if (len == 0) break;  // longer than the table, or unassigned
        int symbol = int(entry >> 5);
        if (symbol < 256) {
          acc >>= len;
          bits -= len;
          *dst++ = static_cast<uint8_t>(symbol);
          continue;
        }
        if (symbol == kEndOfBlock) {
          acc >>= len;
          bits -= len;
          end_of_block = true;
          break;
        }
        if (symbol > 285) {
          return Status::Corruption("inflate: bad length symbol");
        }
        if (dist == nullptr) {
          return Status::Corruption("inflate: match with no distance code");
        }
        // Consumed only once the whole match decodes: on a distance
        // table miss, CarefulStep decodes this symbol again.
        int lidx = symbol - 257;
        int lextra = kLengthExtra[lidx];
        uint64_t a = acc >> len;
        size_t length = kLengthBase[lidx] + (a & ((1u << lextra) - 1));
        a >>= lextra;
        uint32_t dentry = dist_lut[a & kLutMask];
        int dlen = int(dentry & 31);
        if (dlen == 0) break;
        int dsymbol = int(dentry >> 5);
        if (dsymbol > 29) return Status::Corruption("inflate: bad dist symbol");
        int dextra = kDistExtra[dsymbol];
        a >>= dlen;
        size_t distance = kDistBase[dsymbol] + (a & ((1u << dextra) - 1));
        if (distance > size_t(dst - base)) {
          return Status::Corruption("inflate: distance beyond output start");
        }
        acc = a >> dextra;
        bits -= len + lextra + dlen + dextra;
        uint8_t* const match_end = dst + length;
        if (distance >= 8) {
          const uint8_t* src = dst - distance;
          do {
            std::memcpy(dst, src, 8);
            dst += 8;
            src += 8;
          } while (dst < match_end);
        } else {
          CopyMatch(dst, distance, length);
        }
        dst = match_end;
      }
      br = ReaderAt(input, 8 * size_t(in - input.data()) - size_t(bits));
      out->n = size_t(dst - base);
      if (end_of_block) return Status::Ok();
    }
    bool end_of_block = false;
    DPDPU_RETURN_IF_ERROR(
        CarefulStep(br, litlen, dist, max_output, out, &end_of_block));
    if (end_of_block) return Status::Ok();
  }
}

Status ReadDynamicTables(BitReader& br, HuffmanDecoder* litlen_out,
                         HuffmanDecoder* dist_out, bool* has_dist) {
  uint32_t hlit, hdist, hclen;
  if (!br.ReadBits(5, &hlit) || !br.ReadBits(5, &hdist) ||
      !br.ReadBits(4, &hclen)) {
    return Status::Corruption("inflate: truncated dynamic header");
  }
  hlit += 257;
  hdist += 1;
  hclen += 4;
  if (hlit > 286 || hdist > 30) {
    return Status::Corruption("inflate: dynamic header counts out of range");
  }

  std::vector<uint8_t> clen_lengths(kNumClenSymbols, 0);
  for (uint32_t i = 0; i < hclen; ++i) {
    uint32_t v;
    if (!br.ReadBits(3, &v)) {
      return Status::Corruption("inflate: truncated clen lengths");
    }
    clen_lengths[kClenOrder[i]] = static_cast<uint8_t>(v);
  }
  DPDPU_ASSIGN_OR_RETURN(HuffmanDecoder clen,
                         HuffmanDecoder::Build(clen_lengths));

  std::vector<uint8_t> lengths;
  lengths.reserve(hlit + hdist);
  while (lengths.size() < hlit + hdist) {
    int symbol;
    DPDPU_RETURN_IF_ERROR(clen.DecodeFast(br, &symbol));
    if (symbol < 16) {
      lengths.push_back(static_cast<uint8_t>(symbol));
    } else if (symbol == 16) {
      if (lengths.empty()) {
        return Status::Corruption("inflate: repeat with no previous length");
      }
      uint32_t rep;
      if (!br.ReadBits(2, &rep)) {
        return Status::Corruption("inflate: truncated repeat count");
      }
      uint8_t prev = lengths.back();
      for (uint32_t i = 0; i < rep + 3; ++i) lengths.push_back(prev);
    } else {
      uint32_t rep;
      int bits = (symbol == 17) ? 3 : 7;
      uint32_t base = (symbol == 17) ? 3 : 11;
      if (!br.ReadBits(bits, &rep)) {
        return Status::Corruption("inflate: truncated zero-run count");
      }
      for (uint32_t i = 0; i < rep + base; ++i) lengths.push_back(0);
    }
  }
  if (lengths.size() != hlit + hdist) {
    return Status::Corruption("inflate: code length overrun");
  }

  std::vector<uint8_t> litlen_lengths(lengths.begin(),
                                      lengths.begin() + hlit);
  if (litlen_lengths[kEndOfBlock] == 0) {
    return Status::Corruption("inflate: missing end-of-block code");
  }
  DPDPU_ASSIGN_OR_RETURN(*litlen_out, HuffmanDecoder::Build(litlen_lengths));

  std::vector<uint8_t> dist_lengths(lengths.begin() + hlit, lengths.end());
  *has_dist = false;
  for (uint8_t l : dist_lengths) {
    if (l > 0) {
      *has_dist = true;
      break;
    }
  }
  if (*has_dist) {
    DPDPU_ASSIGN_OR_RETURN(*dist_out, HuffmanDecoder::Build(dist_lengths));
  }
  return Status::Ok();
}

// The fixed-Huffman decoders (RFC 1951 §3.2.6), built once per process.
struct FixedDecoders {
  HuffmanDecoder litlen;
  HuffmanDecoder dist;
};

// Never destroyed: a static destroyed at exit would be freed under any
// thread still decoding then.
const FixedDecoders& TheFixedDecoders() {
  static const FixedDecoders& decoders = *[] {
    std::vector<uint8_t> litlen(kNumLitLenSymbols);
    for (int s = 0; s < kNumLitLenSymbols; ++s) {
      litlen[s] = FixedLitLenLength(s);
    }
    return new FixedDecoders{
        HuffmanDecoder::Build(litlen).value(),
        HuffmanDecoder::Build(std::vector<uint8_t>(kNumDistSymbols, 5))
            .value()};
  }();
  return decoders;
}

}  // namespace

Result<Buffer> DeflateDecompress(ByteSpan input, size_t max_output) {
  // Sized ahead at the compressed size rounded down to a power of two: the
  // output is rarely smaller, and doubling from there reaches the sizes a
  // vector's push_back would.
  Output out;
  out.buf.resize(std::min(
      max_output, std::bit_floor(std::max<size_t>(input.size(), 4096))));
  BitReader br(input);
  const FixedDecoders& fixed = TheFixedDecoders();

  for (;;) {
    uint32_t bfinal, btype;
    if (!br.ReadBits(1, &bfinal) || !br.ReadBits(2, &btype)) {
      return Status::Corruption("inflate: truncated block header");
    }
    switch (btype) {
      case 0: {  // stored
        br.AlignToByte();
        uint8_t b0, b1, b2, b3;
        if (!br.ReadAlignedByte(&b0) || !br.ReadAlignedByte(&b1) ||
            !br.ReadAlignedByte(&b2) || !br.ReadAlignedByte(&b3)) {
          return Status::Corruption("inflate: truncated stored header");
        }
        uint32_t len = uint32_t(b0) | (uint32_t(b1) << 8);
        uint32_t nlen = uint32_t(b2) | (uint32_t(b3) << 8);
        if ((len ^ 0xFFFF) != nlen) {
          return Status::Corruption("inflate: stored LEN/NLEN mismatch");
        }
        if (out.n + len > max_output) {
          return Status::ResourceExhausted("inflate: output limit exceeded");
        }
        size_t start = BitOffset(br, input) / 8;
        if (input.size() - start < len) {
          return Status::Corruption("inflate: truncated stored data");
        }
        if (len > 0) {
          MakeRoom(&out, len, max_output);
          std::memcpy(out.buf.data() + out.n, input.data() + start, len);
          out.n += len;
        }
        br = ReaderAt(input, 8 * (start + len));
        break;
      }
      case 1: {  // fixed Huffman
        DPDPU_RETURN_IF_ERROR(InflateBlockPayload(
            input, br, fixed.litlen, &fixed.dist, max_output, &out));
        break;
      }
      case 2: {  // dynamic Huffman
        HuffmanDecoder litlen, dist;
        bool has_dist = false;
        DPDPU_RETURN_IF_ERROR(ReadDynamicTables(br, &litlen, &dist,
                                                &has_dist));
        DPDPU_RETURN_IF_ERROR(
            InflateBlockPayload(input, br, litlen,
                                has_dist ? &dist : nullptr, max_output, &out));
        break;
      }
      default:
        return Status::Corruption("inflate: reserved block type 11");
    }
    if (bfinal) break;
  }
  out.buf.resize(out.n);
  return std::move(out.buf);
}

}  // namespace dpdpu::kern
