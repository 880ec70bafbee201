// DEFLATE decoder (RFC 1951). Defensive: every malformed stream path
// returns Status::Corruption rather than reading out of bounds. The block
// payload loop is the throughput-critical path: table-driven Huffman
// decode (HuffmanDecoder::DecodeFast over the BitReader's bulk-refill
// lookahead) and word-wise match copies.

#include <algorithm>
#include <cstring>
#include <vector>

#include "kern/bitio.h"
#include "kern/deflate.h"
#include "kern/deflate_tables.h"
#include "kern/huffman.h"

namespace dpdpu::kern {

namespace {

// Appends out[out->size()-distance ...] repeated to `length` bytes.
// Caller has validated distance/length; handles dist < len replication.
void CopyMatch(Buffer* out, size_t distance, size_t length) {
  size_t start = out->size();
  out->resize(start + length);
  uint8_t* dst = out->data() + start;
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

Status InflateBlockPayload(BitReader& br, const HuffmanDecoder& litlen,
                           const HuffmanDecoder* dist, size_t max_output,
                           Buffer* out) {
  for (;;) {
    int symbol;
    DPDPU_RETURN_IF_ERROR(litlen.DecodeFast(br, &symbol));
    if (symbol < 256) {
      if (out->size() >= max_output) {
        return Status::ResourceExhausted("inflate: output limit exceeded");
      }
      out->AppendU8(static_cast<uint8_t>(symbol));
      continue;
    }
    if (symbol == kEndOfBlock) return Status::Ok();
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
    if (distance > out->size()) {
      return Status::Corruption("inflate: distance beyond output start");
    }
    if (out->size() + length > max_output) {
      return Status::ResourceExhausted("inflate: output limit exceeded");
    }
    CopyMatch(out, distance, length);
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
  Buffer out;
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
        if (out.size() + len > max_output) {
          return Status::ResourceExhausted("inflate: output limit exceeded");
        }
        for (uint32_t i = 0; i < len; ++i) {
          uint8_t b;
          if (!br.ReadAlignedByte(&b)) {
            return Status::Corruption("inflate: truncated stored data");
          }
          out.AppendU8(b);
        }
        break;
      }
      case 1: {  // fixed Huffman
        DPDPU_RETURN_IF_ERROR(InflateBlockPayload(br, fixed.litlen, &fixed.dist,
                                                  max_output, &out));
        break;
      }
      case 2: {  // dynamic Huffman
        HuffmanDecoder litlen, dist;
        bool has_dist = false;
        DPDPU_RETURN_IF_ERROR(ReadDynamicTables(br, &litlen, &dist,
                                                &has_dist));
        DPDPU_RETURN_IF_ERROR(InflateBlockPayload(
            br, litlen, has_dist ? &dist : nullptr, max_output, &out));
        break;
      }
      default:
        return Status::Corruption("inflate: reserved block type 11");
    }
    if (bfinal) break;
  }
  return out;
}

}  // namespace dpdpu::kern
