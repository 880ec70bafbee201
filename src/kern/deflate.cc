#include "kern/deflate.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <span>
#include <vector>

#include "common/logging.h"
#include "kern/bitio.h"
#include "kern/deflate_tables.h"
#include "kern/huffman.h"

namespace dpdpu::kern {

namespace {

// Length code (symbol - 257) of each match length, indexed by length - 3.
constexpr std::array<uint8_t, kMaxMatch - kMinMatch + 1> MakeLengthCodes() {
  std::array<uint8_t, kMaxMatch - kMinMatch + 1> table{};
  int code = 0;
  for (int length = kMinMatch; length <= kMaxMatch; ++length) {
    while (code < 28 && length >= kLengthBase[code + 1]) ++code;
    table[length - kMinMatch] = uint8_t(code);
  }
  return table;
}

// Distance code of distance d: entry d - 1 for d <= 256, else entry
// 256 + ((d - 1) >> 7). Codes above 15 start on multiples of 128 past
// 256 and have at least 7 extra bits, so the second half is exact.
constexpr std::array<uint8_t, 512> MakeDistCodes() {
  std::array<uint8_t, 512> table{};
  for (int i = 0; i < 512; ++i) {
    int distance = i < 256 ? i + 1 : ((i - 256) << 7) + 1;
    int code = 0;
    while (code < 29 && distance >= kDistBase[code + 1]) ++code;
    table[i] = uint8_t(code);
  }
  return table;
}

constexpr auto kLengthCode = MakeLengthCodes();
constexpr auto kDistCode = MakeDistCodes();

}  // namespace

int LengthToSymbol(int length) {
  return 257 + kLengthCode[length - kMinMatch];
}

int DistanceToSymbol(int distance) {
  int d = distance - 1;
  return kDistCode[d < 256 ? d : 256 + (d >> 7)];
}

namespace {

// ---------------------------------------------------------------------------
// LZ77 tokenization with hash chains and lazy matching.
// ---------------------------------------------------------------------------

struct Token {
  // dist == 0: literal, len holds the byte value.
  // dist > 0:  match of `len` (3-258) at back-distance `dist` (1-32768).
  uint16_t len;
  uint16_t dist;
};

struct MatchParams {
  int max_chain;
  int nice_length;
  bool lazy;
};

MatchParams ParamsForLevel(int level) {
  level = std::clamp(level, 1, 9);
  switch (level) {
    case 1:
      return {8, 16, false};
    case 2:
      return {16, 32, false};
    case 3:
      return {32, 64, false};
    case 4:
      return {32, 64, true};
    case 5:
      return {64, 96, true};
    case 6:
      return {128, 128, true};
    case 7:
      return {256, 192, true};
    case 8:
      return {512, 258, true};
    default:
      return {1024, 258, true};
  }
}

// Hash-chain match finder. Its search rule defines the output bytes:
// Find(pos) looks at the newest max_chain positions on pos's 3-byte hash
// chain that lie within the window, and returns the newest one of the
// greatest match length, stopping early at the first that reaches
// nice_length or max_len. The search below computes exactly that rule
// without extending every chain entry (DESIGN.md §4b):
//  - Every candidate longer than 3 shares pos's first 4 bytes, so the
//    search walks a second chain keyed on a 4-byte hash and skips
//    entries whose first 4 bytes differ. Each position's rank on its
//    3-byte chain replaces the 3-byte walk's step budget: a candidate is
//    in budget while fewer than max_chain positions of its 3-byte chain
//    are newer than it.
//  - A candidate replaces the best only if it is longer, so once the best
//    length reaches 7, only candidates sharing pos's first 8 bytes can.
//    The search then goes on along a third chain, keyed on an 8-byte
//    hash, below the candidates the 4-byte walk has already examined.
//  - Chain links and ranks live in rings indexed by position & mask_,
//    window-sized or, for a shorter input, just large enough to hold it.
//    Position p's slot is overwritten only by p plus a multiple of the
//    ring size. Positions are inserted only up to the one being searched,
//    so no slot of an in-window candidate has been overwritten.
class MatchFinder {
 public:
  MatchFinder(ByteSpan in, MatchParams params)
      : in_(in),
        params_(params),
        ring_size_(std::bit_ceil(
            std::clamp<size_t>(in.size(), 256, kWindowSize))),
        mask_(ring_size_ - 1),
        hash4_shift_(32 - std::countr_zero(ring_size_)),
        hash8_shift_(64 - std::countr_zero(ring_size_)),
        head3_(kHash3Size, -1),
        head4_(ring_size_, -1),
        head8_(ring_size_, -1),
        prev3_(ring_size_),
        prev4_(ring_size_),
        prev8_(ring_size_),
        rank_(ring_size_) {
    DPDPU_CHECK(in.size() < size_t(INT32_MAX));
  }

  struct Match {
    int len = 0;
    int dist = 0;
  };

  /// Longest match at `pos` against strictly earlier inserted positions.
  /// With `beat` > 0, only a match longer than `beat` is looked for: the
  /// result is Find(pos) if that is longer, and no match otherwise.
  Match Find(size_t pos, int beat = 0) const {
    if (pos + kMinMatch > in_.size()) return Match{};
    const int32_t limit = pos > kWindowSize ? int32_t(pos - kWindowSize) : 0;
    const int32_t head = head3_[Hash3(pos)];
    if (head < limit) return Match{};
    const int max_len =
        static_cast<int>(std::min<size_t>(kMaxMatch, in_.size() - pos));
    Match best{beat, 0};
    if (max_len > std::max(beat, kMinMatch)) {
      const uint16_t head_rank = rank_[head & mask_];
      bool done = false;
      if (best.len < 7) {
        const uint32_t first4 = Load32(pos);
        for (int32_t cand = head4_[Hash4(pos)]; cand >= limit;
             cand = prev4_[cand & mask_]) {
          if (Load32(size_t(cand)) != first4) continue;
          done = Consider(cand, pos, max_len, head_rank, best);
          if (done || best.len >= 7) break;
        }
      }
      // Go on along the 8-byte chain (max_len > best.len, so pos has 8
      // bytes), skipping the entries from pos - best.dist up: the 4-byte
      // walk examined every candidate there.
      if (!done && best.len >= 7) {
        const uint64_t first8 = Load64(pos);
        const int32_t examined = static_cast<int32_t>(pos) - best.dist;
        for (int32_t cand = head8_[Hash8(pos)]; cand >= limit;
             cand = prev8_[cand & mask_]) {
          if (cand >= examined || Load64(size_t(cand)) != first8) continue;
          if (Consider(cand, pos, max_len, head_rank, best)) break;
        }
      }
      if (best.dist > 0) return best;
    }
    if (beat > 0) return Match{};
    // No candidate is longer than 3: take the newest in-budget one whose
    // first 3 bytes match (the 3-byte chain also holds hash collisions).
    const uint32_t first3 = Load24(pos);
    int chain = params_.max_chain;
    for (int32_t cand = head; cand >= limit && chain > 0;
         cand = prev3_[cand & mask_], --chain) {
      if (Load24(size_t(cand)) == first3) {
        return Match{kMinMatch, static_cast<int>(pos) - cand};
      }
    }
    return Match{};
  }

  /// Inserts all positions in [inserted_, end) into the hash chains.
  void InsertUpTo(size_t end) {
    for (; inserted_ < end; ++inserted_) {
      if (inserted_ + kMinMatch > in_.size()) continue;
      const size_t slot = inserted_ & mask_;
      const uint32_t h3 = Hash3(inserted_);
      const int32_t head = head3_[h3];
      prev3_[slot] = head;
      // When the previous chain entry has left the window its slot may
      // hold another position's rank; no search compares across that gap.
      rank_[slot] = uint16_t(rank_[head & mask_] + 1);
      head3_[h3] = static_cast<int32_t>(inserted_);
      if (inserted_ + 4 <= in_.size()) {
        const uint32_t h4 = Hash4(inserted_);
        prev4_[slot] = head4_[h4];
        head4_[h4] = static_cast<int32_t>(inserted_);
      }
      if (inserted_ + 8 <= in_.size()) {
        const uint32_t h8 = Hash8(inserted_);
        prev8_[slot] = head8_[h8];
        head8_[h8] = static_cast<int32_t>(inserted_);
      }
    }
  }

 private:
  static constexpr uint32_t kHash3Size = 1u << 15;

  uint32_t Load24(size_t pos) const {
    return uint32_t(in_[pos]) << 16 | uint32_t(in_[pos + 1]) << 8 |
           uint32_t(in_[pos + 2]);
  }

  uint32_t Load32(size_t pos) const {
    uint32_t v;
    std::memcpy(&v, in_.data() + pos, 4);
    return v;
  }

  uint64_t Load64(size_t pos) const {
    uint64_t v;
    std::memcpy(&v, in_.data() + pos, 8);
    return v;
  }

  uint32_t Hash3(size_t pos) const {
    return (Load24(pos) * 2654435761u) >> 17;
  }

  uint32_t Hash4(size_t pos) const {
    return (Load32(pos) * 2654435761u) >> hash4_shift_;
  }

  uint32_t Hash8(size_t pos) const {
    return uint32_t((Load64(pos) * 0x9E3779B97F4A7C15ull) >> hash8_shift_);
  }

  // Weighs cand, an entry of pos's 3-byte chain that shares pos's first 4
  // bytes, against `best`. Returns true when the search is over: cand is
  // out of budget (ranks fall along the 3-byte chain, so every older
  // candidate is too), or the new best reaches nice_length or max_len.
  bool Consider(int32_t cand, size_t pos, int max_len, uint16_t head_rank,
                Match& best) const {
    if (uint16_t(head_rank - rank_[cand & mask_]) >= params_.max_chain) {
      return true;
    }
    // Quick reject: to beat best, cand must also match the 4 bytes that
    // end at offset best.len (best.len is 0 or at least 3).
    if (best.len > 0 && Load32(size_t(cand) + best.len - 3) !=
                            Load32(pos + best.len - 3)) {
      return false;
    }
    const int len = MatchLength(size_t(cand), pos, max_len);
    if (len <= best.len) return false;
    best = {len, static_cast<int>(pos) - cand};
    return len >= params_.nice_length || len == max_len;
  }

  // Word-wise match extension: compare 8 bytes per step, locate the first
  // mismatching byte from the XOR. Reading 8 bytes at `a + len` is safe
  // because a < b and b + max_len <= in_.size() bounds both windows.
  int MatchLength(size_t a, size_t b, int max_len) const {
    const uint8_t* pa = in_.data() + a;
    const uint8_t* pb = in_.data() + b;
    int len = 0;
    while (len + 8 <= max_len) {
      uint64_t wa, wb;
      std::memcpy(&wa, pa + len, 8);
      std::memcpy(&wb, pb + len, 8);
      uint64_t diff = wa ^ wb;
      if (diff != 0) {
        int bit = (std::endian::native == std::endian::little)
                      ? std::countr_zero(diff)
                      : std::countl_zero(diff);
        return len + (bit >> 3);
      }
      len += 8;
    }
    while (len < max_len && pa[len] == pb[len]) ++len;
    return len;
  }

  ByteSpan in_;
  MatchParams params_;
  size_t ring_size_;
  size_t mask_;
  int hash4_shift_;
  int hash8_shift_;
  std::vector<int32_t> head3_;  // newest position per 3-byte hash
  std::vector<int32_t> head4_;  // newest position per 4-byte hash
  std::vector<int32_t> head8_;  // newest position per 8-byte hash
  std::vector<int32_t> prev3_;  // ring: next older entry, 3-byte chain
  std::vector<int32_t> prev4_;  // ring: next older entry, 4-byte chain
  std::vector<int32_t> prev8_;  // ring: next older entry, 8-byte chain
  std::vector<uint16_t> rank_;  // ring: rank on the 3-byte chain, mod 2^16
  size_t inserted_ = 0;
};

// Produces the token stream: emit(pos, token) for each token, in order,
// with the input offset where the token starts.
template <typename Emit>
void Tokenize(ByteSpan in, MatchParams params, Emit&& emit) {
  MatchFinder finder(in, params);
  size_t pos = 0;
  // A lazy step that emits a literal has already searched pos + 1. Once
  // every earlier position is inserted, Find depends only on its
  // position, so that result is the next step's Find(pos).
  bool have_lookahead = false;
  MatchFinder::Match lookahead;
  while (pos < in.size()) {
    finder.InsertUpTo(pos);
    MatchFinder::Match m = have_lookahead ? lookahead : finder.Find(pos);
    have_lookahead = false;
    if (m.len >= kMinMatch && params.lazy && m.len < params.nice_length &&
        pos + 1 < in.size()) {
      // Lazy evaluation: prefer a longer match starting one byte later.
      // Only a longer one is used, and Find returns exactly that.
      finder.InsertUpTo(pos + 1);
      MatchFinder::Match next = finder.Find(pos + 1, m.len);
      if (next.len > m.len) {
        emit(pos, Token{uint16_t(in[pos]), 0});
        ++pos;
        have_lookahead = true;
        lookahead = next;
        continue;
      }
    }
    if (m.len >= kMinMatch) {
      emit(pos, Token{uint16_t(m.len), uint16_t(m.dist)});
      pos += m.len;
    } else {
      emit(pos, Token{uint16_t(in[pos]), 0});
      ++pos;
    }
  }
}

// ---------------------------------------------------------------------------
// Block encoding.
// ---------------------------------------------------------------------------

// A block's code lengths and its codes, bit-reversed once for BitWriter's
// LSB-first writes.
struct BlockCodes {
  std::vector<uint8_t> litlen_lengths;
  std::vector<uint32_t> litlen_codes;
  std::vector<uint8_t> dist_lengths;
  std::vector<uint32_t> dist_codes;
};

std::vector<uint32_t> ReversedCodes(const std::vector<uint8_t>& lengths) {
  std::vector<uint32_t> codes = CanonicalCodes(lengths);
  for (size_t s = 0; s < codes.size(); ++s) {
    codes[s] = ReverseBits(codes[s], lengths[s]);
  }
  return codes;
}

// RLE'd code-length sequence entry: symbol 0-18 plus its repeat payload.
struct ClenEntry {
  uint8_t symbol;
  uint8_t extra;  // payload for 16/17/18
};

std::vector<ClenEntry> RleCodeLengths(const std::vector<uint8_t>& lengths) {
  std::vector<ClenEntry> out;
  size_t i = 0;
  while (i < lengths.size()) {
    uint8_t v = lengths[i];
    size_t run = 1;
    while (i + run < lengths.size() && lengths[i + run] == v) ++run;
    if (v == 0) {
      size_t left = run;
      while (left >= 11) {
        size_t r = std::min<size_t>(left, 138);
        out.push_back({18, uint8_t(r - 11)});
        left -= r;
      }
      if (left >= 3) {
        out.push_back({17, uint8_t(left - 3)});
        left = 0;
      }
      while (left-- > 0) out.push_back({0, 0});
    } else {
      out.push_back({v, 0});
      size_t left = run - 1;
      while (left >= 3) {
        size_t r = std::min<size_t>(left, 6);
        out.push_back({16, uint8_t(r - 3)});
        left -= r;
      }
      while (left-- > 0) out.push_back({v, 0});
    }
    i += run;
  }
  return out;
}

int ClenExtraBits(uint8_t symbol) {
  if (symbol == 16) return 2;
  if (symbol == 17) return 3;
  if (symbol == 18) return 7;
  return 0;
}

// Bits that symbols of these frequencies take under these code lengths.
uint64_t CodeBits(const std::vector<uint64_t>& freq,
                  const std::vector<uint8_t>& lengths) {
  uint64_t bits = 0;
  for (size_t s = 0; s < freq.size(); ++s) bits += freq[s] * lengths[s];
  return bits;
}

void WriteTokens(BitWriter& bw, std::span<const Token> tokens,
                 const BlockCodes& codes) {
  for (const Token& t : tokens) {
    if (t.dist == 0) {
      bw.WriteBits(codes.litlen_codes[t.len], codes.litlen_lengths[t.len]);
    } else {
      // Each code and its extra bits in one write: at most 15 + 13 bits.
      const int lsym = LengthToSymbol(t.len);
      const int lbits = codes.litlen_lengths[lsym];
      bw.WriteBits(codes.litlen_codes[lsym] |
                       uint32_t(t.len - kLengthBase[lsym - 257]) << lbits,
                   lbits + kLengthExtra[lsym - 257]);
      const int dsym = DistanceToSymbol(t.dist);
      const int dbits = codes.dist_lengths[dsym];
      bw.WriteBits(codes.dist_codes[dsym] |
                       uint32_t(t.dist - kDistBase[dsym]) << dbits,
                   dbits + kDistExtra[dsym]);
    }
  }
  bw.WriteBits(codes.litlen_codes[kEndOfBlock],
               codes.litlen_lengths[kEndOfBlock]);
}

BlockCodes FixedCodes() {
  BlockCodes codes;
  codes.litlen_lengths.resize(kNumLitLenSymbols);
  for (int s = 0; s < kNumLitLenSymbols; ++s) {
    codes.litlen_lengths[s] = FixedLitLenLength(s);
  }
  codes.litlen_codes = ReversedCodes(codes.litlen_lengths);
  codes.dist_lengths.assign(kNumDistSymbols, 5);
  codes.dist_codes = ReversedCodes(codes.dist_lengths);
  return codes;
}

void WriteStored(BitWriter& bw, ByteSpan data, bool final) {
  size_t off = 0;
  do {
    size_t chunk = std::min<size_t>(data.size() - off, 65535);
    bool last = final && (off + chunk == data.size());
    bw.WriteBits(last ? 1 : 0, 1);
    bw.WriteBits(0, 2);  // BTYPE=00
    bw.PadToByte();
    bw.WriteBits(static_cast<uint32_t>(chunk), 16);
    bw.WriteBits(static_cast<uint32_t>(~chunk) & 0xFFFF, 16);
    for (size_t i = 0; i < chunk; ++i) {
      bw.WriteBits(data[off + i], 8);
    }
    off += chunk;
  } while (off < data.size());
}

// Encodes one block of tokens covering input bytes [range_begin, range_end).
void EncodeBlock(BitWriter& bw, std::span<const Token> tokens,
                 ByteSpan block_input, bool final) {
  // Symbol frequencies, and the length and distance extra bits, which are
  // the same under every code.
  std::vector<uint64_t> litlen_freq(kNumLitLenSymbols, 0);
  std::vector<uint64_t> dist_freq(kNumDistSymbols, 0);
  uint64_t extra_bits = 0;
  for (const Token& t : tokens) {
    if (t.dist == 0) {
      ++litlen_freq[t.len];
    } else {
      const int lsym = LengthToSymbol(t.len);
      const int dsym = DistanceToSymbol(t.dist);
      ++litlen_freq[lsym];
      ++dist_freq[dsym];
      extra_bits += kLengthExtra[lsym - 257] + kDistExtra[dsym];
    }
  }
  ++litlen_freq[kEndOfBlock];

  // Dynamic code construction.
  BlockCodes dyn;
  dyn.litlen_lengths = PackageMergeLengths(litlen_freq, kMaxHuffmanBits);
  dyn.dist_lengths = PackageMergeLengths(dist_freq, kMaxHuffmanBits);
  dyn.litlen_codes = ReversedCodes(dyn.litlen_lengths);
  dyn.dist_codes = ReversedCodes(dyn.dist_lengths);

  int hlit = 257;
  for (int s = kNumLitLenSymbols - 1; s >= 257; --s) {
    if (dyn.litlen_lengths[s] > 0) {
      hlit = s + 1;
      break;
    }
  }
  int hdist = 1;
  for (int s = kNumDistSymbols - 1; s >= 1; --s) {
    if (dyn.dist_lengths[s] > 0) {
      hdist = s + 1;
      break;
    }
  }

  // Code-length code over the concatenated litlen+dist lengths.
  std::vector<uint8_t> all_lengths(dyn.litlen_lengths.begin(),
                                   dyn.litlen_lengths.begin() + hlit);
  all_lengths.insert(all_lengths.end(), dyn.dist_lengths.begin(),
                     dyn.dist_lengths.begin() + hdist);
  std::vector<ClenEntry> rle = RleCodeLengths(all_lengths);
  std::vector<uint64_t> clen_freq(kNumClenSymbols, 0);
  for (const ClenEntry& e : rle) ++clen_freq[e.symbol];
  std::vector<uint8_t> clen_lengths = PackageMergeLengths(clen_freq, 7);
  std::vector<uint32_t> clen_codes = CanonicalCodes(clen_lengths);
  int hclen = 4;
  for (int i = kNumClenSymbols - 1; i >= 4; --i) {
    if (clen_lengths[kClenOrder[i]] > 0) {
      hclen = i + 1;
      break;
    }
  }

  // Cost comparison (all in bits, excluding the shared 3-bit header).
  uint64_t header_bits = 14;
  header_bits += uint64_t(hclen) * 3;
  for (const ClenEntry& e : rle) {
    header_bits += clen_lengths[e.symbol] + ClenExtraBits(e.symbol);
  }
  uint64_t dynamic_bits = header_bits + extra_bits +
                          CodeBits(litlen_freq, dyn.litlen_lengths) +
                          CodeBits(dist_freq, dyn.dist_lengths);

  BlockCodes fixed = FixedCodes();
  uint64_t fixed_bits = extra_bits +
                        CodeBits(litlen_freq, fixed.litlen_lengths) +
                        CodeBits(dist_freq, fixed.dist_lengths);

  // Stored: per-chunk 3-bit header + up-to-7-bit pad + 32-bit LEN/NLEN.
  uint64_t nchunks = (block_input.size() + 65534) / 65535;
  if (nchunks == 0) nchunks = 1;
  uint64_t stored_bits = nchunks * (3 + 7 + 32) + 8 * block_input.size();

  if (stored_bits < dynamic_bits && stored_bits < fixed_bits &&
      !block_input.empty()) {
    WriteStored(bw, block_input, final);
    return;
  }
  if (fixed_bits <= dynamic_bits) {
    bw.WriteBits(final ? 1 : 0, 1);
    bw.WriteBits(1, 2);  // BTYPE=01 fixed
    WriteTokens(bw, tokens, fixed);
    return;
  }

  bw.WriteBits(final ? 1 : 0, 1);
  bw.WriteBits(2, 2);  // BTYPE=10 dynamic
  bw.WriteBits(hlit - 257, 5);
  bw.WriteBits(hdist - 1, 5);
  bw.WriteBits(hclen - 4, 4);
  for (int i = 0; i < hclen; ++i) {
    bw.WriteBits(clen_lengths[kClenOrder[i]], 3);
  }
  for (const ClenEntry& e : rle) {
    bw.WriteHuffmanCode(clen_codes[e.symbol], clen_lengths[e.symbol]);
    int extra = ClenExtraBits(e.symbol);
    if (extra > 0) bw.WriteBits(e.extra, extra);
  }
  WriteTokens(bw, tokens, dyn);
}

}  // namespace

Result<Buffer> DeflateCompress(ByteSpan input, const DeflateOptions& options) {
  Buffer out;
  BitWriter bw(&out);

  if (input.empty()) {
    // A single final fixed-Huffman block containing only end-of-block.
    bw.WriteBits(1, 1);
    bw.WriteBits(1, 2);
    BlockCodes fixed = FixedCodes();
    bw.WriteBits(fixed.litlen_codes[kEndOfBlock],
                 fixed.litlen_lengths[kEndOfBlock]);
    bw.PadToByte();
    return out;
  }

  // Blocks of kMaxTokensPerBlock tokens, each encoded as soon as the
  // token after it starts (that token's offset ends the block's input
  // range), so a call holds one block of tokens at a time.
  constexpr size_t kMaxTokensPerBlock = 65536;
  std::vector<Token> block;
  block.reserve(std::min(kMaxTokensPerBlock, input.size()));
  size_t block_begin = 0;
  Tokenize(input, ParamsForLevel(options.level),
           [&](size_t pos, Token token) {
             if (block.size() == kMaxTokensPerBlock) {
               EncodeBlock(bw, block,
                           input.subspan(block_begin, pos - block_begin),
                           /*final=*/false);
               block.clear();
             }
             if (block.empty()) block_begin = pos;
             block.push_back(token);
           });
  EncodeBlock(bw, block, input.subspan(block_begin), /*final=*/true);
  bw.PadToByte();
  return out;
}

}  // namespace dpdpu::kern
