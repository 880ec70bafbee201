// Tests for the DEFLATE codec: known-stream vectors, encode/decode
// round-trips across data shapes and levels (parameterized property
// sweep), pinned compressor output bytes, Huffman utilities, and
// corruption handling.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "kern/bitio.h"
#include "kern/crc32.h"
#include "kern/deflate.h"
#include "kern/deflate_tables.h"
#include "kern/huffman.h"
#include "kern/textgen.h"
#include "mutate.h"

namespace dpdpu::kern {
namespace {

// --------------------------------------------------------------------------
// Bit I/O.
// --------------------------------------------------------------------------

TEST(BitIoTest, WriterReaderRoundTrip) {
  Buffer buf;
  BitWriter w(&buf);
  w.WriteBits(0b101, 3);
  w.WriteBits(0xFFFF, 16);
  w.WriteBits(0, 5);
  w.WriteBits(0b1101, 4);
  w.PadToByte();

  BitReader r(buf.span());
  uint32_t v;
  ASSERT_TRUE(r.ReadBits(3, &v));
  EXPECT_EQ(v, 0b101u);
  ASSERT_TRUE(r.ReadBits(16, &v));
  EXPECT_EQ(v, 0xFFFFu);
  ASSERT_TRUE(r.ReadBits(5, &v));
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(r.ReadBits(4, &v));
  EXPECT_EQ(v, 0b1101u);
}

TEST(BitIoTest, LsbFirstPacking) {
  Buffer buf;
  BitWriter w(&buf);
  w.WriteBits(1, 1);  // bit 0 of first byte
  w.WriteBits(0, 1);
  w.WriteBits(1, 1);  // bit 2
  w.PadToByte();
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0], 0b00000101);
}

TEST(BitIoTest, HuffmanCodeIsBitReversed) {
  Buffer buf;
  BitWriter w(&buf);
  // Code value 0b110 (MSB-first) must appear as bits 0,1,1.
  w.WriteHuffmanCode(0b110, 3);
  w.PadToByte();
  EXPECT_EQ(buf[0], 0b00000011);
}

TEST(BitIoTest, ReaderUnderflow) {
  Buffer buf;
  buf.AppendU8(0xAA);
  BitReader r(buf.span());
  uint32_t v;
  ASSERT_TRUE(r.ReadBits(8, &v));
  EXPECT_FALSE(r.ReadBits(1, &v));
}

TEST(BitIoTest, AlignToByteDiscardsPartial) {
  Buffer buf;
  buf.AppendU8(0xFF);
  buf.AppendU8(0x42);
  BitReader r(buf.span());
  uint32_t v;
  ASSERT_TRUE(r.ReadBits(3, &v));
  r.AlignToByte();
  uint8_t b;
  ASSERT_TRUE(r.ReadAlignedByte(&b));
  EXPECT_EQ(b, 0x42);
}

TEST(BitIoTest, PeekConsumeMatchesReadBits) {
  // Interleave the bulk lookahead primitives with the classic ReadBits
  // path over a random stream: both views must see the same bits.
  Buffer data = GenerateRandomBytes(257, 42);
  BitReader peek_reader(data.span());
  BitReader read_reader(data.span());
  Pcg32 rng(7);
  size_t bits_left = data.size() * 8;
  while (bits_left > 0) {
    int count = int(1 + rng.NextBounded(16));
    if (size_t(count) > bits_left) count = int(bits_left);
    uint32_t expected;
    ASSERT_TRUE(read_reader.ReadBits(count, &expected));
    peek_reader.Refill();
    ASSERT_GE(peek_reader.bits_buffered(), count);
    EXPECT_EQ(peek_reader.PeekBits(count), expected);
    peek_reader.ConsumeBits(count);
    bits_left -= size_t(count);
  }
  // Fully drained: Refill at EOF leaves nothing and Peek pads with zeros.
  peek_reader.Refill();
  EXPECT_EQ(peek_reader.bits_buffered(), 0);
  EXPECT_EQ(peek_reader.PeekBits(10), 0u);
}

TEST(BitIoTest, RefillPreservesAlignedByteReads) {
  // Refill's masked bulk load must keep the "bits >= filled_ are zero"
  // invariant that ReadAlignedByte depends on after AlignToByte.
  Buffer data = GenerateRandomBytes(64, 5);
  BitReader r(data.span());
  r.Refill();
  uint32_t v;
  ASSERT_TRUE(r.ReadBits(3, &v));
  r.AlignToByte();
  for (size_t i = 1; i < data.size(); ++i) {
    uint8_t b;
    ASSERT_TRUE(r.ReadAlignedByte(&b)) << i;
    EXPECT_EQ(b, data[i]) << i;
    if (i % 7 == 0) r.Refill();  // refill mid-stream must not corrupt
  }
  uint8_t b;
  EXPECT_FALSE(r.ReadAlignedByte(&b));
}

TEST(BitIoTest, RefillNearEndOfStream) {
  // Streams shorter than one bulk load go through the byte-wise path.
  for (size_t len : {size_t(1), size_t(3), size_t(7), size_t(8), size_t(9)}) {
    Buffer data = GenerateRandomBytes(len, 11);
    BitReader r(data.span());
    r.Refill();
    EXPECT_EQ(r.bits_buffered(), int(std::min<size_t>(len, 7) * 8))
        << "len=" << len;
    BitReader ref(data.span());
    for (size_t i = 0; i < len; ++i) {
      uint32_t expected;
      ASSERT_TRUE(ref.ReadBits(8, &expected));
      r.Refill();
      ASSERT_GE(r.bits_buffered(), 8);
      EXPECT_EQ(r.PeekBits(8), expected);
      r.ConsumeBits(8);
    }
  }
}

// --------------------------------------------------------------------------
// Huffman utilities.
// --------------------------------------------------------------------------

TEST(HuffmanTest, PackageMergeKraftEquality) {
  std::vector<uint64_t> freqs = {45, 13, 12, 16, 9, 5};
  std::vector<uint8_t> lengths = PackageMergeLengths(freqs, 15);
  double kraft = 0;
  for (uint8_t l : lengths) {
    ASSERT_GT(l, 0);
    kraft += 1.0 / double(1ull << l);
  }
  EXPECT_DOUBLE_EQ(kraft, 1.0);
}

TEST(HuffmanTest, PackageMergeIsOptimalForClassicExample) {
  // Frequencies 5,9,12,13,16,45: optimal Huffman cost = 224.
  std::vector<uint64_t> freqs = {5, 9, 12, 13, 16, 45};
  std::vector<uint8_t> lengths = PackageMergeLengths(freqs, 15);
  uint64_t cost = 0;
  for (size_t i = 0; i < freqs.size(); ++i) cost += freqs[i] * lengths[i];
  EXPECT_EQ(cost, 224u);
}

TEST(HuffmanTest, PackageMergeRespectsLengthLimit) {
  // Fibonacci-ish weights force deep unbounded Huffman trees.
  std::vector<uint64_t> freqs;
  uint64_t a = 1, b = 1;
  for (int i = 0; i < 40; ++i) {
    freqs.push_back(a);
    uint64_t next = a + b;
    a = b;
    b = next;
  }
  for (int limit : {15, 10, 7}) {
    std::vector<uint8_t> lengths = PackageMergeLengths(freqs, limit);
    double kraft = 0;
    for (uint8_t l : lengths) {
      ASSERT_LE(l, limit);
      ASSERT_GT(l, 0);
      kraft += 1.0 / double(1ull << l);
    }
    EXPECT_LE(kraft, 1.0 + 1e-12);
  }
}

TEST(HuffmanTest, SingleSymbolGetsLengthOne) {
  std::vector<uint64_t> freqs = {0, 7, 0};
  std::vector<uint8_t> lengths = PackageMergeLengths(freqs, 15);
  EXPECT_EQ(lengths[0], 0);
  EXPECT_EQ(lengths[1], 1);
  EXPECT_EQ(lengths[2], 0);
}

TEST(HuffmanTest, CanonicalCodesMatchRfcExample) {
  // RFC 1951 §3.2.2 example: lengths (3,3,3,3,3,2,4,4) ->
  // codes 010,011,100,101,110,00,1110,1111.
  std::vector<uint8_t> lengths = {3, 3, 3, 3, 3, 2, 4, 4};
  std::vector<uint32_t> codes = CanonicalCodes(lengths);
  EXPECT_EQ(codes, (std::vector<uint32_t>{2, 3, 4, 5, 6, 0, 14, 15}));
}

TEST(HuffmanTest, DecoderRoundTripsCanonicalCode) {
  std::vector<uint8_t> lengths = {3, 3, 3, 3, 3, 2, 4, 4};
  std::vector<uint32_t> codes = CanonicalCodes(lengths);
  auto decoder_or = HuffmanDecoder::Build(lengths);
  ASSERT_TRUE(decoder_or.ok());
  const HuffmanDecoder& dec = *decoder_or;

  for (int sym = 0; sym < 8; ++sym) {
    Buffer buf;
    BitWriter w(&buf);
    w.WriteHuffmanCode(codes[sym], lengths[sym]);
    w.PadToByte();
    BitReader r(buf.span());
    int got;
    ASSERT_TRUE(dec.Decode(r, &got).ok());
    EXPECT_EQ(got, sym);
  }
}

TEST(HuffmanTest, DecoderRejectsOversubscribed) {
  std::vector<uint8_t> lengths = {1, 1, 1};  // Kraft sum 1.5
  EXPECT_TRUE(HuffmanDecoder::Build(lengths).status().IsCorruption());
}

TEST(HuffmanTest, DecoderFlagsUnassignedCode) {
  // Single symbol of length 1: code '1' is unassigned.
  std::vector<uint8_t> lengths = {1};
  auto dec = HuffmanDecoder::Build(lengths);
  ASSERT_TRUE(dec.ok());
  Buffer buf;
  buf.AppendU8(0xFF);
  BitReader r(buf.span());
  int sym;
  EXPECT_TRUE(dec->Decode(r, &sym).IsCorruption())
      << "code of all ones must not decode";
}

// --------------------------------------------------------------------------
// Known DEFLATE streams (hand-built per RFC 1951).
// --------------------------------------------------------------------------

TEST(InflateTest, StoredBlockVector) {
  // BFINAL=1 BTYPE=00, LEN=3 NLEN=~3, payload "abc".
  const uint8_t stream[] = {0x01, 0x03, 0x00, 0xFC, 0xFF, 'a', 'b', 'c'};
  auto out = DeflateDecompress(ByteSpan(stream, sizeof(stream)));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(out->ToString(), "abc");
}

TEST(InflateTest, EmptyFixedBlockVector) {
  // BFINAL=1 BTYPE=01 then the 7-bit EOB code 0000000: bytes 03 00.
  const uint8_t stream[] = {0x03, 0x00};
  auto out = DeflateDecompress(ByteSpan(stream, sizeof(stream)));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(out->empty());
}

TEST(InflateTest, RejectsReservedBlockType) {
  const uint8_t stream[] = {0x07};  // BFINAL=1 BTYPE=11
  EXPECT_TRUE(DeflateDecompress(ByteSpan(stream, sizeof(stream)))
                  .status()
                  .IsCorruption());
}

TEST(InflateTest, RejectsBadStoredNlen) {
  const uint8_t stream[] = {0x01, 0x03, 0x00, 0x00, 0x00, 'a', 'b', 'c'};
  EXPECT_TRUE(DeflateDecompress(ByteSpan(stream, sizeof(stream)))
                  .status()
                  .IsCorruption());
}

TEST(InflateTest, RejectsTruncatedStream) {
  Buffer text = GenerateText(10000, {});
  auto compressed = DeflateCompress(text.span());
  ASSERT_TRUE(compressed.ok());
  for (size_t cut : {size_t(0), size_t(1), compressed->size() / 2,
                     compressed->size() - 1}) {
    auto out = DeflateDecompress(compressed->span().subspan(0, cut));
    EXPECT_FALSE(out.ok()) << "cut=" << cut;
  }
}

TEST(InflateTest, RejectsDistanceBeforeStart) {
  // Fixed block: literal 'a' (0x61 -> code 0x91, 8 bits) then a match
  // would reference beyond output; simplest: match at output size 0.
  // Construct: BTYPE=01, immediately a length code then distance 1.
  Buffer buf;
  BitWriter w(&buf);
  w.WriteBits(1, 1);
  w.WriteBits(1, 2);
  // Length symbol 257 (len 3): fixed code for 257 = 0000001 (7 bits).
  w.WriteHuffmanCode(1, 7);
  // Distance symbol 0 (dist 1): 5-bit code 00000.
  w.WriteHuffmanCode(0, 5);
  // EOB.
  w.WriteHuffmanCode(0, 7);
  w.PadToByte();
  EXPECT_TRUE(DeflateDecompress(buf.span()).status().IsCorruption());
}

TEST(InflateTest, OutputLimitEnforced) {
  Buffer text = GenerateText(100000, {});
  auto compressed = DeflateCompress(text.span());
  ASSERT_TRUE(compressed.ok());
  auto out = DeflateDecompress(compressed->span(), 1000);
  EXPECT_TRUE(out.status().IsResourceExhausted());
}

// --------------------------------------------------------------------------
// Round trips.
// --------------------------------------------------------------------------

void ExpectRoundTrip(ByteSpan input, int level) {
  auto compressed = DeflateCompress(input, DeflateOptions{level});
  ASSERT_TRUE(compressed.ok()) << compressed.status();
  auto restored = DeflateDecompress(compressed->span());
  ASSERT_TRUE(restored.ok()) << restored.status();
  ASSERT_EQ(restored->size(), input.size());
  EXPECT_TRUE(std::equal(input.begin(), input.end(), restored->data()));
}

TEST(DeflateTest, EmptyInput) {
  ExpectRoundTrip(ByteSpan(), 6);
  auto compressed = DeflateCompress(ByteSpan());
  ASSERT_TRUE(compressed.ok());
  EXPECT_LE(compressed->size(), 2u);
}

TEST(DeflateTest, SingleByte) {
  uint8_t b = 'x';
  ExpectRoundTrip(ByteSpan(&b, 1), 6);
}

TEST(DeflateTest, ShortString) {
  Buffer in("hello, hello, hello world");
  ExpectRoundTrip(in.span(), 6);
}

TEST(DeflateTest, AllZeros) {
  Buffer in(size_t(100000));
  ExpectRoundTrip(in.span(), 6);
  auto compressed = DeflateCompress(in.span());
  ASSERT_TRUE(compressed.ok());
  // Highly repetitive input must compress drastically.
  EXPECT_LT(compressed->size(), in.size() / 100);
}

TEST(DeflateTest, TextCompressesWell) {
  Buffer text = GenerateText(1 << 20, {});
  auto compressed = DeflateCompress(text.span());
  ASSERT_TRUE(compressed.ok());
  double ratio = double(text.size()) / double(compressed->size());
  // Zipfian synthetic text should land in the English-text range.
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 10.0);
  ExpectRoundTrip(text.span(), 6);
}

TEST(DeflateTest, RandomDataFallsBackToStored) {
  Buffer random = GenerateRandomBytes(1 << 16);
  auto compressed = DeflateCompress(random.span());
  ASSERT_TRUE(compressed.ok());
  // Incompressible: stored blocks cap expansion at a tiny overhead.
  EXPECT_LT(compressed->size(), random.size() + random.size() / 100 + 64);
  ExpectRoundTrip(random.span(), 6);
}

TEST(DeflateTest, MaxLengthMatches) {
  // Period-1 run longer than kMaxMatch exercises 258-byte matches.
  Buffer in(size_t(1000));
  for (size_t i = 0; i < in.size(); ++i) in[i] = 'A';
  ExpectRoundTrip(in.span(), 6);
}

TEST(DeflateTest, OverlappingCopySemantics) {
  // "abcabcabc..." gives dist=3 matches with len > dist.
  Buffer in;
  for (int i = 0; i < 5000; ++i) in.AppendU8("abc"[i % 3]);
  ExpectRoundTrip(in.span(), 6);
}

TEST(DeflateTest, ZipfianCorporaPropertySweep) {
  // inflate(deflate(x)) == x across Zipfian corpora with varied skew,
  // vocabulary, and seed: drives the LUT decode + bulk-refill + word-wise
  // copy fast paths over realistically shaped symbol distributions.
  for (uint64_t seed : {1ull, 77ull, 991ull}) {
    for (double theta : {0.5, 0.95}) {
      for (uint32_t vocab : {256u, 8192u}) {
        TextGenOptions options;
        options.seed = seed;
        options.vocabulary = vocab;
        options.zipf_theta = theta;
        Buffer text = GenerateText(96 * 1024, options);
        ExpectRoundTrip(text.span(), 1);
        ExpectRoundTrip(text.span(), 6);
      }
    }
  }
}

TEST(DeflateTest, WindowBoundaryMatches) {
  // Repeat a motif at exactly the 32 KB window distance.
  Buffer motif = GenerateRandomBytes(512, 3);
  Buffer in;
  in.Append(motif.span());
  Buffer filler = GenerateRandomBytes(kWindowSize - 512, 4);
  in.Append(filler.span());
  in.Append(motif.span());  // motif begins exactly 32768 bytes after itself
  ExpectRoundTrip(in.span(), 9);
}

TEST(DeflateTest, MultiBlockInput) {
  // > 65536 tokens forces multiple blocks.
  Buffer random = GenerateRandomBytes(300000, 9);
  ExpectRoundTrip(random.span(), 1);
}

TEST(DeflateTest, HigherLevelNeverMuchWorse) {
  Buffer text = GenerateText(1 << 18, {});
  auto fast = DeflateCompress(text.span(), DeflateOptions{1});
  auto best = DeflateCompress(text.span(), DeflateOptions{9});
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(best.ok());
  EXPECT_LE(best->size(), fast->size() + fast->size() / 50);
}

// Pinned compressor output. Compressed sizes feed the simulator's DMA
// timing, so a faster match finder must emit the same bytes, not just a
// stream that round-trips. Each (input kind, level) folds the size and
// CRC32 of the output for every prefix length in kGoldenSizes into one
// value; the match finder's search rule (MatchFinder in deflate.cc) must
// keep reproducing them.
Buffer GoldenInput(int kind) {
  constexpr size_t kSize = 300 * 1024;
  Pcg32 rng(uint64_t(kind) + 1000);
  Buffer in(kSize);
  switch (kind) {
    case 0:
      return GenerateText(kSize, {});
    case 1:
      return GenerateText(kSize, {uint64_t(77), 8192, 0.95});
    case 2:
      return in;  // zeros
    case 3:
      return GenerateRandomBytes(kSize, 5);
    case 4:
      for (size_t i = 0; i < kSize; ++i) in[i] = uint8_t(i % 251);
      return in;
    case 5:
      for (size_t i = 0; i < kSize; ++i) in[i] = "ab"[rng.NextBounded(2)];
      return in;
    default:
      return GenerateText(kSize, {uint64_t(3), 16, 0.95});
  }
}

// Adds DeflateCompress(input, level)'s size to *total and folds its size
// and bytes into *fold.
void FoldOutput(ByteSpan input, int level, uint64_t* total, uint32_t* fold) {
  auto out = DeflateCompress(input, DeflateOptions{level});
  ASSERT_TRUE(out.ok()) << out.status();
  Buffer size_bytes;
  size_bytes.AppendU32(uint32_t(out->size()));
  *fold = Crc32Update(*fold, size_bytes.span());
  *fold = Crc32Update(*fold, out->span());
  *total += out->size();
}

TEST(DeflateTest, OutputBytesArePinned) {
  constexpr size_t kGoldenSizes[] = {0,     1,     2,     3,     4,
                                     5,     100,   258,   259,   4096,
                                     32767, 32768, 32769, 300 * 1024};
  constexpr int kKinds = 7;
  // kGolden[kind][level - 1] = {total output bytes, folded CRC32}.
  constexpr uint64_t kGolden[kKinds][9][2] = {
      // GenerateText, seed 1
      {{146922, 0xa5fa1d28}, {142895, 0x122cfa88}, {138775, 0x2e616ce3},
       {138755, 0x94b66abf}, {134997, 0x270ce64b}, {131811, 0xd4260659},
       {129505, 0xfdbc10b6}, {128488, 0xb9ef221c}, {128371, 0x96fd0f91}},
      // GenerateText, seed 77
      {{151511, 0x0500ddff}, {147590, 0x5cd60665}, {143081, 0x828ed271},
       {143219, 0xe3482999}, {138986, 0xa6c422ec}, {135433, 0xda48bbae},
       {133326, 0xee5220fe}, {132575, 0x6144435a}, {132547, 0x3c13dcc9}},
      // zeros
      {{508, 0x7730086e}, {508, 0x7730086e}, {508, 0x7730086e},
       {508, 0x7730086e}, {508, 0x7730086e}, {508, 0x7730086e},
       {508, 0x7730086e}, {508, 0x7730086e}, {508, 0x7730086e}},
      // GenerateRandomBytes
      {{410324, 0x00bea1b3}, {410324, 0x00bea1b3}, {410324, 0x00bea1b3},
       {410324, 0x00bea1b3}, {410324, 0x00bea1b3}, {410324, 0x00bea1b3},
       {410324, 0x00bea1b3}, {410324, 0x00bea1b3}, {410324, 0x00bea1b3}},
      // i % 251
      {{3796, 0xc3070d41}, {3796, 0xc3070d41}, {3796, 0xc3070d41},
       {3796, 0xc3070d41}, {3796, 0xc3070d41}, {3796, 0xc3070d41},
       {3796, 0xc3070d41}, {3796, 0xc3070d41}, {3796, 0xc3070d41}},
      // random a/b
      {{73572, 0x218d17d7}, {70523, 0x60f6ce2c}, {68171, 0x1ec6666b},
       {69084, 0xf57b88c6}, {67344, 0x5849eb9d}, {65800, 0xb092739a},
       {64862, 0x993b3c5d}, {63944, 0x5caee841}, {63756, 0xa675aa40}},
      // 16-word vocabulary
      {{74785, 0xd223925e}, {70167, 0x766939c6}, {66383, 0xe3a9fbd1},
       {66965, 0x5e94cdc3}, {63875, 0xdb58a1fd}, {61538, 0x4fbc8c25},
       {60170, 0xebc7d0e9}, {59236, 0xaecd9746}, {58805, 0x925281ba}}};
  for (int kind = 0; kind < kKinds; ++kind) {
    Buffer input = GoldenInput(kind);
    for (int level = 1; level <= 9; ++level) {
      uint64_t total = 0;
      uint32_t fold = 0;
      for (size_t size : kGoldenSizes) {
        FoldOutput(input.span().subspan(0, size), level, &total, &fold);
      }
      EXPECT_EQ(total, kGolden[kind][level - 1][0])
          << "kind " << kind << " level " << level;
      EXPECT_EQ(fold, kGolden[kind][level - 1][1])
          << "kind " << kind << " level " << level << " {" << total << ", 0x"
          << std::hex << fold << "}";
    }
  }
}

// DeflateCompress encodes each 65536-token block once the next token
// starts. OutputBytesArePinned stops at 300 KB, one block of text, so
// this pins text that spans several blocks and a prefix whose token
// count is exactly 2 * 65536, so its final block is a full one.
TEST(DeflateTest, MultiBlockOutputBytesArePinned) {
  Buffer text = GenerateText(1 << 20, {});
  struct Case {
    size_t size;
    int level;
    uint64_t bytes;
    uint32_t crc;
  };
  constexpr Case kCases[] = {{1 << 20, 1, 369533, 0x0a0465b3},
                             {1 << 20, 6, 327455, 0xa0cf3a43},
                             {1 << 20, 9, 316342, 0x79fc5998},
                             {687365, 1, 242299, 0x781795c7}};
  for (const Case& c : kCases) {
    auto out = DeflateCompress(text.span().subspan(0, c.size),
                               DeflateOptions{c.level});
    ASSERT_TRUE(out.ok()) << out.status();
    EXPECT_EQ(out->size(), c.bytes) << c.size << " bytes, level " << c.level;
    EXPECT_EQ(Crc32(out->span()), c.crc)
        << c.size << " bytes, level " << c.level;
  }
}

// Inputs around the match finder's switch to its 8-byte chain, which it
// makes once the best length reaches 7 (MatchFinder in deflate.cc).
std::vector<Buffer> ChainSwitchInputs(int kind) {
  std::vector<Buffer> inputs;
  switch (kind) {
    case 0:  // periodic around 8 bytes and the 32 KB window, with a
             // byte changed every 1-64 bytes so that matches break off
      for (size_t period : {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 32767,
                            32768, 32769}) {
        Buffer pattern = GenerateRandomBytes(period, period);
        Buffer in(2 * period + 4000);
        for (size_t i = 0; i < in.size(); ++i) in[i] = pattern[i % period];
        Pcg32 rng(period);
        for (size_t i = rng.NextBounded(64); i < in.size();
             i += 1 + rng.NextBounded(64)) {
          in[i] ^= uint8_t(1 + rng.NextBounded(255));
        }
        inputs.push_back(std::move(in));
      }
      break;
    case 1:  // 4-letter text with a long match that ends 6-9 bytes before
             // the end, followed by the bytes one past where it broke off
      for (size_t tail : {6, 7, 8, 9}) {
        Pcg32 rng(40 + tail);
        Buffer earlier(3000);
        for (size_t i = 0; i < earlier.size(); ++i) {
          earlier[i] = "acgt"[rng.NextBounded(4)];
        }
        Buffer in = earlier;
        in.Append(earlier.span().subspan(0, 1500));
        in.Append(earlier.span().subspan(1501, tail));
        inputs.push_back(std::move(in));
      }
      break;
    case 2:
      inputs.emplace_back(size_t(100000));  // zeros
      break;
    case 3:
      inputs.push_back(GenerateRandomBytes(64 << 10, 6));
      break;
    default:  // 64-word vocabulary: long matches everywhere
      inputs.push_back(GenerateText(300 << 10, {uint64_t(5), 64, 0.95}));
  }
  return inputs;
}

// Pins, like OutputBytesArePinned, the output of inputs that enter, cross
// and end the 8-byte-chain search and the lazy probe's search for a
// longer match.
TEST(DeflateTest, ChainSwitchOutputBytesArePinned) {
  constexpr int kKinds = 5;
  // kGolden[kind][level - 1] = {total output bytes, folded CRC32}.
  constexpr uint64_t kGolden[kKinds][9][2] = {
      // periodic
      {{158114, 0xaeedfdc9}, {158106, 0xfc443d1a}, {157935, 0x7826459a},
       {157845, 0xc79dfdec}, {157752, 0x16b3f976}, {157678, 0x3544065d},
       {157633, 0xb2415d9f}, {157613, 0x6f9f171d}, {157604, 0xdc609c7a}},
      // long match, then a short tail
      {{5850, 0x5a90247f}, {5891, 0x14cfee39}, {5862, 0x13fe5480},
       {5583, 0x514f6281}, {4083, 0xd00e022e}, {4082, 0xbc199469},
       {4082, 0xbc199469}, {4082, 0xbc199469}, {4082, 0xbc199469}},
      // zeros
      {{113, 0x5e37893e}, {113, 0x5e37893e}, {113, 0x5e37893e},
       {113, 0x5e37893e}, {113, 0x5e37893e}, {113, 0x5e37893e},
       {113, 0x5e37893e}, {113, 0x5e37893e}, {113, 0x5e37893e}},
      // GenerateRandomBytes
      {{65546, 0x005e89ee}, {65546, 0x005e89ee}, {65546, 0x005e89ee},
       {65546, 0x005e89ee}, {65546, 0x005e89ee}, {65546, 0x005e89ee},
       {65546, 0x005e89ee}, {65546, 0x005e89ee}, {65546, 0x005e89ee}},
      // 64-word vocabulary
      {{78773, 0xe7ee1aca}, {75232, 0x44393307}, {72136, 0x9486f718},
       {73333, 0x3c597f81}, {70375, 0x58d96b3f}, {68052, 0xc05c3c11},
       {66103, 0x6f5d08b8}, {65024, 0x4ce18f36}, {64614, 0x148e8557}}};
  for (int kind = 0; kind < kKinds; ++kind) {
    std::vector<Buffer> inputs = ChainSwitchInputs(kind);
    for (int level = 1; level <= 9; ++level) {
      uint64_t total = 0;
      uint32_t fold = 0;
      for (const Buffer& input : inputs) {
        FoldOutput(input.span(), level, &total, &fold);
      }
      EXPECT_EQ(total, kGolden[kind][level - 1][0])
          << "kind " << kind << " level " << level;
      EXPECT_EQ(fold, kGolden[kind][level - 1][1])
          << "kind " << kind << " level " << level << " {" << total << ", 0x"
          << std::hex << fold << "}";
    }
  }
}

// Property sweep: (generator, size, level) grid round-trips.
class DeflateRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, size_t, int>> {};

TEST_P(DeflateRoundTrip, RoundTrips) {
  auto [gen, size, level] = GetParam();
  Buffer input;
  switch (gen) {
    case 0:
      input = GenerateText(size, {uint64_t(size + level), 4096, 0.95});
      break;
    case 1:
      input = GenerateRandomBytes(size, size + level);
      break;
    case 2: {  // low-entropy structured binary
      Pcg32 rng(size + level);
      input.resize(size);
      for (size_t i = 0; i < size; ++i) {
        input[i] = static_cast<uint8_t>(rng.NextBounded(4) * 7);
      }
      break;
    }
    default: {  // long runs with interspersed noise
      Pcg32 rng(size);
      while (input.size() < size) {
        uint8_t b = static_cast<uint8_t>(rng.Next());
        size_t run = 1 + rng.NextBounded(400);
        for (size_t i = 0; i < run && input.size() < size; ++i) {
          input.AppendU8(b);
        }
      }
      break;
    }
  }
  ExpectRoundTrip(input.span(), level);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DeflateRoundTrip,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(size_t(1), size_t(100),
                                         size_t(4096), size_t(70000)),
                       ::testing::Values(1, 6, 9)));

// Fuzz-ish: decompressing random garbage must never crash and must fail
// cleanly (or succeed, which random bytes occasionally do for tiny
// stored-block-shaped prefixes — either way, no UB).
TEST(InflateTest, RandomGarbageNeverCrashes) {
  Pcg32 rng(123);
  for (int trial = 0; trial < 200; ++trial) {
    size_t n = 1 + rng.NextBounded(300);
    Buffer garbage(n);
    FillRandomBytes(rng, garbage.data(), n);
    auto out = DeflateDecompress(garbage.span(), 1 << 20);
    (void)out;  // outcome irrelevant; absence of crash is the assertion
  }
}

// Mutate valid streams: every single-bit corruption must be handled
// gracefully (clean error or output of bounded size, never a crash).
TEST(InflateTest, BitFlipsHandledGracefully) {
  Buffer text = GenerateText(5000, {});
  auto compressed = DeflateCompress(text.span());
  ASSERT_TRUE(compressed.ok());
  Pcg32 rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    Buffer mutated = *compressed;
    size_t byte = rng.NextBounded(static_cast<uint32_t>(mutated.size()));
    mutated[byte] ^= uint8_t(1u << rng.NextBounded(8));
    auto out = DeflateDecompress(mutated.span(), 1 << 22);
    (void)out;
  }
}

// Seeded mutations (bit flips, truncation, overwritten windows) of valid
// stored, fixed and dynamic streams: every call returns a Status, and a
// stream that still decodes stays within the output bound.
TEST(InflateTest, MutatedStreamsReturnAStatus) {
  constexpr size_t kMaxOutput = 1 << 20;
  std::vector<Buffer> streams;
  for (int level : {1, 6, 9}) {
    for (const Buffer& input :
         {GenerateText(6000, {uint64_t(level)}),
          GenerateRandomBytes(3000, uint64_t(level)), Buffer(size_t{9000}),
          Buffer("a short fixed-Huffman block")}) {
      auto compressed = DeflateCompress(input.span(), DeflateOptions{level});
      ASSERT_TRUE(compressed.ok());
      streams.push_back(std::move(*compressed));
    }
  }
  Pcg32 rng(2024);
  int decoded = 0, failed = 0;
  for (int trial = 0; trial < 10000; ++trial) {
    Buffer mutated = streams[rng.NextBounded(uint32_t(streams.size()))];
    Mutate(rng, &mutated);
    auto out = DeflateDecompress(mutated.span(), kMaxOutput);
    if (out.ok()) {
      EXPECT_LE(out->size(), kMaxOutput);
      ++decoded;
    } else {
      EXPECT_TRUE(out.status().IsCorruption() ||
                  out.status().IsResourceExhausted())
          << out.status();
      ++failed;
    }
  }
  EXPECT_GT(decoded, 0);
  EXPECT_GT(failed, 0);
}

// Reference inflater for the differential test, puff-style (after zlib's
// contrib/puff): one bit at a time, sharing no code with inflate.cc but
// the RFC 1951 tables. It keeps DeflateDecompress's contract: incomplete
// codes decode until the stream presents an unassigned code, and the
// output limit is checked where the decoder checks it.
class ReferenceInflater {
 public:
  ReferenceInflater(ByteSpan in, size_t max_output)
      : in_(in), max_output_(max_output) {}

  Result<Buffer> Run() {
    for (;;) {
      uint32_t last, type;
      if (!Bits(1, &last) || !Bits(2, &type)) return Corrupt();
      Status status = type == 0   ? Stored()
                      : type == 1 ? Fixed()
                      : type == 2 ? Dynamic()
                                  : Corrupt();
      if (!status.ok()) return status;
      if (last) return std::move(out_);
    }
  }

 private:
  struct Code {
    std::vector<int> count;   // count[len]: codes of length len
    std::vector<int> symbol;  // symbols in canonical order
  };

  static Status Corrupt() { return Status::Corruption("reference"); }
  static Status Full() { return Status::ResourceExhausted("reference"); }

  bool Bits(int n, uint32_t* v) {
    *v = 0;
    for (int i = 0; i < n; ++i, ++bit_) {
      if (bit_ >= 8 * in_.size()) return false;
      *v |= uint32_t((in_[bit_ / 8] >> (bit_ % 8)) & 1) << i;
    }
    return true;
  }

  // False on an over-subscribed code.
  static bool Build(const std::vector<int>& lengths, Code* code) {
    code->count.assign(16, 0);
    for (int len : lengths) ++code->count[len];
    std::vector<int> offset(16, 0);
    for (int len = 1, left = 1; len < 16; ++len) {
      left = 2 * left - code->count[len];
      if (left < 0) return false;
      if (len < 15) offset[len + 1] = offset[len] + code->count[len];
    }
    code->symbol.assign(lengths.size(), 0);
    for (size_t s = 0; s < lengths.size(); ++s) {
      if (lengths[s] > 0) code->symbol[offset[lengths[s]]++] = int(s);
    }
    return true;
  }

  Status Decode(const Code& code, int* symbol) {
    for (int len = 1, value = 0, first = 0, index = 0; len < 16; ++len) {
      uint32_t bit;
      if (!Bits(1, &bit)) return Corrupt();
      value |= int(bit);
      if (value - first < code.count[len]) {
        *symbol = code.symbol[index + value - first];
        return Status::Ok();
      }
      index += code.count[len];
      first = (first + code.count[len]) << 1;
      value <<= 1;
    }
    return Corrupt();
  }

  Status Stored() {
    bit_ = (bit_ + 7) / 8 * 8;
    uint32_t len, nlen;
    if (!Bits(16, &len) || !Bits(16, &nlen)) return Corrupt();
    if (len != (~nlen & 0xFFFF)) return Corrupt();
    if (out_.size() + len > max_output_) return Full();
    if (bit_ / 8 + len > in_.size()) return Corrupt();
    out_.Append(in_.subspan(bit_ / 8, len));
    bit_ += 8 * size_t(len);
    return Status::Ok();
  }

  Status Fixed() {
    std::vector<int> lengths(288);
    for (int s = 0; s < 288; ++s) {
      lengths[s] = s < 144 ? 8 : s < 256 ? 9 : s < 280 ? 7 : 8;
    }
    Code litlen, dist;
    Build(lengths, &litlen);
    Build(std::vector<int>(30, 5), &dist);
    return Codes(litlen, dist);
  }

  Status Dynamic() {
    uint32_t nlen, ndist, ncode;
    if (!Bits(5, &nlen) || !Bits(5, &ndist) || !Bits(4, &ncode)) {
      return Corrupt();
    }
    nlen += 257;
    ndist += 1;
    if (nlen > 286 || ndist > 30) return Corrupt();
    std::vector<int> lengths(19, 0);
    for (uint32_t i = 0; i < ncode + 4; ++i) {
      uint32_t v;
      if (!Bits(3, &v)) return Corrupt();
      lengths[kClenOrder[i]] = int(v);
    }
    Code clen;
    if (!Build(lengths, &clen)) return Corrupt();
    lengths.clear();
    while (lengths.size() < nlen + ndist) {
      int symbol = 0;
      DPDPU_RETURN_IF_ERROR(Decode(clen, &symbol));
      uint32_t repeat = 1;
      int value = symbol;
      if (symbol == 16) {
        if (lengths.empty() || !Bits(2, &repeat)) return Corrupt();
        value = lengths.back();
        repeat += 3;
      } else if (symbol > 16) {
        bool ok = symbol == 17 ? Bits(3, &repeat) : Bits(7, &repeat);
        if (!ok) return Corrupt();
        value = 0;
        repeat += symbol == 17 ? 3 : 11;
      }
      if (lengths.size() + repeat > nlen + ndist) return Corrupt();
      lengths.insert(lengths.end(), repeat, value);
    }
    if (lengths[256] == 0) return Corrupt();
    Code litlen, dist;
    if (!Build({lengths.begin(), lengths.begin() + nlen}, &litlen) ||
        !Build({lengths.begin() + nlen, lengths.end()}, &dist)) {
      return Corrupt();
    }
    return Codes(litlen, dist);
  }

  Status Codes(const Code& litlen, const Code& dist) {
    for (;;) {
      int symbol = 0;
      DPDPU_RETURN_IF_ERROR(Decode(litlen, &symbol));
      if (symbol == 256) return Status::Ok();
      if (symbol < 256) {
        if (out_.size() >= max_output_) return Full();
        out_.AppendU8(uint8_t(symbol));
        continue;
      }
      if (symbol > 285) return Corrupt();
      uint32_t extra;
      if (!Bits(kLengthExtra[symbol - 257], &extra)) return Corrupt();
      size_t length = kLengthBase[symbol - 257] + extra;
      int dsymbol = 0;
      DPDPU_RETURN_IF_ERROR(Decode(dist, &dsymbol));
      if (!Bits(kDistExtra[dsymbol], &extra)) return Corrupt();
      size_t distance = kDistBase[dsymbol] + extra;
      if (distance > out_.size()) return Corrupt();
      if (out_.size() + length > max_output_) return Full();
      for (size_t i = 0; i < length; ++i) {
        out_.AppendU8(out_[out_.size() - distance]);
      }
    }
  }

  ByteSpan in_;
  size_t max_output_;
  size_t bit_ = 0;
  Buffer out_;
};

// A dynamic block whose litlen and distance codes run from 1 to 15 bits:
// each code gives its 16 symbols lengths 1, 2, ..., 14, 15, 15 (Kraft sum
// 1), and the tokens draw symbols uniformly, so codes longer than the
// decoder's table are as common as short ones.
Buffer LongCodeDynamicBlock() {
  const int kLitLen[16] = {'e', 257, 't', 265, 'a', 270, ' ', 280,
                           'o', 284, 'n', 285, 'x', 'z', 256, 'q'};
  const int kDist[16] = {0, 4, 10, 15, 20, 25, 29, 1,
                         2, 3, 5,  6,  7,  8,  9,  11};
  std::vector<uint8_t> lengths(286 + 30, 0);
  for (int i = 0; i < 16; ++i) {
    lengths[kLitLen[i]] = uint8_t(std::min(i + 1, 15));
    lengths[286 + kDist[i]] = uint8_t(std::min(i + 1, 15));
  }
  std::vector<uint8_t> litlen_lengths(lengths.begin(), lengths.begin() + 286);
  std::vector<uint8_t> dist_lengths(lengths.begin() + 286, lengths.end());
  std::vector<uint32_t> litlen_codes = CanonicalCodes(litlen_lengths);
  std::vector<uint32_t> dist_codes = CanonicalCodes(dist_lengths);

  Buffer out;
  BitWriter w(&out);
  w.WriteBits(1, 1);    // BFINAL
  w.WriteBits(2, 2);    // dynamic
  w.WriteBits(29, 5);   // 286 litlen codes
  w.WriteBits(29, 5);   // 30 distance codes
  w.WriteBits(15, 4);   // 19 code-length code lengths
  for (int i = 0; i < 19; ++i) {
    w.WriteBits(kClenOrder[i] < 16 ? 4 : 0, 3);
  }
  // Code-length symbols 0-15 all have length 4, so code = symbol.
  for (uint8_t len : lengths) w.WriteHuffmanCode(len, 4);

  Pcg32 rng(15);
  size_t produced = 0;
  for (int token = 0; token < 5000; ++token) {
    int s = kLitLen[rng.NextBounded(16)];
    if (s == 256) continue;
    int d = kDist[rng.NextBounded(16)];
    uint32_t dextra = rng.NextBounded(1u << kDistExtra[d]);
    if (s > 256 && kDistBase[d] + dextra > produced) s = 'e';
    w.WriteHuffmanCode(litlen_codes[s], litlen_lengths[s]);
    if (s < 256) {
      ++produced;
      continue;
    }
    uint32_t lextra = rng.NextBounded(1u << kLengthExtra[s - 257]);
    w.WriteBits(lextra, kLengthExtra[s - 257]);
    w.WriteHuffmanCode(dist_codes[d], dist_lengths[d]);
    w.WriteBits(dextra, kDistExtra[d]);
    produced += kLengthBase[s - 257] + lextra;
  }
  w.WriteHuffmanCode(litlen_codes[256], litlen_lengths[256]);
  w.PadToByte();
  return out;
}

// DeflateDecompress must return the reference's bytes, or its StatusCode.
void ExpectMatchesReference(ByteSpan stream, size_t max_output) {
  Result<Buffer> got = DeflateDecompress(stream, max_output);
  Result<Buffer> want = ReferenceInflater(stream, max_output).Run();
  ASSERT_EQ(got.status().code(), want.status().code())
      << got.status() << " / reference " << want.status() << ", "
      << stream.size() << "-byte stream, max_output " << max_output;
  if (want.ok()) {
    ASSERT_TRUE(*got == *want)
        << stream.size() << "-byte stream, max_output " << max_output;
  }
}

// Differential test of the fast loop and the careful step against the
// reference: text at levels 1, 6 and 9 up to 3 MB, stored blocks, zeros,
// periodic inputs (distances 1-9 and 32,768), fixed blocks, 15-bit codes,
// trailing bytes after the final block, output limits at and one under
// the output size, and mutated streams.
TEST(InflateTest, FastLoopMatchesReference) {
  constexpr size_t kNoLimit = size_t(1) << 31;
  std::vector<Buffer> streams;
  auto add = [&](ByteSpan input, int level) {
    auto compressed = DeflateCompress(input, DeflateOptions{level});
    ASSERT_TRUE(compressed.ok());
    streams.push_back(std::move(*compressed));
  };
  Buffer text = GenerateText(3 << 20, {});
  for (int level : {1, 6, 9}) {
    for (size_t size : {0, 1, 9, 100, 4096, 65536, 300 << 10, 3 << 20}) {
      add(text.span().subspan(0, size), level);
    }
  }
  add(GenerateRandomBytes(200000, 8).span(), 6);
  add(Buffer(size_t(100000)).span(), 6);
  for (size_t period : {1, 2, 3, 4, 5, 6, 7, 8, 9, 32768}) {
    Buffer pattern = GenerateRandomBytes(period, period);
    Buffer in(3 * period + 20000);
    for (size_t i = 0; i < in.size(); ++i) in[i] = pattern[i % period];
    add(in.span(), 6);
  }
  for (const char* s : {"a", "abcabcabcabcabcabcabc", "a short fixed block",
                        "hello, hello, hello world, hello, hello!"}) {
    add(Buffer(std::string_view(s)).span(), 6);
  }
  streams.push_back(LongCodeDynamicBlock());

  Pcg32 rng(28);
  for (const Buffer& stream : streams) {
    Result<Buffer> want = ReferenceInflater(stream.span(), kNoLimit).Run();
    ASSERT_TRUE(want.ok()) << want.status();
    ExpectMatchesReference(stream.span(), kNoLimit);
    ExpectMatchesReference(stream.span(), want->size());
    if (!want->empty()) ExpectMatchesReference(stream.span(), want->size() - 1);
    if (stream.size() > 64 << 10) continue;
    // The last token ending 1-16 bytes before the input end.
    for (size_t k = 1; k <= 16; ++k) {
      Buffer padded = stream;
      for (size_t i = 0; i < k; ++i) padded.AppendU8(uint8_t(rng.Next()));
      ExpectMatchesReference(padded.span(), kNoLimit);
    }
  }

  // Fixed blocks that present the reserved length symbols 286 and 287
  // after 40 literals, with 16 bytes after them so that the fast loop
  // decodes them.
  for (int reserved : {286, 287}) {
    Buffer bad;
    BitWriter w(&bad);
    w.WriteBits(1, 1);
    w.WriteBits(1, 2);
    for (int i = 0; i < 40; ++i) w.WriteHuffmanCode(0x30 + 'a', 8);
    w.WriteHuffmanCode(0xC0 + reserved - 280, 8);
    w.PadToByte();
    bad.Append(Buffer(size_t(16)).span());
    ExpectMatchesReference(bad.span(), kNoLimit);
  }

  std::vector<const Buffer*> small;
  for (const Buffer& stream : streams) {
    if (stream.size() <= 16 << 10) small.push_back(&stream);
  }
  for (int trial = 0; trial < 10000; ++trial) {
    Buffer mutated = *small[rng.NextBounded(uint32_t(small.size()))];
    Mutate(rng, &mutated);
    ExpectMatchesReference(mutated.span(), 1 << 20);
  }
}

TEST(LengthSymbolTest, BoundariesMatchRfcTables) {
  EXPECT_EQ(LengthToSymbol(3), 257);
  EXPECT_EQ(LengthToSymbol(4), 258);
  EXPECT_EQ(LengthToSymbol(10), 264);
  EXPECT_EQ(LengthToSymbol(11), 265);
  EXPECT_EQ(LengthToSymbol(12), 265);
  EXPECT_EQ(LengthToSymbol(13), 266);
  EXPECT_EQ(LengthToSymbol(257), 284);
  EXPECT_EQ(LengthToSymbol(258), 285);
  // Every length lies in its code's range [base, next code's base).
  for (int length = kMinMatch; length <= kMaxMatch; ++length) {
    int code = LengthToSymbol(length) - 257;
    EXPECT_GE(length, kLengthBase[code]) << length;
    if (code < 28) {
      EXPECT_LT(length, kLengthBase[code + 1]) << length;
    }
  }
}

TEST(DistanceSymbolTest, BoundariesMatchRfcTables) {
  EXPECT_EQ(DistanceToSymbol(1), 0);
  EXPECT_EQ(DistanceToSymbol(4), 3);
  EXPECT_EQ(DistanceToSymbol(5), 4);
  EXPECT_EQ(DistanceToSymbol(6), 4);
  EXPECT_EQ(DistanceToSymbol(7), 5);
  EXPECT_EQ(DistanceToSymbol(24577), 29);
  EXPECT_EQ(DistanceToSymbol(32768), 29);
  for (int distance = 1; distance <= kWindowSize; ++distance) {
    int code = DistanceToSymbol(distance);
    EXPECT_GE(distance, kDistBase[code]) << distance;
    if (code < 29) {
      EXPECT_LT(distance, kDistBase[code + 1]) << distance;
    }
  }
}

}  // namespace
}  // namespace dpdpu::kern
