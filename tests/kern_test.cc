// Tests for the non-DEFLATE software kernels: CRC32, ChaCha20 (RFC 8439
// vectors), regex engine, dedup chunker, relational kernels, textgen.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "kern/chacha20.h"
#include "kern/crc32.h"
#include "kern/dedup.h"
#include "kern/regex.h"
#include "kern/relational.h"
#include "kern/textgen.h"
#include "mutate.h"

namespace dpdpu::kern {
namespace {

// --------------------------------------------------------------------------
// CRC32.
// --------------------------------------------------------------------------

TEST(Crc32Test, StandardCheckValue) {
  Buffer in("123456789");
  EXPECT_EQ(Crc32(in.span()), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32(ByteSpan()), 0u); }

TEST(Crc32Test, IncrementalMatchesOneShot) {
  Buffer in("the quick brown fox jumps over the lazy dog");
  uint32_t whole = Crc32(in.span());
  uint32_t crc = 0;
  crc = Crc32Update(crc, in.span().subspan(0, 10));
  crc = Crc32Update(crc, in.span().subspan(10));
  EXPECT_EQ(crc, whole);
}

TEST(Crc32Test, SliceBy8MatchesBytewiseReference) {
  // The slice-by-8 fast path must agree with the byte-at-a-time table
  // walk for every length and alignment, including chunks split at
  // arbitrary points (which exercises the <8-byte head/tail paths).
  Buffer data = GenerateRandomBytes(4096, 99);
  Pcg32 rng(1234);
  for (size_t len : {size_t(0), size_t(1), size_t(7), size_t(8), size_t(9),
                     size_t(63), size_t(64), size_t(65), size_t(1000),
                     size_t(4096)}) {
    ByteSpan span = data.span().subspan(0, len);
    uint32_t fast = Crc32(span);
    uint32_t slow = Crc32UpdateBytewise(0, span);
    EXPECT_EQ(fast, slow) << "len=" << len;

    // Random split points: incremental slice-by-8 over pieces must match
    // too (the CRC is a function of the byte stream, not the chunking).
    uint32_t pieced = 0;
    size_t pos = 0;
    while (pos < len) {
      size_t chunk = 1 + rng.NextBounded(uint32_t(len - pos));
      pieced = Crc32Update(pieced, span.subspan(pos, chunk));
      pos += chunk;
    }
    EXPECT_EQ(pieced, fast) << "len=" << len;
  }
}

TEST(Crc32Test, DetectsSingleBitFlips) {
  Buffer in = GenerateRandomBytes(1024, 5);
  uint32_t orig = Crc32(in.span());
  for (int i = 0; i < 50; ++i) {
    Buffer mutated = in;
    mutated[i * 20] ^= 1;
    EXPECT_NE(Crc32(mutated.span()), orig);
  }
}

// --------------------------------------------------------------------------
// ChaCha20 (RFC 8439 §2.3.2 and §2.4.2 vectors).
// --------------------------------------------------------------------------

std::array<uint8_t, 32> Rfc8439Key() {
  std::array<uint8_t, 32> key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<uint8_t>(i);
  return key;
}

TEST(ChaCha20Test, Rfc8439BlockFunctionVector) {
  auto key = Rfc8439Key();
  std::array<uint8_t, 12> nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                                   0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  auto block = ChaCha20Block(key, nonce, 1);
  const uint8_t expected[64] = {
      0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd,
      0x1f, 0xa3, 0x20, 0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0,
      0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a, 0xc3, 0xd4, 0x6c, 0x4e, 0xd2,
      0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2, 0xd7, 0x05,
      0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e,
      0xb9, 0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e};
  EXPECT_TRUE(std::equal(block.begin(), block.end(), expected));
}

TEST(ChaCha20Test, Rfc8439EncryptionVector) {
  auto key = Rfc8439Key();
  std::array<uint8_t, 12> nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                                   0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  Buffer plaintext(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  Buffer ct = ChaCha20Xor(key, nonce, 1, plaintext.span());
  const uint8_t expected_first16[16] = {0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68,
                                        0xf9, 0x80, 0x41, 0xba, 0x07, 0x28,
                                        0xdd, 0x0d, 0x69, 0x81};
  ASSERT_GE(ct.size(), 16u);
  EXPECT_TRUE(std::equal(expected_first16, expected_first16 + 16, ct.data()));
  // Last 4 bytes of the RFC ciphertext.
  const uint8_t expected_tail[4] = {0x5e, 0x42, 0x87, 0x4d};
  EXPECT_TRUE(std::equal(expected_tail, expected_tail + 4,
                         ct.data() + ct.size() - 4));
}

TEST(ChaCha20Test, XorIsItsOwnInverse) {
  auto key = Rfc8439Key();
  std::array<uint8_t, 12> nonce{};
  Buffer plaintext = GenerateRandomBytes(10000, 77);
  Buffer ct = ChaCha20Xor(key, nonce, 0, plaintext.span());
  EXPECT_FALSE(ct == plaintext);
  Buffer back = ChaCha20Xor(key, nonce, 0, ct.span());
  EXPECT_EQ(back, plaintext);
}

TEST(ChaCha20Test, DifferentNoncesDiverge) {
  auto key = Rfc8439Key();
  std::array<uint8_t, 12> n1{}, n2{};
  n2[0] = 1;
  Buffer pt = GenerateRandomBytes(256, 8);
  Buffer c1 = ChaCha20Xor(key, n1, 0, pt.span());
  Buffer c2 = ChaCha20Xor(key, n2, 0, pt.span());
  EXPECT_FALSE(c1 == c2);
}

TEST(ChaCha20Test, NonBlockAlignedLengths) {
  auto key = Rfc8439Key();
  std::array<uint8_t, 12> nonce{};
  for (size_t n : {1u, 63u, 64u, 65u, 127u, 129u}) {
    Buffer pt = GenerateRandomBytes(n, n);
    Buffer ct = ChaCha20Xor(key, nonce, 0, pt.span());
    Buffer back = ChaCha20Xor(key, nonce, 0, ct.span());
    EXPECT_EQ(back, pt) << "n=" << n;
  }
}

// ChaCha20Xor must XOR its input with the concatenated ChaCha20Block
// outputs for counter, counter + 1, ... (mod 2^32) at every length: below,
// across and past a group of 4 blocks, and with the counter wrapping
// inside one.
TEST(ChaCha20Test, XorMatchesBlockKeystream) {
  std::array<uint8_t, 32> key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<uint8_t>(0xA5 ^ (29 * i));
  const std::array<uint8_t, 12> nonce = {1, 2, 3, 4,  5,  6,
                                         7, 8, 9, 10, 11, 12};
  constexpr size_t kMax = 1 << 20;
  Buffer input = GenerateRandomBytes(kMax, 28);
  std::vector<size_t> lengths(1101);
  std::iota(lengths.begin(), lengths.end(), size_t{0});
  lengths.push_back(64 << 10);
  lengths.push_back(kMax);
  for (uint32_t counter : {0u, 1u, 0xFFFFFFFDu}) {
    std::vector<uint8_t> expected(kMax);
    for (size_t b = 0; b < kMax / 64; ++b) {
      auto block = ChaCha20Block(key, nonce, counter + uint32_t(b));
      for (size_t i = 0; i < 64; ++i) {
        expected[64 * b + i] = input[64 * b + i] ^ block[i];
      }
    }
    for (size_t n : lengths) {
      Buffer out = ChaCha20Xor(key, nonce, counter, input.span().subspan(0, n));
      ASSERT_EQ(out.size(), n);
      EXPECT_TRUE(std::equal(out.data(), out.data() + n, expected.begin()))
          << "counter " << counter << ", length " << n;
    }
  }
}

// --------------------------------------------------------------------------
// Regex.
// --------------------------------------------------------------------------

bool Full(const std::string& pattern, const std::string& text) {
  auto re = Regex::Compile(pattern);
  EXPECT_TRUE(re.ok()) << pattern << ": " << re.status();
  return re.ok() && re->FullMatch(text);
}

bool Partial(const std::string& pattern, const std::string& text) {
  auto re = Regex::Compile(pattern);
  EXPECT_TRUE(re.ok()) << pattern << ": " << re.status();
  return re.ok() && re->PartialMatch(text);
}

TEST(RegexTest, Literals) {
  EXPECT_TRUE(Full("abc", "abc"));
  EXPECT_FALSE(Full("abc", "abd"));
  EXPECT_FALSE(Full("abc", "ab"));
  EXPECT_FALSE(Full("abc", "abcd"));
}

TEST(RegexTest, Dot) {
  EXPECT_TRUE(Full("a.c", "abc"));
  EXPECT_TRUE(Full("a.c", "axc"));
  EXPECT_FALSE(Full("a.c", "a\nc"));  // dot excludes newline
}

TEST(RegexTest, StarPlusQuestion) {
  EXPECT_TRUE(Full("ab*c", "ac"));
  EXPECT_TRUE(Full("ab*c", "abbbbc"));
  EXPECT_FALSE(Full("ab+c", "ac"));
  EXPECT_TRUE(Full("ab+c", "abc"));
  EXPECT_TRUE(Full("ab?c", "ac"));
  EXPECT_TRUE(Full("ab?c", "abc"));
  EXPECT_FALSE(Full("ab?c", "abbc"));
}

TEST(RegexTest, Alternation) {
  EXPECT_TRUE(Full("cat|dog", "cat"));
  EXPECT_TRUE(Full("cat|dog", "dog"));
  EXPECT_FALSE(Full("cat|dog", "cow"));
  EXPECT_TRUE(Full("a(b|c)d", "abd"));
  EXPECT_TRUE(Full("a(b|c)d", "acd"));
}

TEST(RegexTest, CharacterClasses) {
  EXPECT_TRUE(Full("[abc]+", "abcba"));
  EXPECT_FALSE(Full("[abc]+", "abd"));
  EXPECT_TRUE(Full("[a-z0-9]+", "abc123"));
  EXPECT_TRUE(Full("[^0-9]+", "hello"));
  EXPECT_FALSE(Full("[^0-9]+", "hell0"));
}

TEST(RegexTest, Escapes) {
  EXPECT_TRUE(Full("\\d+", "12345"));
  EXPECT_FALSE(Full("\\d+", "12a45"));
  EXPECT_TRUE(Full("\\w+", "hello_World9"));
  EXPECT_TRUE(Full("\\s", " "));
  EXPECT_TRUE(Full("\\D+", "abc"));
  EXPECT_TRUE(Full("a\\.b", "a.b"));
  EXPECT_FALSE(Full("a\\.b", "axb"));
  EXPECT_TRUE(Full("a\\\\b", "a\\b"));
}

TEST(RegexTest, BraceQuantifiers) {
  EXPECT_TRUE(Full("a{3}", "aaa"));
  EXPECT_FALSE(Full("a{3}", "aa"));
  EXPECT_FALSE(Full("a{3}", "aaaa"));
  EXPECT_TRUE(Full("a{2,4}", "aa"));
  EXPECT_TRUE(Full("a{2,4}", "aaaa"));
  EXPECT_FALSE(Full("a{2,4}", "aaaaa"));
  EXPECT_TRUE(Full("a{2,}", "aaaaaaa"));
  EXPECT_FALSE(Full("a{2,}", "a"));
}

TEST(RegexTest, Anchors) {
  EXPECT_TRUE(Partial("^abc", "abcdef"));
  EXPECT_FALSE(Partial("^abc", "xabc"));
  EXPECT_TRUE(Partial("def$", "abcdef"));
  EXPECT_FALSE(Partial("def$", "defabc"));
  EXPECT_TRUE(Full("^abc$", "abc"));
}

TEST(RegexTest, PartialVsFull) {
  EXPECT_TRUE(Partial("ell", "hello"));
  EXPECT_FALSE(Full("ell", "hello"));
  EXPECT_TRUE(Partial("\\d{3}", "order 12345 shipped"));
}

TEST(RegexTest, CountMatches) {
  auto re = Regex::Compile("\\d+");
  ASSERT_TRUE(re.ok());
  EXPECT_EQ(re->CountMatches("a1b22c333"), 3u);
  EXPECT_EQ(re->CountMatches("no digits"), 0u);
  EXPECT_EQ(re->CountMatches("123"), 1u);  // longest, not 3 separate
}

TEST(RegexTest, CountNonOverlapping) {
  auto re = Regex::Compile("aa");
  ASSERT_TRUE(re.ok());
  EXPECT_EQ(re->CountMatches("aaaa"), 2u);
}

TEST(RegexTest, PathologicalPatternStaysLinear) {
  // (a?){25}a{25} against "a"*25 kills backtrackers; the Pike VM is fine.
  std::string pattern;
  for (int i = 0; i < 25; ++i) pattern += "a?";
  for (int i = 0; i < 25; ++i) pattern += "a";
  std::string text(25, 'a');
  EXPECT_TRUE(Full(pattern, text));
}

TEST(RegexTest, SyntaxErrors) {
  EXPECT_TRUE(Regex::Compile("(abc").status().IsInvalidArgument());
  EXPECT_TRUE(Regex::Compile("abc)").status().IsInvalidArgument());
  EXPECT_TRUE(Regex::Compile("[abc").status().IsInvalidArgument());
  EXPECT_TRUE(Regex::Compile("*a").status().IsInvalidArgument());
  EXPECT_TRUE(Regex::Compile("a{5,2}").status().IsInvalidArgument());
  EXPECT_TRUE(Regex::Compile("a{999}").status().IsInvalidArgument());
  EXPECT_TRUE(Regex::Compile("a\\").status().IsInvalidArgument());
  EXPECT_TRUE(Regex::Compile("[z-a]").status().IsInvalidArgument());
}

// '{m,n}' copies its operand, so nested repeats multiply. The size is
// checked before each copy: a{100}{100}{100} would need a million
// instructions and fails at once instead of building them.
TEST(RegexTest, ProgramsOverTheInstructionCapAreRejected) {
  auto nested = Regex::Compile("a{100}{100}");
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(nested->instruction_count(), 10001u);
  EXPECT_TRUE(
      Regex::Compile("a{100}{100}{100}").status().IsInvalidArgument());
  EXPECT_TRUE(
      Regex::Compile("(a{100}){100}{10}").status().IsInvalidArgument());
  // Concatenation counts too: nine copies fit under the cap, ten do not.
  std::string nine, ten;
  for (int i = 0; i < 9; ++i) nine += "a{100}{100}";
  ten = nine + "a{100}{100}";
  auto fits = Regex::Compile(nine);
  ASSERT_TRUE(fits.ok());
  EXPECT_EQ(fits->instruction_count(), 90001u);
  EXPECT_TRUE(Regex::Compile(ten).status().IsInvalidArgument());
  EXPECT_TRUE(
      Regex::Compile("(" + nine + "|" + nine + ")").status()
          .IsInvalidArgument());
}

TEST(RegexTest, EmptyPatternMatchesEmpty) {
  EXPECT_TRUE(Full("", ""));
  EXPECT_FALSE(Full("", "x"));
  EXPECT_TRUE(Partial("", "anything"));
}

TEST(RegexTest, ClassWithLeadingBracket) {
  EXPECT_TRUE(Full("[]a]+", "]a]"));  // ']' first in class is a literal
}

// The Pike VM's answers for the DFA's three entry points, built on its
// longest match from one start the way the documented semantics say.
size_t VmCount(const Regex& re, std::string_view text) {
  size_t count = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    ptrdiff_t end = re.VmLongestMatch(text, pos);
    if (end < 0) {
      ++pos;
      continue;
    }
    ++count;
    pos = size_t(end) > pos ? size_t(end) : pos + 1;
  }
  return count;
}

bool VmPartial(const Regex& re, std::string_view text) {
  for (size_t pos = 0; pos <= text.size(); ++pos) {
    if (re.VmLongestMatch(text, pos) >= 0) return true;
  }
  return false;
}

void ExpectAgreesWithVm(const Regex& re, std::string_view text) {
  EXPECT_EQ(re.CountMatches(text), VmCount(re, text))
      << "/" << re.pattern() << "/ on \"" << text << "\"";
  EXPECT_EQ(re.FullMatch(text),
            re.VmLongestMatch(text, 0) == ptrdiff_t(text.size()))
      << "/" << re.pattern() << "/ on \"" << text << "\"";
  EXPECT_EQ(re.PartialMatch(text), VmPartial(re, text))
      << "/" << re.pattern() << "/ on \"" << text << "\"";
}

// Random patterns over {a, b, c} that use every supported construct.
std::string RandomPattern(Pcg32& rng, int depth);

std::string RandomAtom(Pcg32& rng, int depth) {
  static const char* const kAtoms[] = {"a",    "b",  "c", ".", "[ab]",
                                       "[^a]", "^",  "$", "()"};
  if (depth < 3 && rng.NextBounded(5) == 0) {
    return "(" + RandomPattern(rng, depth + 1) + ")";
  }
  return kAtoms[rng.NextBounded(std::size(kAtoms))];
}

std::string RandomPattern(Pcg32& rng, int depth) {
  std::string out;
  for (int branch = 0; branch == 0 || rng.NextBounded(4) == 0; ++branch) {
    if (branch > 0) out += "|";
    for (uint32_t n = rng.NextBounded(4); n > 0; --n) {
      out += RandomAtom(rng, depth);
      switch (rng.NextBounded(8)) {
        case 0:
          out += "*";
          break;
        case 1:
          out += "+";
          break;
        case 2:
          out += "?";
          break;
        case 3: {
          uint32_t m = rng.NextBounded(3);
          out += "{" + std::to_string(m) + "," +
                 std::to_string(m + rng.NextBounded(3)) + "}";
          break;
        }
        default:
          break;
      }
    }
  }
  return out;
}

TEST(RegexTest, DfaAgreesWithVmOnRandomPatterns) {
  Pcg32 rng(2024);
  for (int trial = 0; trial < 3000 && !HasFailure(); ++trial) {
    std::string pattern = RandomPattern(rng, 0);
    auto re = Regex::Compile(pattern);
    ASSERT_TRUE(re.ok()) << pattern << ": " << re.status();
    for (int t = 0; t < 8; ++t) {
      std::string text(rng.NextBounded(65), ' ');
      for (char& c : text) c = "abc"[rng.NextBounded(3)];
      ExpectAgreesWithVm(*re, text);
    }
  }
}

TEST(RegexTest, DfaAgreesWithVmWhenStateCacheOverflows) {
  // Past its first 17 bytes, a run's DFA state records which of the last
  // 17 bytes were 'a': up to 2^17 states. The text below meets tens of
  // thousands of them, several times what the state cache holds, so the
  // cache is flushed again and again mid-scan. Every segment is random
  // a/b text ending "a<16 bytes>c", so each one is a match and the count
  // depends on every state the scan passes through.
  auto re = Regex::Compile("(a|b)*a(a|b){16}c");
  ASSERT_TRUE(re.ok());
  Pcg32 rng(9);
  std::string text;
  size_t segments = 0;
  while (text.size() < 64 * 1024) {
    size_t start = text.size();
    size_t len = 17 + rng.NextBounded(200);
    for (size_t i = 0; i < len; ++i) text += "ab"[rng.NextBounded(2)];
    text[start + len - 17] = 'a';
    text += 'c';
    ++segments;
  }
  EXPECT_EQ(re->CountMatches(text), segments);
  ExpectAgreesWithVm(*re, text);
}

// Seeded mutations (bit flips, truncation, windows overwritten with regex
// syntax) of valid patterns: Compile returns a Status, and a pattern
// that still compiles counts its matches in a bounded text.
TEST(RegexTest, MutatedPatternsReturnAStatus) {
  static const char* const kPatterns[] = {
      "a(b|c)*d",           "[a-z]+@[a-z]+\\.com", "^foo$",
      "a{2,5}b{3}c{1,}",    "(ab)+|c?d*",          "[^0-9]*x",
      "\\d+\\.\\d*\\s\\w",  "[]a-c\\]]+",          "(a|b)*a(a|b){4}c",
      "((a|)|b?)*.{0,3}$"};
  const std::string_view kSyntax = "()[]{}*+?|^$\\.-,0123456789abcdsw";
  std::string text;
  Pcg32 rng(77);
  for (int i = 0; i < 256; ++i) {
    text += "abcdxyz019 .@()[]\n"[rng.NextBounded(18)];
  }
  int compiled = 0, rejected = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    std::string pattern = kPatterns[rng.NextBounded(std::size(kPatterns))];
    Mutate(rng, &pattern, kSyntax);
    auto re = Regex::Compile(pattern);
    if (re.ok()) {
      EXPECT_LE(re->CountMatches(text), text.size() + 1) << pattern;
      ++compiled;
    } else {
      EXPECT_TRUE(re.status().IsInvalidArgument()) << pattern;
      ++rejected;
    }
  }
  EXPECT_GT(compiled, 0);
  EXPECT_GT(rejected, 0);
}

// --------------------------------------------------------------------------
// Dedup.
// --------------------------------------------------------------------------

TEST(DedupTest, ChunksCoverInputExactly) {
  Buffer data = GenerateText(500000, {});
  auto chunks = ChunkData(data.span());
  ASSERT_FALSE(chunks.empty());
  size_t expected_offset = 0;
  for (const Chunk& c : chunks) {
    EXPECT_EQ(c.offset, expected_offset);
    expected_offset += c.size;
  }
  EXPECT_EQ(expected_offset, data.size());
}

TEST(DedupTest, ChunkSizesRespectBounds) {
  Buffer data = GenerateRandomBytes(1 << 20, 42);
  auto chunks = ChunkData(data.span());
  for (size_t i = 0; i + 1 < chunks.size(); ++i) {  // last may be short
    EXPECT_GE(chunks[i].size, kMinChunkBytes);
    EXPECT_LE(chunks[i].size, kMaxChunkBytes);
  }
  // Average within a reasonable factor of the target.
  double avg = double(data.size()) / double(chunks.size());
  EXPECT_GT(avg, kAvgChunkBytes / 4.0);
  EXPECT_LT(avg, kAvgChunkBytes * 4.0);
}

TEST(DedupTest, BoundariesShiftInvariant) {
  // Content-defined chunking: inserting bytes at the front must not
  // change chunk boundaries far from the edit.
  Buffer data = GenerateRandomBytes(300000, 11);
  Buffer shifted;
  shifted.Append("PREFIX-INSERTED-BYTES");
  shifted.Append(data.span());

  auto base = ChunkData(data.span());
  auto after = ChunkData(shifted.span());
  // Collect fingerprints; most of the original chunk set must survive.
  std::vector<uint64_t> base_fp, after_fp;
  for (const auto& c : base) base_fp.push_back(c.fingerprint);
  for (const auto& c : after) after_fp.push_back(c.fingerprint);
  size_t common = 0;
  for (uint64_t f : base_fp) {
    if (std::find(after_fp.begin(), after_fp.end(), f) != after_fp.end()) {
      ++common;
    }
  }
  EXPECT_GT(common, base_fp.size() * 7 / 10);
}

TEST(DedupTest, FingerprintsDifferForDifferentContent) {
  Buffer a = GenerateRandomBytes(8192, 1);
  Buffer b = GenerateRandomBytes(8192, 2);
  EXPECT_NE(Fingerprint64(a.span()), Fingerprint64(b.span()));
  EXPECT_EQ(Fingerprint64(a.span()), Fingerprint64(a.span()));
}

// --------------------------------------------------------------------------
// Relational.
// --------------------------------------------------------------------------

Schema TestSchema() {
  return Schema({{"id", ColumnType::kInt64},
                 {"price", ColumnType::kDouble},
                 {"name", ColumnType::kString}});
}

Buffer BuildTestPage(int rows) {
  RowPageBuilder builder(TestSchema());
  for (int i = 0; i < rows; ++i) {
    Status s = builder.AddRow({Value(int64_t(i)), Value(i * 1.5),
                               Value(std::string("item") +
                                     std::to_string(i % 10))});
    EXPECT_TRUE(s.ok());
  }
  return builder.Finish();
}

TEST(RowPageTest, BuildAndReadBack) {
  Schema schema = TestSchema();
  Buffer page = BuildTestPage(100);
  auto reader = RowPageReader::Open(&schema, page.span());
  ASSERT_TRUE(reader.ok()) << reader.status();
  EXPECT_EQ(reader->row_count(), 100u);
  auto v0 = reader->Get(7, 0);
  ASSERT_TRUE(v0.ok());
  EXPECT_EQ(std::get<int64_t>(*v0), 7);
  auto v1 = reader->Get(7, 1);
  ASSERT_TRUE(v1.ok());
  EXPECT_DOUBLE_EQ(std::get<double>(*v1), 10.5);
  auto v2 = reader->Get(7, 2);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(std::get<std::string>(*v2), "item7");
}

TEST(RowPageTest, TypeMismatchRejected) {
  RowPageBuilder builder(TestSchema());
  Status s = builder.AddRow({Value(1.0), Value(2.0), Value(std::string())});
  EXPECT_TRUE(s.IsInvalidArgument());
  s = builder.AddRow({Value(int64_t(1))});
  EXPECT_TRUE(s.IsInvalidArgument());
}

TEST(RowPageTest, OutOfRangeAccess) {
  Schema schema = TestSchema();
  Buffer page = BuildTestPage(5);
  auto reader = RowPageReader::Open(&schema, page.span());
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->Get(5, 0).status().IsOutOfRange());
  EXPECT_TRUE(reader->Get(0, 3).status().IsOutOfRange());
}

TEST(RowPageTest, CorruptPageRejected) {
  Schema schema = TestSchema();
  Buffer page = BuildTestPage(5);
  page[0] ^= 0xFF;  // break magic
  EXPECT_TRUE(
      RowPageReader::Open(&schema, page.span()).status().IsCorruption());
  Buffer truncated(page.data(), 10);
  truncated[0] ^= 0xFF;  // restore nothing; still corrupt
}

TEST(RowPageTest, SchemaMismatchRejected) {
  Schema other({{"x", ColumnType::kInt64}});
  Buffer page = BuildTestPage(5);
  EXPECT_TRUE(RowPageReader::Open(&other, page.span())
                  .status()
                  .IsInvalidArgument());
}

TEST(SchemaTest, FindColumn) {
  Schema schema = TestSchema();
  EXPECT_EQ(schema.FindColumn("price"), 1);
  EXPECT_EQ(schema.FindColumn("missing"), -1);
}

TEST(PredicateTest, SimpleComparisons) {
  Schema schema = TestSchema();
  Buffer page = BuildTestPage(10);
  auto reader = RowPageReader::Open(&schema, page.span());
  ASSERT_TRUE(reader.ok());

  Predicate lt5{0, CompareOp::kLt, Value(int64_t(5))};
  auto rows = FilterPage(*reader, lt5);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);

  Predicate name3{2, CompareOp::kEq, Value(std::string("item3"))};
  rows = FilterPage(*reader, name3);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, (std::vector<uint32_t>{3}));
}

TEST(PredicateTest, NumericCrossTypeComparison) {
  Schema schema = TestSchema();
  Buffer page = BuildTestPage(10);
  auto reader = RowPageReader::Open(&schema, page.span());
  ASSERT_TRUE(reader.ok());
  // Compare int64 column against a double literal.
  Predicate pred{0, CompareOp::kLt, Value(4.5)};
  auto rows = FilterPage(*reader, pred);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);
}

TEST(PredicateTest, StringVsNumberFails) {
  Schema schema = TestSchema();
  Buffer page = BuildTestPage(3);
  auto reader = RowPageReader::Open(&schema, page.span());
  ASSERT_TRUE(reader.ok());
  Predicate pred{2, CompareOp::kEq, Value(int64_t(1))};
  EXPECT_TRUE(FilterPage(*reader, pred).status().IsInvalidArgument());
}

TEST(MaterializeTest, SelectedRowsRoundTrip) {
  Schema schema = TestSchema();
  Buffer page = BuildTestPage(50);
  auto reader = RowPageReader::Open(&schema, page.span());
  ASSERT_TRUE(reader.ok());
  std::vector<uint32_t> picks = {0, 10, 49};
  auto out = MaterializeRows(*reader, picks);
  ASSERT_TRUE(out.ok());
  auto out_reader = RowPageReader::Open(&schema, out->span());
  ASSERT_TRUE(out_reader.ok());
  EXPECT_EQ(out_reader->row_count(), 3u);
  EXPECT_EQ(std::get<int64_t>(*out_reader->Get(2, 0)), 49);
  EXPECT_EQ(std::get<std::string>(*out_reader->Get(1, 2)), "item0");
}

TEST(AggregateTest, AllKinds) {
  Schema schema = TestSchema();
  Buffer page = BuildTestPage(10);  // ids 0..9, price = 1.5*id
  auto reader = RowPageReader::Open(&schema, page.span());
  ASSERT_TRUE(reader.ok());

  EXPECT_EQ(std::get<int64_t>(
                *AggregateColumn(*reader, 0, AggregateKind::kCount)),
            10);
  EXPECT_EQ(
      std::get<int64_t>(*AggregateColumn(*reader, 0, AggregateKind::kSum)),
      45);
  EXPECT_EQ(
      std::get<int64_t>(*AggregateColumn(*reader, 0, AggregateKind::kMin)),
      0);
  EXPECT_EQ(
      std::get<int64_t>(*AggregateColumn(*reader, 0, AggregateKind::kMax)),
      9);
  EXPECT_DOUBLE_EQ(
      std::get<double>(*AggregateColumn(*reader, 1, AggregateKind::kAvg)),
      6.75);
}

TEST(AggregateTest, SubsetRows) {
  Schema schema = TestSchema();
  Buffer page = BuildTestPage(10);
  auto reader = RowPageReader::Open(&schema, page.span());
  ASSERT_TRUE(reader.ok());
  std::vector<uint32_t> rows = {1, 3, 5};
  auto sum = AggregateColumn(*reader, 0, AggregateKind::kSum, &rows);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(std::get<int64_t>(*sum), 9);
}

TEST(AggregateTest, ErrorsOnStringAndEmpty) {
  Schema schema = TestSchema();
  Buffer page = BuildTestPage(10);
  auto reader = RowPageReader::Open(&schema, page.span());
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(AggregateColumn(*reader, 2, AggregateKind::kSum)
                  .status()
                  .IsInvalidArgument());
  std::vector<uint32_t> empty;
  EXPECT_TRUE(AggregateColumn(*reader, 0, AggregateKind::kSum, &empty)
                  .status()
                  .IsInvalidArgument());
}

// --------------------------------------------------------------------------
// Textgen.
// --------------------------------------------------------------------------

TEST(TextGenTest, DeterministicPerSeed) {
  Buffer a = GenerateText(10000, {7, 4096, 0.9});
  Buffer b = GenerateText(10000, {7, 4096, 0.9});
  Buffer c = GenerateText(10000, {8, 4096, 0.9});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(TextGenTest, ProducesExactSize) {
  for (size_t n : {size_t(1), size_t(100), size_t(12345)}) {
    EXPECT_EQ(GenerateText(n, {}).size(), n);
  }
}

TEST(TextGenTest, LooksLikeText) {
  Buffer t = GenerateText(50000, {});
  size_t letters = 0, spaces = 0;
  for (size_t i = 0; i < t.size(); ++i) {
    uint8_t ch = t[i];
    if ((ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z')) ++letters;
    if (ch == ' ') ++spaces;
  }
  EXPECT_GT(letters, t.size() * 7 / 10);
  EXPECT_GT(spaces, t.size() / 20);
}

}  // namespace
}  // namespace dpdpu::kern
