// Unit tests for src/common: Status/Result, Buffer/ByteReader, Pcg32/Zipf,
// Histogram, UniqueFunction.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/buffer.h"
#include "common/function.h"
#include "common/histogram.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"

namespace dpdpu {
namespace {

// --------------------------------------------------------------------------
// Status
// --------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryConstructorsSetCodeAndMessage) {
  Status s = Status::NotFound("file x");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "file x");
  EXPECT_EQ(s.ToString(), "NotFound: file x");
}

TEST(StatusTest, AllCodesHaveDistinctNames) {
  std::vector<Status> all = {
      Status::InvalidArgument("m"), Status::NotFound("m"),
      Status::AlreadyExists("m"),   Status::OutOfRange("m"),
      Status::ResourceExhausted("m"), Status::Unavailable("m"),
      Status::Corruption("m"),      Status::NotSupported("m"),
      Status::TimedOut("m"),        Status::Aborted("m"),
      Status::IoError("m"),         Status::Internal("m"),
  };
  std::vector<std::string_view> names;
  for (const auto& s : all) names.push_back(StatusCodeName(s.code()));
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Aborted("a"));
}

Status FailsWhenNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::Ok();
}

Status UsesReturnIfError(int x) {
  DPDPU_RETURN_IF_ERROR(FailsWhenNegative(x));
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_TRUE(UsesReturnIfError(-1).IsInvalidArgument());
}

// --------------------------------------------------------------------------
// Result
// --------------------------------------------------------------------------

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::OutOfRange("not positive");
  return x * 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r = ParsePositive(-3);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsOutOfRange());
  EXPECT_EQ(r.value_or(7), 7);
}

Result<std::string> UsesAssignOrReturn(int x) {
  DPDPU_ASSIGN_OR_RETURN(int doubled, ParsePositive(x));
  return std::to_string(doubled);
}

TEST(ResultTest, AssignOrReturnUnwrapsAndPropagates) {
  Result<std::string> ok = UsesAssignOrReturn(5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, "10");
  EXPECT_TRUE(UsesAssignOrReturn(0).status().IsOutOfRange());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(9);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 9);
}

// --------------------------------------------------------------------------
// Buffer / ByteReader
// --------------------------------------------------------------------------

TEST(BufferTest, AppendAndReadRoundTrip) {
  Buffer b;
  b.AppendU8(0xAB);
  b.AppendU16(0x1234);
  b.AppendU32(0xDEADBEEF);
  b.AppendU64(0x0123456789ABCDEFull);
  b.Append("tail");

  ByteReader r(b.span());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  Buffer tail;
  ASSERT_TRUE(r.ReadU8(&u8));
  ASSERT_TRUE(r.ReadU16(&u16));
  ASSERT_TRUE(r.ReadU32(&u32));
  ASSERT_TRUE(r.ReadU64(&u64));
  ASSERT_TRUE(r.ReadBytes(4, &tail));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0x1234);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(tail.ToString(), "tail");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BufferTest, LittleEndianLayout) {
  Buffer b;
  b.AppendU32(0x01020304);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0x04);
  EXPECT_EQ(b[1], 0x03);
  EXPECT_EQ(b[2], 0x02);
  EXPECT_EQ(b[3], 0x01);
}

TEST(ByteReaderTest, UnderflowFailsWithoutConsuming) {
  Buffer b;
  b.AppendU16(7);
  ByteReader r(b.span());
  uint32_t u32 = 99;
  EXPECT_FALSE(r.ReadU32(&u32));
  EXPECT_EQ(u32, 99u);  // untouched
  uint16_t u16;
  EXPECT_TRUE(r.ReadU16(&u16));
  EXPECT_EQ(u16, 7);
}

TEST(ByteReaderTest, ReadSpanIsZeroCopy) {
  Buffer b("hello world");
  ByteReader r(b.span());
  ByteSpan s;
  ASSERT_TRUE(r.Skip(6));
  ASSERT_TRUE(r.ReadSpan(5, &s));
  EXPECT_EQ(s.data(), b.data() + 6);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BufferTest, StringViewConstructorAndEquality) {
  Buffer a("abc");
  Buffer b("abc");
  Buffer c("abd");
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.view(), "abc");
}

// --------------------------------------------------------------------------
// Pcg32
// --------------------------------------------------------------------------

TEST(Pcg32Test, DeterministicAcrossInstances) {
  Pcg32 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Pcg32Test, DifferentSeedsDiffer) {
  Pcg32 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Pcg32Test, BoundedStaysInBounds) {
  Pcg32 rng(7);
  for (int i = 0; i < 10000; ++i) {
    uint32_t v = rng.NextBounded(17);
    EXPECT_LT(v, 17u);
  }
}

TEST(Pcg32Test, BoundedIsRoughlyUniform) {
  Pcg32 rng(99);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.NextBounded(kBuckets)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / kBuckets * 0.9);
    EXPECT_LT(c, kDraws / kBuckets * 1.1);
  }
}

TEST(Pcg32Test, ExponentialHasRequestedMean) {
  Pcg32 rng(11);
  double sum = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) sum += rng.NextExponential(50.0);
  double mean = sum / kDraws;
  EXPECT_NEAR(mean, 50.0, 1.0);
}

TEST(Pcg32Test, NextBoolProbability) {
  Pcg32 rng(13);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.NextBool(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(ZipfTest, SkewConcentratesOnSmallKeys) {
  Pcg32 rng(17);
  ZipfGenerator zipf(1000, 0.99);
  int top10 = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    uint64_t v = zipf.Next(rng);
    ASSERT_LT(v, 1000u);
    if (v < 10) ++top10;
  }
  // With theta=0.99 the top-1% of keys receive ~40% of accesses (the
  // YCSB-standard skew); uniform would give ~1%.
  EXPECT_GT(double(top10) / kDraws, 0.35);
}

TEST(ZipfTest, ThetaZeroIsNearUniform) {
  Pcg32 rng(19);
  ZipfGenerator zipf(100, 0.0);
  int top10 = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    if (zipf.Next(rng) < 10) ++top10;
  }
  EXPECT_NEAR(double(top10) / kDraws, 0.10, 0.02);
}

TEST(RngTest, FillRandomBytesIsDeterministic) {
  Pcg32 a(5), b(5);
  std::vector<uint8_t> x(1003), y(1003);
  FillRandomBytes(a, x.data(), x.size());
  FillRandomBytes(b, y.data(), y.size());
  EXPECT_EQ(x, y);
}

// --------------------------------------------------------------------------
// Histogram
// --------------------------------------------------------------------------

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(50), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Add(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.Mean(), 1000.0);
  // Log-bucketing bounds the error at ~4%.
  EXPECT_NEAR(double(h.P50()), 1000.0, 1000.0 * 0.07);
}

TEST(HistogramTest, PercentilesOfUniformRamp) {
  Histogram h;
  for (uint64_t v = 1; v <= 10000; ++v) h.Add(v);
  EXPECT_NEAR(double(h.P50()), 5000.0, 5000.0 * 0.07);
  EXPECT_NEAR(double(h.P99()), 9900.0, 9900.0 * 0.07);
  EXPECT_EQ(h.max(), 10000u);
  EXPECT_EQ(h.min(), 1u);
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  for (uint64_t v = 0; v < 16; ++v) h.Add(v);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.Percentile(100), 15u);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.Add(10);
  for (int i = 0; i < 100; ++i) b.Add(1000000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 1000000u);
  EXPECT_LT(a.P50(), 20u);
  EXPECT_GT(a.P99(), 900000u);
}

TEST(HistogramTest, LargeValuesDoNotOverflowBuckets) {
  Histogram h;
  h.Add(UINT64_MAX);
  h.Add(1ull << 62);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), UINT64_MAX);
  EXPECT_GE(h.Percentile(100), (1ull << 62));
}

// --------------------------------------------------------------------------
// UniqueFunction
// --------------------------------------------------------------------------

TEST(UniqueFunctionTest, CapturesMoveOnlyState) {
  auto p = std::make_unique<int>(31);
  int got = 0;
  UniqueFunction f([p = std::move(p), &got] { got = *p; });
  ASSERT_TRUE(static_cast<bool>(f));
  f();
  EXPECT_EQ(got, 31);
}

TEST(UniqueFunctionTest, EmptyIsFalse) {
  UniqueFunction f;
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(UniqueFunctionTest, MoveTransfersOwnership) {
  int calls = 0;
  UniqueFunction a([&calls] { ++calls; });
  UniqueFunction b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(calls, 1);
}

TEST(UniqueFunctionTest, SmallCaptureStaysInline) {
  int x = 7;
  UniqueFunction f([&x] { ++x; });
  EXPECT_TRUE(f.is_inline());
  f();
  EXPECT_EQ(x, 8);

  // A capture right at the inline budget still fits.
  std::array<char, UniqueFunction::kInlineSize> big{};
  big[0] = 3;
  int got = 0;
  UniqueFunction g([big, &got] { got = big[0]; });
  static_assert(sizeof(big) == UniqueFunction::kInlineSize);
  // big + the reference exceed the budget together, so don't assert
  // inline here; the pure at-budget case:
  std::array<char, UniqueFunction::kInlineSize - sizeof(void*)> fits{};
  fits[0] = 5;
  UniqueFunction h([fits, &got] { got = fits[0]; });
  EXPECT_TRUE(h.is_inline());
  h();
  EXPECT_EQ(got, 5);
  g();
  EXPECT_EQ(got, 3);
}

TEST(UniqueFunctionTest, OversizedCaptureFallsBackToHeap) {
  std::array<char, UniqueFunction::kInlineSize + 1> big{};
  big[1] = 9;
  int got = 0;
  UniqueFunction f([big, &got] { got = big[1]; });
  EXPECT_TRUE(static_cast<bool>(f));
  EXPECT_FALSE(f.is_inline());
  // Heap payloads relocate by pointer; the callable survives moves.
  UniqueFunction g = std::move(f);
  g();
  EXPECT_EQ(got, 9);
}

struct DtorCounter {
  explicit DtorCounter(int* counter) : counter_(counter) {}
  DtorCounter(DtorCounter&& other) noexcept : counter_(other.counter_) {
    other.counter_ = nullptr;
  }
  DtorCounter(const DtorCounter&) = delete;
  ~DtorCounter() {
    if (counter_ != nullptr) ++*counter_;
  }
  int* counter_;
};

TEST(UniqueFunctionTest, DestroysPayloadExactlyOnce) {
  int destroyed = 0;
  {
    UniqueFunction f([d = DtorCounter(&destroyed)] { (void)d; });
    EXPECT_TRUE(f.is_inline());
    UniqueFunction g = std::move(f);  // relocation must not double-destroy
    UniqueFunction h;
    h = std::move(g);
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(UniqueFunctionTest, MoveAssignDestroysPreviousPayload) {
  int destroyed = 0;
  UniqueFunction f([d = DtorCounter(&destroyed)] { (void)d; });
  f = UniqueFunction([] {});
  EXPECT_EQ(destroyed, 1);
  EXPECT_TRUE(static_cast<bool>(f));
}

TEST(UniqueFunctionTest, InlinePayloadRelocatesByValue) {
  // The captured value must travel with the object across moves, not stay
  // behind in the old storage.
  uint64_t seen = 0;
  UniqueFunction f([v = uint64_t(0xDEADBEEFCAFEull), &seen] { seen = v; });
  ASSERT_TRUE(f.is_inline());
  UniqueFunction g = std::move(f);
  UniqueFunction h = std::move(g);
  h();
  EXPECT_EQ(seen, 0xDEADBEEFCAFEull);
}

}  // namespace
}  // namespace dpdpu
