#include "common/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace dpdpu {

namespace {
// 16 sub-buckets per power of two: bucket = 16*log2(v) + sub.
constexpr int kSubBucketBits = 4;
constexpr int kSubBuckets = 1 << kSubBucketBits;
}  // namespace

Histogram::Histogram() : buckets_(kNumBuckets, 0) {}

int Histogram::BucketFor(uint64_t value) {
  if (value < kSubBuckets) return static_cast<int>(value);
  int log2v = 63 - std::countl_zero(value);
  int sub = static_cast<int>((value >> (log2v - kSubBucketBits)) -
                             kSubBuckets);
  int bucket = (log2v - kSubBucketBits + 1) * kSubBuckets + sub;
  return std::min(bucket, kNumBuckets - 1);
}

uint64_t Histogram::BucketUpperBound(int bucket) {
  if (bucket < kSubBuckets) return static_cast<uint64_t>(bucket);
  int log2v = bucket / kSubBuckets + kSubBucketBits - 1;
  int sub = bucket % kSubBuckets;
  return ((uint64_t(kSubBuckets) + sub + 1) << (log2v - kSubBucketBits)) - 1;
}

void Histogram::Add(uint64_t value) {
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  ++count_;
  sum_ += double(value);
  ++buckets_[BucketFor(value)];
}

void Histogram::Merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
  for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
}

uint64_t Histogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  uint64_t rank = static_cast<uint64_t>(std::ceil(p / 100.0 * count_));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      return std::min(BucketUpperBound(i), max_);
    }
  }
  return max_;
}

}  // namespace dpdpu
