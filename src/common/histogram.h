// Measurement primitives: counters and log-bucketed histograms with
// percentile queries, used by the simulator and the benchmark harnesses.

#ifndef DPDPU_COMMON_HISTOGRAM_H_
#define DPDPU_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace dpdpu {

/// Log-scale bucketed histogram of non-negative integer samples (typically
/// nanoseconds or cycles). Buckets grow geometrically (~4% width), so
/// percentile error is bounded at ~4% while memory stays O(1).
class Histogram {
 public:
  Histogram();

  void Add(uint64_t value);
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double sum() const { return sum_; }
  double Mean() const { return count_ == 0 ? 0.0 : sum_ / double(count_); }

  /// Value at percentile p in [0, 100]. Returns 0 for an empty histogram.
  uint64_t Percentile(double p) const;

  uint64_t P50() const { return Percentile(50); }
  uint64_t P99() const { return Percentile(99); }

 private:
  static constexpr int kNumBuckets = 1024;
  static int BucketFor(uint64_t value);
  static uint64_t BucketUpperBound(int bucket);

  uint64_t count_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
  double sum_ = 0;
  std::vector<uint64_t> buckets_;
};

}  // namespace dpdpu

#endif  // DPDPU_COMMON_HISTOGRAM_H_
