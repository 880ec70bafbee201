// Deterministic random number generation for workloads and simulations.
// All randomness in DPDPU flows through Pcg32 so that every test and
// benchmark is reproducible bit-for-bit from its seed.

#ifndef DPDPU_COMMON_RNG_H_
#define DPDPU_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>

namespace dpdpu {

/// PCG-XSH-RR 64/32: small, fast, statistically strong, and fully
/// deterministic across platforms (unlike std::mt19937 distributions).
class Pcg32 {
 public:
  explicit Pcg32(uint64_t seed = 0x853c49e6748fea9bULL,
                 uint64_t stream = 0xda3e39cb94b95bdbULL);

  /// Uniform 32-bit value.
  uint32_t Next();

  /// Uniform 64-bit value.
  uint64_t Next64();

  /// Uniform in [0, bound). bound must be > 0. Unbiased (rejection
  /// sampling).
  uint32_t NextBounded(uint32_t bound);

  /// Uniform in [lo, hi] inclusive. Requires lo <= hi.
  uint64_t NextRange(uint64_t lo, uint64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Exponentially distributed with the given mean (> 0).
  double NextExponential(double mean);

  /// True with probability p (clamped to [0,1]).
  bool NextBool(double p);

 private:
  uint64_t state_;
  uint64_t inc_;
};

/// Zipfian distribution over {0, ..., n-1} with skew theta in [0, 1),
/// using the Gray et al. computation (the YCSB generator). theta = 0 is
/// uniform; theta -> 1 is maximally skewed.
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double theta);

  uint64_t Next(Pcg32& rng) const;

  uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  double zeta2theta_;
  double rank1_bound_;  // 1 + 0.5^theta: u * zetan_ below it draws rank 1
};

/// Fills `out` with uniformly random bytes (incompressible payload).
void FillRandomBytes(Pcg32& rng, uint8_t* out, size_t n);

}  // namespace dpdpu

#endif  // DPDPU_COMMON_RNG_H_
