#include "common/rng.h"

#include <cmath>

namespace dpdpu {

Pcg32::Pcg32(uint64_t seed, uint64_t stream) {
  inc_ = (stream << 1u) | 1u;
  state_ = 0;
  Next();
  state_ += seed;
  Next();
}

uint32_t Pcg32::Next() {
  uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  uint32_t xorshifted = static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
  uint32_t rot = static_cast<uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

uint64_t Pcg32::Next64() {
  uint64_t hi = Next();
  return (hi << 32) | Next();
}

uint32_t Pcg32::NextBounded(uint32_t bound) {
  if (bound <= 1) return 0;
  // Rejection sampling to avoid modulo bias.
  uint32_t threshold = (-bound) % bound;
  for (;;) {
    uint32_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

double Pcg32::NextDouble() {
  return Next() * (1.0 / 4294967296.0);
}

double Pcg32::NextExponential(double mean) {
  double u = NextDouble();
  // Guard against log(0).
  if (u <= 0.0) u = 1e-12;
  return -mean * std::log(u);
}

bool Pcg32::NextBool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

namespace {

double Zeta(uint64_t n, double theta) {
  double sum = 0;
  for (uint64_t i = 1; i <= n; ++i) sum += 1.0 / std::pow(double(i), theta);
  return sum;
}

}  // namespace

ZipfGenerator::ZipfGenerator(uint64_t n, double theta)
    : n_(n == 0 ? 1 : n), theta_(theta) {
  zetan_ = Zeta(n_, theta_);
  zeta2theta_ = Zeta(2, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / double(n_), 1.0 - theta_)) /
         (1.0 - zeta2theta_ / zetan_);
  rank1_bound_ = 1.0 + std::pow(0.5, theta_);
}

uint64_t ZipfGenerator::Next(Pcg32& rng) const {
  double u = rng.NextDouble();
  double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < rank1_bound_) return 1;
  uint64_t v = static_cast<uint64_t>(
      double(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  if (v >= n_) v = n_ - 1;
  return v;
}

void FillRandomBytes(Pcg32& rng, uint8_t* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    uint32_t v = rng.Next();
    out[i] = static_cast<uint8_t>(v);
    out[i + 1] = static_cast<uint8_t>(v >> 8);
    out[i + 2] = static_cast<uint8_t>(v >> 16);
    out[i + 3] = static_cast<uint8_t>(v >> 24);
  }
  for (; i < n; ++i) out[i] = static_cast<uint8_t>(rng.Next());
}

}  // namespace dpdpu
