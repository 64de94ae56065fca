#include "common/rng.hpp"

#include <cmath>
#include <numbers>

#include "common/macros.hpp"

namespace hetsgd {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) {
    s = splitmix64(sm);
  }
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 high bits -> [0, 1) with full double precision.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  HETSGD_ASSERT(bound > 0, "next_below requires bound > 0");
  // Lemire's multiply-shift rejection method.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    std::uint64_t t = -bound % bound;
    while (l < t) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 in (0,1] to keep log finite.
  double u1 = 1.0 - next_double();
  double u2 = next_double();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) {
  return next_double() < p;
}

void Rng::shuffle(std::vector<std::uint32_t>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::size_t j = next_below(i);
    std::swap(v[i - 1], v[j]);
  }
}

void Rng::shuffle(std::vector<std::size_t>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::size_t j = next_below(i);
    std::swap(v[i - 1], v[j]);
  }
}

Rng Rng::fork(std::uint64_t stream) const {
  std::uint64_t seed = s_[0] ^ rotl(s_[2], 29) ^ (stream * 0xd1342543de82ef95ULL);
  return Rng(seed);
}

RngState Rng::state() const {
  RngState st;
  st.s[0] = s_[0];
  st.s[1] = s_[1];
  st.s[2] = s_[2];
  st.s[3] = s_[3];
  st.cached_normal = cached_normal_;
  st.has_cached_normal = has_cached_normal_;
  return st;
}

}  // namespace hetsgd
