// Deterministic random number generation.
//
// Every stochastic component of the framework (weight init, batch shuffling,
// synthetic data, perf-model jitter) draws from an explicitly-seeded Rng so
// experiments are reproducible bit-for-bit across runs. The generator is
// xoshiro256++, seeded through splitmix64 — fast, high quality, and trivially
// forkable into independent per-worker streams.
#pragma once

#include <cstdint>
#include <vector>

namespace hetsgd {

// splitmix64 step; used for seeding and as a cheap standalone mixer.
std::uint64_t splitmix64(std::uint64_t& state);

// Complete serializable generator state. Checkpoint/resume restores a
// stream mid-sequence, so the Box-Muller cache must travel with the
// xoshiro words — dropping it would shift every subsequent normal() draw.
struct RngState {
  std::uint64_t s[4] = {0, 0, 0, 0};
  double cached_normal = 0.0;
  bool has_cached_normal = false;

  friend bool operator==(const RngState& a, const RngState& b) {
    return a.s[0] == b.s[0] && a.s[1] == b.s[1] && a.s[2] == b.s[2] &&
           a.s[3] == b.s[3] && a.has_cached_normal == b.has_cached_normal &&
           (!a.has_cached_normal || a.cached_normal == b.cached_normal);
  }
  friend bool operator!=(const RngState& a, const RngState& b) {
    return !(a == b);
  }
};

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Returns the next 64 random bits.
  std::uint64_t next_u64();

  // Uniform in [0, 1).
  double next_double();

  // Uniform integer in [0, bound) without modulo bias (Lemire reduction).
  std::uint64_t next_below(std::uint64_t bound);

  // Uniform in [lo, hi).
  double uniform(double lo, double hi);

  // Standard normal via Box-Muller (cached second value).
  double normal();

  // Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  // Bernoulli trial with probability p of true.
  bool bernoulli(double p);

  // Fisher-Yates shuffle of indices [0, n).
  void shuffle(std::vector<std::uint32_t>& v);
  void shuffle(std::vector<std::size_t>& v);

  // Forks an independent generator: deterministic function of this
  // generator's state and `stream`, without perturbing this generator.
  Rng fork(std::uint64_t stream) const;

  // Snapshot for checkpointing. Resume replays the stream from its seed
  // and checks that it lands on the persisted state.
  RngState state() const;

 private:
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace hetsgd
