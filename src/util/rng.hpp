// Deterministic random number generation.
//
// Every stochastic element in the library (sensor noise, channel noise,
// jitter) draws from an explicitly seeded Rng so that tests and benches
// are bit-reproducible across runs and machines.
#pragma once

#include <cstdint>
#include <vector>

namespace ironic::util {

// xoshiro256++ — small, fast, and statistically strong; deterministic
// across platforms (unlike std::mt19937 + std::normal_distribution whose
// stream is implementation-defined for floating-point distributions).
//
// Stream splitting for parallel work: jump() advances the state by 2^128
// draws (the published xoshiro256++ jump polynomial), so split(n) hands
// out n generators whose output segments cannot overlap for any feasible
// draw count. Task i always draws from stream i regardless of which
// worker thread executes it — parallel sweeps are bit-identical to
// serial. A single Rng instance is NOT thread-safe; give each task its
// own stream instead of sharing one generator behind a lock.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x1234abcd5678ef00ull);

  // Uniform in [0, 2^64).
  std::uint64_t next_u64();
  // Uniform in [0, 1).
  double uniform();
  // Uniform in [lo, hi).
  double uniform(double lo, double hi);
  // Standard normal via Box–Muller (deterministic, cached pair).
  double normal();
  // Normal with the given mean and standard deviation.
  double normal(double mean, double sigma);
  // Bernoulli with probability p of true.
  bool bernoulli(double p);
  // Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n);
  // A vector of `n` random bits, for test bitstreams.
  std::vector<bool> bits(std::size_t n);

  // Advance the state by 2^128 draws (discards the Box–Muller cache so
  // the post-jump stream is a clean function of the state alone).
  void jump();
  // Advance by 2^192 draws, for partitioning across whole machines.
  void long_jump();
  // n non-overlapping streams: the i-th result is this generator's state
  // advanced by (i+1) jumps. The parent is left untouched and may keep
  // drawing — it stays at least 2^128 draws clear of every child.
  std::vector<Rng> split(std::size_t n) const;
  // Convenience for task fan-out: the generator for stream `index` of the
  // family seeded by `seed` (== Rng(seed).split(index + 1).back()). It
  // applies the index + 1 jumps as O(log index) products with powers of
  // the jump matrix, bit for bit equal to jumping that many times.
  static Rng stream(std::uint64_t seed, std::uint64_t index);
  // O(1) keyed stream derivation for fleet-scale fan-out: stream() costs
  // O(log index) 256x256 bit-matrix products plus, on first use, the
  // matrix powers themselves. hashed_stream mixes (seed, index) through
  // splitmix64 into a fresh generator state instead — constant cost per
  // stream, still bit-reproducible and thread-count independent. The
  // streams are statistically independent rather than provably
  // non-overlapping; call split() on the result when a session needs
  // provably disjoint sub-streams.
  static Rng hashed_stream(std::uint64_t seed, std::uint64_t index);

 private:
  void apply_jump(const std::uint64_t (&polynomial)[4]);
  // Advance by `count` jumps at once (see stream()).
  void jump_by(std::uint64_t count);

  std::uint64_t state_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace ironic::util
