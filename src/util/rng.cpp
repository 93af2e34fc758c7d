#include "src/util/rng.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <deque>
#include <mutex>

#include "src/util/constants.hpp"

namespace ironic::util {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// splitmix64, used to expand the single seed into the xoshiro state.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// xoshiro256's state transition is linear over GF(2), and so is a jump:
// a 256x256 bit matrix whose column j is the image of state bit j (word
// j / 64, bit j % 64).
using StateWords = std::array<std::uint64_t, 4>;
using StateMatrix = std::array<StateWords, 256>;

StateWords multiply(const StateMatrix& m, const StateWords& s) {
  StateWords out{};
  for (std::size_t w = 0; w < 4; ++w) {
    for (std::uint64_t bits = s[w]; bits != 0; bits &= bits - 1) {
      const StateWords& column = m[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
      for (std::size_t k = 0; k < 4; ++k) out[k] ^= column[k];
    }
  }
  return out;
}

StateMatrix square(const StateMatrix& m) {
  StateMatrix out{};
  for (std::size_t j = 0; j < out.size(); ++j) out[j] = multiply(m, m[j]);
  return out;
}

// J^(2^k) for k = 0, 1, ..., where J is the jump matrix: built on the
// first stream() call, never at static initialization, and extended only
// as far as the largest count asked for so far. A deque keeps every
// built power at a stable address while later calls extend the table.
struct JumpPowers {
  std::mutex mutex;
  std::deque<StateMatrix> table;
};

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller; reject u1 == 0 to avoid log(0).
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = constants::kTwoPi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double sigma) { return mean + sigma * normal(); }

bool Rng::bernoulli(double p) { return uniform() < p; }

std::uint64_t Rng::below(std::uint64_t n) {
  if (n == 0) return 0;
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~0ull - (~0ull % n);
  std::uint64_t value = 0;
  do {
    value = next_u64();
  } while (value >= limit);
  return value % n;
}

std::vector<bool> Rng::bits(std::size_t n) {
  std::vector<bool> result(n);
  for (std::size_t i = 0; i < n; ++i) result[i] = bernoulli(0.5);
  return result;
}

void Rng::apply_jump(const std::uint64_t (&polynomial)[4]) {
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (const std::uint64_t word : polynomial) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (1ull << bit)) {
        s0 ^= state_[0];
        s1 ^= state_[1];
        s2 ^= state_[2];
        s3 ^= state_[3];
      }
      next_u64();
    }
  }
  state_[0] = s0;
  state_[1] = s1;
  state_[2] = s2;
  state_[3] = s3;
  // A cached Box–Muller half drawn before the jump belongs to the old
  // position in the sequence; the stream after a jump must depend on the
  // state alone.
  has_cached_normal_ = false;
  cached_normal_ = 0.0;
}

void Rng::jump() {
  // Published xoshiro256++ jump polynomial (Blackman & Vigna): advances
  // the state by exactly 2^128 calls of next_u64().
  static constexpr std::uint64_t kJump[4] = {
      0x180ec6d33cfd0abaull, 0xd5a61266f0c9392cull,
      0xa9582618e03fc9aaull, 0x39abdc4529b1661cull};
  apply_jump(kJump);
}

void Rng::long_jump() {
  // Published long-jump polynomial: 2^192 calls of next_u64().
  static constexpr std::uint64_t kLongJump[4] = {
      0x76e15d3efefdcbbfull, 0xc5004e441c522fb3ull,
      0x77710069854ee241ull, 0x39109bb02acbe635ull};
  apply_jump(kLongJump);
}

std::vector<Rng> Rng::split(std::size_t n) const {
  std::vector<Rng> streams;
  streams.reserve(n);
  Rng cursor = *this;
  for (std::size_t i = 0; i < n; ++i) {
    cursor.jump();
    streams.push_back(cursor);
  }
  return streams;
}

void Rng::jump_by(std::uint64_t count) {
  static JumpPowers powers;
  const auto needed = static_cast<std::size_t>(std::bit_width(count));
  std::array<const StateMatrix*, 64> power{};
  {
    const std::lock_guard<std::mutex> lock(powers.mutex);
    if (powers.table.empty() && needed > 0) {
      StateMatrix& jump_matrix = powers.table.emplace_back();
      for (std::size_t j = 0; j < jump_matrix.size(); ++j) {
        Rng basis;
        for (auto& word : basis.state_) word = 0;
        basis.state_[j / 64] = 1ull << (j % 64);
        basis.jump();
        for (std::size_t w = 0; w < 4; ++w) jump_matrix[j][w] = basis.state_[w];
      }
    }
    while (powers.table.size() < needed) powers.table.push_back(square(powers.table.back()));
    for (std::size_t k = 0; k < needed; ++k) power[k] = &powers.table[k];
  }
  StateWords s{state_[0], state_[1], state_[2], state_[3]};
  for (std::size_t k = 0; k < needed; ++k) {
    if ((count >> k) & 1u) s = multiply(*power[k], s);
  }
  for (std::size_t w = 0; w < 4; ++w) state_[w] = s[w];
  // As in apply_jump: the stream after a jump depends on the state alone.
  has_cached_normal_ = false;
  cached_normal_ = 0.0;
}

Rng Rng::stream(std::uint64_t seed, std::uint64_t index) {
  Rng rng(seed);
  rng.jump_by(index + 1);
  return rng;
}

Rng Rng::hashed_stream(std::uint64_t seed, std::uint64_t index) {
  // Fold the index into the seed through one splitmix64 round before the
  // constructor's expansion, so adjacent indices land on unrelated
  // states ((seed, 0) and (seed + 1, anything) differ too: the index is
  // pre-scaled by the splitmix increment, not added raw).
  std::uint64_t s = seed;
  std::uint64_t folded = splitmix64(s) ^ (index * 0x9e3779b97f4a7c15ull);
  return Rng(splitmix64(folded) ^ index);
}

}  // namespace ironic::util
