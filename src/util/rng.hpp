// Deterministic pseudo-random number generation for all stochastic components.
//
// Every stochastic object in the library (circuit generator, locking schemes,
// GA operators, attack training) takes an explicit 64-bit seed and derives its
// randomness from an Rng instance, so every experiment is reproducible
// bit-for-bit across runs and platforms.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace autolock::util {

/// SplitMix64: used to expand a single seed into a full xoshiro state.
/// Reference: Sebastiano Vigna, public-domain reference implementation.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** — fast, high-quality 64-bit PRNG with 256-bit state.
/// Satisfies the UniformRandomBitGenerator concept so it can also be used
/// with <random> distributions where convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xA07010CCULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Uses Lemire's multiply-shift rejection
  /// method for unbiased results. Precondition: bound > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    if (bound == 0) throw std::invalid_argument("Rng::next_below: bound == 0");
    // Lemire's method.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in the inclusive range [lo, hi].
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) throw std::invalid_argument("Rng::next_in: lo > hi");
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next_below(span));
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool next_bool(double p = 0.5) noexcept { return next_double() < p; }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = next_below(i);
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  template <typename T>
  void shuffle(std::vector<T>& items) {
    shuffle(std::span<T>(items));
  }

  /// k distinct indices sampled uniformly from [0, n) (order randomized).
  /// Precondition: k <= n.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  /// Pick one element of a non-empty span uniformly at random.
  template <typename T>
  const T& pick(std::span<const T> items) {
    if (items.empty()) throw std::invalid_argument("Rng::pick: empty span");
    return items[next_below(items.size())];
  }

  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return pick(std::span<const T>(items));
  }

  /// Derive an independent child generator (for giving subcomponents their
  /// own deterministic stream).
  Rng fork() noexcept { return Rng((*this)() ^ 0x5851F42D4C957F2DULL); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace autolock::util
