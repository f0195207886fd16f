// Deterministic random-number utilities for the world generator.
//
// Every stochastic component takes an explicit seed so full simulation
// runs are reproducible bit-for-bit; nothing reads global entropy.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

namespace cellspot::util {

/// Names the sequence of draws every seed produces. Bump it whenever a
/// seed's draws change (a new engine, seeding or draw order): the
/// snapshot world key mixes it in, so caches and stream checkpoints
/// written under another stream are never opened.
inline constexpr std::uint64_t kRngStreamVersion = 2;

/// Convenience draws over a xoshiro256** engine. Cheap to construct and
/// copy (callers usually hold one per component, forked via Fork()).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Derive an independent child generator; `stream` distinguishes
  /// multiple children forked from the same parent state.
  [[nodiscard]] Rng Fork(std::uint64_t stream) { return Rng(ForkSeed(stream)); }

  /// The seed Fork(stream) would use, advancing this generator the same
  /// way. Splitting fork-seed derivation from child construction lets a
  /// sequential loop precompute one seed per shard (cheap: one engine
  /// step each) so the shards themselves can then run on any thread —
  /// the per-shard streams, and therefore every draw, are identical to
  /// a plain sequential Fork loop.
  [[nodiscard]] std::uint64_t ForkSeed(std::uint64_t stream) {
    const std::uint64_t base = engine_();
    return base ^ (0x9E3779B97F4A7C15ULL * (stream + 1));
  }

  /// Uniform in [0, 1).
  [[nodiscard]] double UniformDouble() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  /// UniformInt(0, UINT64_MAX) is one raw engine output.
  [[nodiscard]] std::uint64_t UniformInt(std::uint64_t lo, std::uint64_t hi) {
    assert(lo <= hi);
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }

  /// Bernoulli draw.
  [[nodiscard]] bool Chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return UniformDouble() < p;
  }

  /// Poisson draw.
  [[nodiscard]] std::uint64_t Poisson(double mean) {
    if (mean <= 0.0) return 0;
    return std::poisson_distribution<std::uint64_t>(mean)(engine_);
  }

  /// Binomial draw over n trials with success probability p.
  [[nodiscard]] std::uint64_t Binomial(std::uint64_t n, double p) {
    if (n == 0 || p <= 0.0) return 0;
    if (p >= 1.0) return n;
    return std::binomial_distribution<std::uint64_t>(n, p)(engine_);
  }

 private:
  /// xoshiro256** (Blackman and Vigna, prng.di.unimi.it), its four
  /// state words four successive SplitMix64 outputs of the seed, as in
  /// the published reference code. Construction is O(1) and the state
  /// is 32 bytes. A UniformRandomBitGenerator: the std:: distributions
  /// draw from it directly.
  class Engine {
   public:
    using result_type = std::uint64_t;

    explicit Engine(std::uint64_t seed) noexcept {
      for (std::uint64_t& word : s_) {
        std::uint64_t z = (seed += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        word = z ^ (z >> 31);
      }
    }

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept {
      return std::numeric_limits<result_type>::max();
    }

    result_type operator()() noexcept {
      const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
      const std::uint64_t t = s_[1] << 17;
      s_[2] ^= s_[0];
      s_[3] ^= s_[1];
      s_[1] ^= s_[2];
      s_[0] ^= s_[3];
      s_[2] ^= t;
      s_[3] = Rotl(s_[3], 45);
      return result;
    }

   private:
    static constexpr std::uint64_t Rotl(std::uint64_t x, int k) noexcept {
      return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> s_{};
  };

  Engine engine_;
};

/// Zipf sampler over ranks 1..n with exponent s, implemented by inverse
/// transform over the precomputed CDF (n is at most a few hundred
/// thousand in our worlds, so O(n) setup + O(log n) draws is fine).
class ZipfDistribution {
 public:
  ZipfDistribution(std::size_t n, double s) {
    if (n == 0) throw std::invalid_argument("ZipfDistribution: n must be positive");
    cdf_.resize(n);
    double cum = 0.0;
    for (std::size_t k = 1; k <= n; ++k) {
      cum += 1.0 / std::pow(static_cast<double>(k), s);
      cdf_[k - 1] = cum;
    }
    for (double& v : cdf_) v /= cum;
  }

  /// Draw a rank in [0, n): rank 0 is the heaviest element.
  [[nodiscard]] std::size_t Sample(Rng& rng) const {
    const double u = rng.UniformDouble();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) return cdf_.size() - 1;
    return static_cast<std::size_t>(it - cdf_.begin());
  }

  /// Probability mass of rank k (0-based).
  [[nodiscard]] double Pmf(std::size_t k) const {
    if (k >= cdf_.size()) throw std::out_of_range("ZipfDistribution::Pmf");
    return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
  }

  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Weighted index sampler (discrete distribution over arbitrary weights).
class WeightedSampler {
 public:
  explicit WeightedSampler(std::span<const double> weights) {
    if (weights.empty()) throw std::invalid_argument("WeightedSampler: empty weights");
    cdf_.reserve(weights.size());
    double cum = 0.0;
    for (double w : weights) {
      if (w < 0.0) throw std::invalid_argument("WeightedSampler: negative weight");
      cum += w;
      cdf_.push_back(cum);
    }
    if (cum <= 0.0) throw std::invalid_argument("WeightedSampler: zero total weight");
    for (double& v : cdf_) v /= cum;
  }

  [[nodiscard]] std::size_t Sample(Rng& rng) const {
    const double u = rng.UniformDouble();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) return cdf_.size() - 1;
    return static_cast<std::size_t>(it - cdf_.begin());
  }

  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace cellspot::util
