#include "cellspot/util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace cellspot::util {
namespace {

// The published reference code (prng.di.unimi.it: splitmix64.c and
// xoshiro256starstar.c), transcribed as it is written there.
struct ReferenceXoshiro256StarStar {
  std::uint64_t x;  // SplitMix64 state
  std::uint64_t s[4];

  std::uint64_t SplitMix64Next() {
    std::uint64_t z = (x += 0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9;
    z = (z ^ (z >> 27)) * 0x94d049bb133111eb;
    return z ^ (z >> 31);
  }

  static std::uint64_t rotl(const std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  explicit ReferenceXoshiro256StarStar(std::uint64_t seed) : x(seed) {
    for (std::uint64_t& word : s) word = SplitMix64Next();
  }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
  }
};

constexpr std::uint64_t kAllBits = std::numeric_limits<std::uint64_t>::max();

TEST(Rng, RawDrawsMatchTheReferenceXoshiro256StarStar) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{42}, std::uint64_t{20161224},
        std::uint64_t{0x9E3779B97F4A7C15}, kAllBits}) {
    SCOPED_TRACE(seed);
    ReferenceXoshiro256StarStar reference(seed);
    Rng rng(seed);
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(rng.UniformInt(0, kAllBits), reference.next()) << i;
  }
}

TEST(Rng, SeedFingerprints) {
  const auto first_three = [](std::uint64_t seed) {
    Rng rng(seed);
    return std::array<std::uint64_t, 3>{rng.UniformInt(0, kAllBits), rng.UniformInt(0, kAllBits),
                                        rng.UniformInt(0, kAllBits)};
  };
  EXPECT_EQ(first_three(0), (std::array<std::uint64_t, 3>{
                                0x99ec5f36cb75f2b4, 0xbf6e1f784956452a, 0x1a5f849d4933e6e0}));
  EXPECT_EQ(first_three(20161224),
            (std::array<std::uint64_t, 3>{0x37086d0701612c79, 0x8b7cd1f53fc3914e,
                                          0x1d470015c425d5b9}));
}

TEST(Rng, ForkAdvancesTheParentExactlyOneDraw) {
  Rng forked(7);
  Rng stepped(7);
  (void)forked.Fork(3);
  (void)stepped.UniformInt(0, kAllBits);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(forked.UniformInt(0, kAllBits), stepped.UniformInt(0, kAllBits)) << i;
  }
  // ForkSeed is the same one step, and Fork(s) is Rng(ForkSeed(s)).
  Rng a(7);
  Rng b(7);
  Rng child = a.Fork(3);
  Rng same(b.ForkSeed(3));
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(child.UniformInt(0, kAllBits), same.UniformInt(0, kAllBits)) << i;
  }
  EXPECT_EQ(a.UniformInt(0, kAllBits), b.UniformInt(0, kAllBits));
}

TEST(Rng, CopyContinuesIdenticallyAndIndependently) {
  Rng original(99);
  for (int i = 0; i < 10; ++i) (void)original.UniformDouble();
  Rng copy = original;
  std::vector<std::uint64_t> from_copy;
  for (int i = 0; i < 50; ++i) from_copy.push_back(copy.UniformInt(0, kAllBits));
  // Drawing from the copy left the original where it was, so the
  // original now draws the same values.
  for (int i = 0; i < 50; ++i) ASSERT_EQ(original.UniformInt(0, kAllBits), from_copy[i]) << i;
  // And the reverse: advancing the original leaves the copy alone.
  const Rng before = copy;
  for (int i = 0; i < 50; ++i) (void)original.UniformInt(0, kAllBits);
  Rng replay = before;
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(copy.UniformInt(0, kAllBits), replay.UniformInt(0, kAllBits)) << i;
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.UniformDouble(), b.UniformDouble());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformDouble() == b.UniformDouble()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.UniformInt(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  EXPECT_FALSE(rng.Chance(0.0));
  EXPECT_TRUE(rng.Chance(1.0));
  EXPECT_FALSE(rng.Chance(-0.5));
  EXPECT_TRUE(rng.Chance(1.5));
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ForkIsIndependentOfStream) {
  Rng parent(99);
  Rng c0 = parent.Fork(0);
  Rng parent2(99);
  Rng c1 = parent2.Fork(1);
  // Different streams from identical parents must diverge.
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (c0.UniformDouble() == c1.UniformDouble()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Zipf, RejectsEmpty) {
  EXPECT_THROW(ZipfDistribution(0, 1.0), std::invalid_argument);
}

TEST(Zipf, PmfSumsToOne) {
  ZipfDistribution z(100, 1.1);
  double sum = 0.0;
  for (std::size_t k = 0; k < z.size(); ++k) sum += z.Pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, HeadDominates) {
  ZipfDistribution z(1000, 1.2);
  EXPECT_GT(z.Pmf(0), z.Pmf(1));
  EXPECT_GT(z.Pmf(1), z.Pmf(10));
  EXPECT_GT(z.Pmf(10), z.Pmf(500));
}

TEST(Zipf, SampleDistributionMatchesPmf) {
  ZipfDistribution z(50, 1.0);
  Rng rng(5);
  std::vector<int> counts(50, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[z.Sample(rng)];
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, z.Pmf(0), 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, z.Pmf(1), 0.01);
}

TEST(Zipf, PmfOutOfRangeThrows) {
  ZipfDistribution z(10, 1.0);
  EXPECT_THROW((void)z.Pmf(10), std::out_of_range);
}

TEST(WeightedSampler, RejectsBadWeights) {
  EXPECT_THROW(WeightedSampler(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(WeightedSampler(std::vector<double>{1.0, -1.0}), std::invalid_argument);
  EXPECT_THROW(WeightedSampler(std::vector<double>{0.0, 0.0}), std::invalid_argument);
}

TEST(WeightedSampler, ZeroWeightNeverSampled) {
  const std::vector<double> w{0.0, 1.0, 0.0};
  WeightedSampler s(w);
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(s.Sample(rng), 1u);
}

TEST(WeightedSampler, ProportionalSampling) {
  const std::vector<double> w{1.0, 3.0};
  WeightedSampler s(w);
  Rng rng(17);
  int ones = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) ones += s.Sample(rng) == 1 ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.02);
}

}  // namespace
}  // namespace cellspot::util
