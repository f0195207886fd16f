// Property tests over randomly generated addresses and prefixes,
// parameterised by RNG seed. The trie is additionally checked against a
// brute-force reference model.
#include <gtest/gtest.h>

#include <vector>

#include "cellspot/util/rng.hpp"
#include "support/reference_prefix_mask.hpp"
#include "support/reference_prefix_trie.hpp"

namespace cellspot::netaddr {
namespace {

using test_support::PrefixTrie;

IpAddress RandomAddress(util::Rng& rng, bool v6) {
  if (!v6) {
    return IpAddress::V4(static_cast<std::uint32_t>(rng.UniformInt(0, 0xFFFFFFFFULL)));
  }
  std::array<std::uint8_t, 16> bytes{};
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
  return IpAddress::V6(bytes);
}

class NetaddrProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetaddrProperty, AddressTextRoundTrip) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const IpAddress addr = RandomAddress(rng, rng.Chance(0.5));
    const IpAddress parsed = IpAddress::Parse(addr.ToString());
    EXPECT_EQ(parsed, addr) << addr.ToString();
  }
}

TEST_P(NetaddrProperty, PrefixCanonicalAndTextRoundTrip) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const bool v6 = rng.Chance(0.5);
    const IpAddress addr = RandomAddress(rng, v6);
    const int length = static_cast<int>(rng.UniformInt(0, v6 ? 128 : 32));
    const Prefix p(addr, length);
    // Canonical: rebuilding from the stored address is a fixed point.
    EXPECT_EQ(Prefix(p.address(), p.length()), p);
    // The base address is inside its own prefix.
    EXPECT_TRUE(p.Contains(p.address()));
    // Text round trip.
    EXPECT_EQ(Prefix::Parse(p.ToString()), p);
    // Host bits beyond the length are zero.
    for (int bit = length; bit < p.address().bit_width(); ++bit) {
      EXPECT_FALSE(p.address().GetBit(bit));
    }
  }
}

// The constructor's word/byte mask against the per-bit reference, at
// every length of both families. Every address has its last bit set, so
// each length below the family width has host bits to clear.
TEST_P(NetaddrProperty, MaskMatchesPerBitReferenceAtEveryLength) {
  util::Rng rng(GetParam());
  std::vector<IpAddress> addrs;
  for (int i = 0; i < 8; ++i) {
    addrs.push_back(IpAddress::V4(
        static_cast<std::uint32_t>(rng.UniformInt(0, 0xFFFFFFFFULL)) | 1U));
    std::array<std::uint8_t, 16> bytes{};
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.UniformInt(0, 255));
    bytes[15] |= 1U;
    addrs.push_back(IpAddress::V6(bytes));
  }
  const std::size_t built = addrs.size();
  for (std::size_t i = 0; i < built; ++i) {
    addrs.push_back(IpAddress::Parse(addrs[i].ToString()));
  }
  for (const IpAddress zero : {IpAddress::V4(0), IpAddress::V6({})}) {
    for (int i = 0; i < 8; ++i) {
      IpAddress addr = zero.WithBit(zero.bit_width() - 1, true);
      for (int b = 0; b < zero.bit_width(); ++b) {
        if (rng.Chance(0.5)) addr = addr.WithBit(b, true);
      }
      addrs.push_back(addr);
    }
  }

  for (const IpAddress& addr : addrs) {
    for (int length = 0; length <= addr.bit_width(); ++length) {
      const Prefix p(addr, length);
      EXPECT_EQ(p.address(), test_support::MaskAddressPerBit(addr, length))
          << addr.ToString() << "/" << length;
      EXPECT_EQ(p.length(), length);
      EXPECT_EQ(p.address() == addr, length == addr.bit_width())
          << addr.ToString() << "/" << length;
    }
  }
}

TEST_P(NetaddrProperty, CoversIsPartialOrder) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    const IpAddress addr = RandomAddress(rng, rng.Chance(0.3));
    const int width = addr.bit_width();
    const int len_a = static_cast<int>(rng.UniformInt(0, static_cast<std::uint64_t>(width)));
    const int len_b = static_cast<int>(rng.UniformInt(0, static_cast<std::uint64_t>(width)));
    const Prefix a(addr, len_a);
    const Prefix b(addr, len_b);
    // Same base address: the shorter prefix covers the longer.
    EXPECT_EQ(a.Covers(b), len_a <= len_b);
    EXPECT_TRUE(a.Covers(a));
  }
}

TEST_P(NetaddrProperty, BlockEnumerationIsBijective) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const bool v6 = rng.Chance(0.5);
    const int block_bits = v6 ? kIpv6BlockBits : kIpv4BlockBits;
    const int length = block_bits - static_cast<int>(rng.UniformInt(0, 6));
    const Prefix parent(RandomAddress(rng, v6), length);
    const std::uint64_t count = BlockCount(parent);
    const std::uint64_t probe = rng.UniformInt(0, count - 1);
    const Prefix block = NthBlock(parent, probe);
    EXPECT_TRUE(parent.Covers(block));
    EXPECT_TRUE(IsBlock(block));
    // The i-th block's address, mapped back via BlockOf, is itself.
    EXPECT_EQ(BlockOf(block.address()), block);
    // Distinct indices give distinct blocks.
    if (count > 1) {
      const std::uint64_t other = (probe + 1) % count;
      EXPECT_NE(NthBlock(parent, other), block);
    }
  }
}

TEST_P(NetaddrProperty, TrieMatchesBruteForceReference) {
  util::Rng rng(GetParam());
  PrefixTrie<int> trie;
  std::vector<std::pair<Prefix, int>> reference;

  for (int i = 0; i < 300; ++i) {
    const bool v6 = rng.Chance(0.3);
    const IpAddress addr = RandomAddress(rng, v6);
    const int max_len = v6 ? 64 : 28;
    const int length = static_cast<int>(rng.UniformInt(4, static_cast<std::uint64_t>(max_len)));
    const Prefix p(addr, length);
    const int value = static_cast<int>(rng.UniformInt(0, 1 << 20));
    trie.Insert(p, value);
    // Reference keeps the most recent value per prefix.
    bool replaced = false;
    for (auto& [rp, rv] : reference) {
      if (rp == p) {
        rv = value;
        replaced = true;
      }
    }
    if (!replaced) reference.emplace_back(p, value);
  }
  EXPECT_EQ(trie.size(), reference.size());

  for (int i = 0; i < 500; ++i) {
    const bool v6 = rng.Chance(0.3);
    const IpAddress probe = RandomAddress(rng, v6);
    // Brute force: longest covering prefix wins.
    const int* expected = nullptr;
    int best_len = -1;
    for (const auto& [rp, rv] : reference) {
      if (rp.Contains(probe) && rp.length() > best_len) {
        best_len = rp.length();
        expected = &rv;
      }
    }
    const int* actual = trie.LongestMatch(probe);
    if (expected == nullptr) {
      EXPECT_EQ(actual, nullptr);
    } else {
      ASSERT_NE(actual, nullptr);
      EXPECT_EQ(*actual, *expected);
    }
  }

  // Exact lookups agree with the reference for every stored prefix.
  for (const auto& [rp, rv] : reference) {
    const int* found = trie.Exact(rp);
    ASSERT_NE(found, nullptr) << rp.ToString();
    EXPECT_EQ(*found, rv);
  }
}

TEST_P(NetaddrProperty, TrieForEachEnumeratesExactlyStoredSet) {
  util::Rng rng(GetParam() ^ 0x5EED);
  PrefixTrie<int> trie;
  std::vector<Prefix> inserted;
  for (int i = 0; i < 120; ++i) {
    const Prefix p(RandomAddress(rng, rng.Chance(0.4)),
                   static_cast<int>(rng.UniformInt(1, 40)) % 33);
    if (trie.Insert(p, i)) inserted.push_back(p);
  }
  std::size_t visited = 0;
  trie.ForEach([&](const Prefix& p, const int&) {
    ++visited;
    EXPECT_NE(trie.Exact(p), nullptr);
  });
  EXPECT_EQ(visited, trie.size());
  EXPECT_EQ(visited, inserted.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetaddrProperty,
                         ::testing::Values(1u, 42u, 20161224u, 777u, 31337u));

}  // namespace
}  // namespace cellspot::netaddr
