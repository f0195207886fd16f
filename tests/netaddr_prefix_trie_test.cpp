// Unit tests of the reference trie the LPM differential tests compare
// against.
#include "support/reference_prefix_trie.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

namespace cellspot::netaddr {
namespace {

using test_support::PrefixTrie;

TEST(PrefixTrie, EmptyLookups) {
  PrefixTrie<int> trie;
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.LongestMatch(IpAddress::Parse("10.0.0.1")), nullptr);
  EXPECT_EQ(trie.Exact(Prefix::Parse("10.0.0.0/24")), nullptr);
}

TEST(PrefixTrie, InsertAndExact) {
  PrefixTrie<int> trie;
  EXPECT_TRUE(trie.Insert(Prefix::Parse("10.0.0.0/24"), 7));
  ASSERT_NE(trie.Exact(Prefix::Parse("10.0.0.0/24")), nullptr);
  EXPECT_EQ(*trie.Exact(Prefix::Parse("10.0.0.0/24")), 7);
  EXPECT_EQ(trie.size(), 1u);
}

TEST(PrefixTrie, OverwriteReturnsFalse) {
  PrefixTrie<int> trie;
  EXPECT_TRUE(trie.Insert(Prefix::Parse("10.0.0.0/24"), 1));
  EXPECT_FALSE(trie.Insert(Prefix::Parse("10.0.0.0/24"), 2));
  EXPECT_EQ(*trie.Exact(Prefix::Parse("10.0.0.0/24")), 2);
  EXPECT_EQ(trie.size(), 1u);
}

TEST(PrefixTrie, LongestMatchPrefersSpecific) {
  PrefixTrie<std::string> trie;
  trie.Insert(Prefix::Parse("10.0.0.0/8"), "coarse");
  trie.Insert(Prefix::Parse("10.1.0.0/16"), "mid");
  trie.Insert(Prefix::Parse("10.1.2.0/24"), "fine");
  EXPECT_EQ(*trie.LongestMatch(IpAddress::Parse("10.1.2.3")), "fine");
  EXPECT_EQ(*trie.LongestMatch(IpAddress::Parse("10.1.9.9")), "mid");
  EXPECT_EQ(*trie.LongestMatch(IpAddress::Parse("10.9.9.9")), "coarse");
  EXPECT_EQ(trie.LongestMatch(IpAddress::Parse("11.0.0.1")), nullptr);
}

TEST(PrefixTrie, LongestMatchWithLength) {
  PrefixTrie<int> trie;
  trie.Insert(Prefix::Parse("10.0.0.0/8"), 8);
  trie.Insert(Prefix::Parse("10.1.0.0/16"), 16);
  const auto m = trie.LongestMatchWithLength(IpAddress::Parse("10.1.5.5"));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->first, 16);
  EXPECT_EQ(*m->second, 16);
  EXPECT_FALSE(trie.LongestMatchWithLength(IpAddress::Parse("12.0.0.1")).has_value());
}

TEST(PrefixTrie, DefaultRouteMatchesEverything) {
  PrefixTrie<int> trie;
  trie.Insert(Prefix(IpAddress::V4(0), 0), 42);
  EXPECT_EQ(*trie.LongestMatch(IpAddress::Parse("8.8.8.8")), 42);
  // v6 root is separate; the v4 default must not leak.
  EXPECT_EQ(trie.LongestMatch(IpAddress::Parse("2001:db8::1")), nullptr);
}

TEST(PrefixTrie, FamiliesAreIsolated) {
  PrefixTrie<int> trie;
  trie.Insert(Prefix::Parse("2001:db8::/48"), 6);
  trie.Insert(Prefix::Parse("32.1.13.0/24"), 4);  // 0x2001:0db8 as v4 bytes
  EXPECT_EQ(*trie.LongestMatch(IpAddress::Parse("2001:db8::99")), 6);
  EXPECT_EQ(*trie.LongestMatch(IpAddress::Parse("32.1.13.7")), 4);
}

TEST(PrefixTrie, ForEachVisitsAll) {
  PrefixTrie<int> trie;
  trie.Insert(Prefix::Parse("10.0.0.0/24"), 1);
  trie.Insert(Prefix::Parse("10.0.1.0/24"), 2);
  trie.Insert(Prefix::Parse("2001:db8::/48"), 3);
  std::map<std::string, int> seen;
  trie.ForEach([&](const Prefix& p, const int& v) { seen[p.ToString()] = v; });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen["10.0.0.0/24"], 1);
  EXPECT_EQ(seen["10.0.1.0/24"], 2);
  EXPECT_EQ(seen["2001:db8::/48"], 3);
}

TEST(PrefixTrie, ManyPrefixesStressLookups) {
  PrefixTrie<std::uint32_t> trie;
  // 1024 /24s under 10.0.0.0/14.
  const auto parent = Prefix::Parse("10.0.0.0/14");
  for (std::uint64_t i = 0; i < BlockCount(parent); ++i) {
    trie.Insert(NthBlock(parent, i), static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(trie.size(), 1024u);
  for (std::uint64_t i = 0; i < 1024; i += 37) {
    const auto block = NthBlock(parent, i);
    const auto addr = NthAddress(block, 200);
    ASSERT_NE(trie.LongestMatch(addr), nullptr);
    EXPECT_EQ(*trie.LongestMatch(addr), i);
  }
}

struct MoveOnly {
  explicit MoveOnly(int v) : value(v) {}
  MoveOnly(MoveOnly&&) = default;
  MoveOnly& operator=(MoveOnly&&) = default;
  int value;
};

TEST(PrefixTrie, SupportsMoveOnlyValues) {
  PrefixTrie<MoveOnly> trie;
  trie.Insert(Prefix::Parse("10.0.0.0/24"), MoveOnly(9));
  EXPECT_EQ(trie.LongestMatch(IpAddress::Parse("10.0.0.5"))->value, 9);
}

}  // namespace
}  // namespace cellspot::netaddr
