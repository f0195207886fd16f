#include "cellspot/asdb/as_database.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

namespace cellspot::asdb {
namespace {

using netaddr::IpAddress;
using netaddr::Prefix;

AsRecord MakeRecord(AsNumber asn, OperatorKind kind = OperatorKind::kMixed) {
  AsRecord r;
  r.asn = asn;
  r.name = "AS-" + std::to_string(asn);
  r.country_iso = "US";
  r.continent = geo::Continent::kNorthAmerica;
  r.cls = AsClass::kTransitAccess;
  r.kind = kind;
  return r;
}

TEST(AsDatabase, UpsertAndFind) {
  AsDatabase db;
  db.Upsert(MakeRecord(7018));
  ASSERT_NE(db.Find(7018), nullptr);
  EXPECT_EQ(db.Find(7018)->name, "AS-7018");
  EXPECT_EQ(db.Find(1), nullptr);
  EXPECT_EQ(db.size(), 1u);
}

TEST(AsDatabase, UpsertReplacesInPlace) {
  AsDatabase db;
  db.Upsert(MakeRecord(100, OperatorKind::kFixedOnly));
  auto updated = MakeRecord(100, OperatorKind::kMixed);
  updated.name = "renamed";
  db.Upsert(std::move(updated));
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.Find(100)->name, "renamed");
  EXPECT_EQ(db.Find(100)->kind, OperatorKind::kMixed);
}

TEST(AsDatabase, RejectsAsnZero) {
  AsDatabase db;
  EXPECT_THROW(db.Upsert(MakeRecord(0)), std::invalid_argument);
}

TEST(AsDatabase, RecordsPreserveInsertionOrder) {
  AsDatabase db;
  db.Upsert(MakeRecord(3));
  db.Upsert(MakeRecord(1));
  db.Upsert(MakeRecord(2));
  const auto records = db.records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].asn, 3u);
  EXPECT_EQ(records[1].asn, 1u);
  EXPECT_EQ(records[2].asn, 2u);
}

TEST(AsClassNames, Stable) {
  EXPECT_EQ(AsClassName(AsClass::kTransitAccess), "Transit/Access");
  EXPECT_EQ(AsClassName(AsClass::kContent), "Content");
  EXPECT_EQ(OperatorKindName(OperatorKind::kMobileProxy), "MobileProxy");
}

TEST(RoutingTable, OriginLookupLpm) {
  const RoutingTable rib({{Prefix::Parse("10.0.0.0/8"), 100},
                          {Prefix::Parse("10.5.0.0/16"), 200}});
  EXPECT_EQ(rib.OriginOf(IpAddress::Parse("10.5.1.1")), 200u);
  EXPECT_EQ(rib.OriginOf(IpAddress::Parse("10.9.1.1")), 100u);
  EXPECT_FALSE(rib.OriginOf(IpAddress::Parse("11.0.0.1")).has_value());
}

TEST(RoutingTable, ReannouncementMovesPrefix) {
  const auto p = Prefix::Parse("198.51.100.0/24");
  const RoutingTable rib({{p, 1}, {p, 2}});
  EXPECT_EQ(rib.OriginOf(IpAddress::Parse("198.51.100.9")), 2u);
  ASSERT_EQ(rib.entries().size(), 1u);
  EXPECT_EQ(rib.entries()[0], (RoutingTable::Route{p, 2}));
  EXPECT_EQ(rib.size(), 1u);
}

TEST(RoutingTable, IdempotentReannouncement) {
  const auto p = Prefix::Parse("198.51.100.0/24");
  const RoutingTable rib({{p, 7}, {p, 7}});
  EXPECT_EQ(rib.size(), 1u);
  EXPECT_EQ(rib.entries()[0], (RoutingTable::Route{p, 7}));
}

TEST(RoutingTable, MixedFamilies) {
  const RoutingTable rib({{Prefix::Parse("203.0.113.0/24"), 10},
                          {Prefix::Parse("2001:db8::/32"), 20}});
  EXPECT_EQ(rib.OriginOf(IpAddress::Parse("203.0.113.5")), 10u);
  EXPECT_EQ(rib.OriginOf(IpAddress::Parse("2001:db8:1:2::3")), 20u);
  EXPECT_FALSE(rib.OriginOf(IpAddress::Parse("2001:db9::1")).has_value());
}

TEST(RoutingTable, ReannounceChurnDropsEmptiedOrigins) {
  // Moving an origin's last prefix leaves no trace of that origin: only
  // the last announcement of each prefix is a route.
  const auto p = Prefix::Parse("198.51.100.0/24");
  std::vector<RoutingTable::Route> churn;
  for (AsNumber asn = 1; asn <= 100; ++asn) churn.emplace_back(p, asn);
  const RoutingTable rib(churn);
  ASSERT_EQ(rib.size(), 1u);
  EXPECT_EQ(rib.entries()[0], (RoutingTable::Route{p, 100}));
  EXPECT_EQ(rib.OriginOf(IpAddress::Parse("198.51.100.1")), 100u);

  // An origin with other prefixes survives a partial withdrawal.
  churn.emplace_back(Prefix::Parse("10.0.0.0/24"), 100);
  churn.emplace_back(p, 7);
  const RoutingTable moved(churn);
  EXPECT_EQ(moved.entries()[0], (RoutingTable::Route{Prefix::Parse("10.0.0.0/24"), 100}));
  EXPECT_EQ(moved.entries()[1], (RoutingTable::Route{p, 7}));
  EXPECT_EQ(moved.size(), 2u);
}

TEST(RoutingTable, EntriesAreInPrefixOrderWhateverTheInputOrder) {
  const std::vector<RoutingTable::Route> sorted = {
      {Prefix::Parse("10.0.0.0/8"), 1},      {Prefix::Parse("10.0.0.0/16"), 2},
      {Prefix::Parse("10.128.0.0/9"), 3},    {Prefix::Parse("192.0.2.0/24"), 4},
      {Prefix::Parse("2001:db8::/32"), 5},   {Prefix::Parse("2001:db8::/48"), 6},
  };
  std::vector<RoutingTable::Route> shuffled = {sorted[4], sorted[2], sorted[5],
                                               sorted[0], sorted[3], sorted[1]};
  const RoutingTable from_sorted(sorted);
  const RoutingTable from_shuffled(shuffled);
  EXPECT_TRUE(std::ranges::equal(from_sorted.entries(), sorted));
  EXPECT_TRUE(std::ranges::equal(from_shuffled.entries(), sorted));
  EXPECT_EQ(from_shuffled.Flat().Encode(), from_sorted.Flat().Encode());
}

TEST(RoutingTable, FlatEngineBuiltOnFirstUse) {
  const RoutingTable rib({{Prefix::Parse("203.0.113.0/24"), 10},
                          {Prefix::Parse("203.0.113.128/25"), 20}});
  EXPECT_FALSE(rib.has_flat());
  EXPECT_EQ(*rib.Flat().LongestMatch(IpAddress::Parse("203.0.113.9")), 10u);
  EXPECT_TRUE(rib.has_flat());
  EXPECT_EQ(rib.OriginOf(IpAddress::Parse("203.0.113.200")), 20u);
  EXPECT_EQ(*rib.Flat().LongestMatch(IpAddress::Parse("203.0.113.200")), 20u);
}

TEST(RoutingTable, BatchLookupMatchesSingleWithZeroForUnrouted) {
  const RoutingTable rib({{Prefix::Parse("203.0.113.0/24"), 10},
                          {Prefix::Parse("2001:db8::/32"), 20}});
  const std::vector<netaddr::IpAddress> addrs = {
      IpAddress::Parse("203.0.113.5"), IpAddress::Parse("198.51.100.1"),
      IpAddress::Parse("2001:db8::1"), IpAddress::Parse("2001:db9::1")};
  std::vector<AsNumber> origins(addrs.size());
  rib.OriginOfBatch(addrs, origins);
  EXPECT_EQ(origins, (std::vector<AsNumber>{10, 0, 20, 0}));
}

TEST(RoutingTable, CopyAndMoveKeepLookupsConsistent) {
  RoutingTable rib({{Prefix::Parse("203.0.113.0/24"), 10}});
  (void)rib.Flat();  // compiled engine present before copy/move

  RoutingTable copy(rib);
  EXPECT_EQ(copy.OriginOf(IpAddress::Parse("203.0.113.5")), 10u);
  copy = RoutingTable({{Prefix::Parse("203.0.113.0/24"), 10},
                       {Prefix::Parse("198.51.100.0/24"), 11}});
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(rib.size(), 1u);

  RoutingTable moved(std::move(copy));
  EXPECT_EQ(moved.OriginOf(IpAddress::Parse("198.51.100.5")), 11u);
  EXPECT_EQ(moved.OriginOf(IpAddress::Parse("203.0.113.5")), 10u);

  // Moving a table with a compiled engine transfers it intact.
  RoutingTable moved_hot(std::move(rib));
  EXPECT_TRUE(moved_hot.has_flat());
  EXPECT_EQ(moved_hot.OriginOf(IpAddress::Parse("203.0.113.5")), 10u);
}

}  // namespace
}  // namespace cellspot::asdb
