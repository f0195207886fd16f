#include "cellspot/asdb/serialization.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "cellspot/simnet/world.hpp"
#include "cellspot/util/error.hpp"

namespace cellspot::asdb {
namespace {

AsDatabase SampleDb() {
  AsDatabase db;
  AsRecord a;
  a.asn = 64500;
  a.name = "EXAMPLE-CELL";
  a.country_iso = "US";
  a.continent = geo::Continent::kNorthAmerica;
  a.cls = AsClass::kTransitAccess;
  a.kind = OperatorKind::kDedicatedCellular;
  db.Upsert(a);
  AsRecord b;
  b.asn = 64501;
  b.name = "quoted, name";
  b.country_iso = "";
  b.continent = geo::Continent::kEurope;
  b.cls = AsClass::kContent;
  b.kind = OperatorKind::kMobileProxy;
  db.Upsert(b);
  return db;
}

TEST(AsDbCsv, RoundTrip) {
  const AsDatabase db = SampleDb();
  std::stringstream ss;
  SaveAsDatabaseCsv(db, ss);
  const AsDatabase loaded = LoadAsDatabaseCsv(ss);
  ASSERT_EQ(loaded.size(), 2u);
  const AsRecord* a = loaded.Find(64500);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->name, "EXAMPLE-CELL");
  EXPECT_EQ(a->cls, AsClass::kTransitAccess);
  EXPECT_EQ(a->kind, OperatorKind::kDedicatedCellular);
  EXPECT_EQ(a->continent, geo::Continent::kNorthAmerica);
  const AsRecord* b = loaded.Find(64501);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->name, "quoted, name");  // CSV quoting survives
  EXPECT_EQ(b->kind, OperatorKind::kMobileProxy);
}

TEST(AsDbCsv, RejectsBadInput) {
  std::stringstream no_header("1,2,3\n");
  EXPECT_THROW(LoadAsDatabaseCsv(no_header), ParseError);
  std::stringstream bad_asn("asn,name,country,continent,class,kind\n0,x,US,NA,Content,Mixed\n");
  EXPECT_THROW(LoadAsDatabaseCsv(bad_asn), ParseError);
  std::stringstream bad_class("asn,name,country,continent,class,kind\n5,x,US,NA,Nope,Mixed\n");
  EXPECT_THROW(LoadAsDatabaseCsv(bad_class), ParseError);
  std::stringstream bad_cont("asn,name,country,continent,class,kind\n5,x,US,XX,Content,Mixed\n");
  EXPECT_THROW(LoadAsDatabaseCsv(bad_cont), ParseError);
}

TEST(RibCsv, RoundTrip) {
  const RoutingTable rib({{netaddr::Prefix::Parse("198.51.101.0/24"), 64500},
                          {netaddr::Prefix::Parse("2001:db8::/48"), 64500},
                          {netaddr::Prefix::Parse("198.51.102.0/24"), 64501}});
  std::stringstream ss;
  SaveRoutingTableCsv(rib, ss);
  EXPECT_EQ(ss.str(),
            "prefix,asn\n198.51.101.0/24,64500\n198.51.102.0/24,64501\n"
            "2001:db8::/48,64500\n");
  const RoutingTable loaded = LoadRoutingTableCsv(ss);
  EXPECT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.OriginOf(netaddr::IpAddress::Parse("198.51.101.9")), 64500u);
  EXPECT_EQ(loaded.OriginOf(netaddr::IpAddress::Parse("2001:db8::1")), 64500u);
  EXPECT_EQ(loaded.OriginOf(netaddr::IpAddress::Parse("198.51.102.9")), 64501u);
}

TEST(RibCsv, RoundTripKeepsOriginsWithoutRecords) {
  // The RIB file is written from the table alone: an origin that no AS
  // database record names keeps its routes.
  const AsDatabase db = SampleDb();
  ASSERT_EQ(db.Find(64999), nullptr);
  const RoutingTable rib({{netaddr::Prefix::Parse("198.51.101.0/24"), 64500},
                          {netaddr::Prefix::Parse("203.0.113.0/24"), 64999}});
  std::stringstream ss;
  SaveRoutingTableCsv(rib, ss);
  const RoutingTable loaded = LoadRoutingTableCsv(ss);
  EXPECT_TRUE(std::ranges::equal(loaded.entries(), rib.entries()));
  EXPECT_EQ(loaded.OriginOf(netaddr::IpAddress::Parse("203.0.113.7")), 64999u);
}

TEST(RibCsv, RejectsBadInput) {
  std::stringstream bad_header("a,b\n");
  EXPECT_THROW(LoadRoutingTableCsv(bad_header), ParseError);
  std::stringstream bad_prefix("prefix,asn\nnot-a-prefix,5\n");
  EXPECT_THROW(LoadRoutingTableCsv(bad_prefix), ParseError);
  std::stringstream bad_asn("prefix,asn\n10.0.0.0/24,zero\n");
  EXPECT_THROW(LoadRoutingTableCsv(bad_asn), ParseError);
}

TEST(EnumNames, RoundTripAll) {
  for (AsClass c : {AsClass::kUnknown, AsClass::kEnterprise, AsClass::kContent,
                    AsClass::kTransitAccess}) {
    EXPECT_EQ(AsClassFromName(AsClassName(c)), c);
  }
  for (OperatorKind k :
       {OperatorKind::kDedicatedCellular, OperatorKind::kMixed, OperatorKind::kFixedOnly,
        OperatorKind::kCloudHosting, OperatorKind::kMobileProxy, OperatorKind::kTransit}) {
    EXPECT_EQ(OperatorKindFromName(OperatorKindName(k)), k);
  }
  EXPECT_FALSE(AsClassFromName("bogus").has_value());
  EXPECT_FALSE(OperatorKindFromName("bogus").has_value());
}

TEST(WorldExport, FullWorldRoundTrip) {
  // A generated world's AS database and RIB survive a CSV round trip
  // with origins intact — the CLI's generate/analyze contract.
  const simnet::World world = simnet::World::Generate(simnet::WorldConfig::Tiny());
  std::stringstream db_ss;
  std::stringstream rib_ss;
  SaveAsDatabaseCsv(world.as_db(), db_ss);
  SaveRoutingTableCsv(world.rib(), rib_ss);
  const AsDatabase db = LoadAsDatabaseCsv(db_ss);
  const RoutingTable rib = LoadRoutingTableCsv(rib_ss);
  EXPECT_EQ(db.size(), world.as_db().size());
  EXPECT_TRUE(std::ranges::equal(rib.entries(), world.rib().entries()));
  for (std::size_t i = 0; i < world.subnets().size(); i += 101) {
    const auto& s = world.subnets()[i];
    EXPECT_EQ(rib.OriginOf(netaddr::NthAddress(s.block, 1)), s.asn);
  }
}

}  // namespace
}  // namespace cellspot::asdb
