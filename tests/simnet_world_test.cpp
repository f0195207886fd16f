#include "cellspot/simnet/world.hpp"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "cellspot/simnet/block_allocator.hpp"

namespace cellspot::simnet {
namespace {

using asdb::OperatorKind;

const World& TinyWorld() {
  static const World world = World::Generate(WorldConfig::Tiny());
  return world;
}

TEST(BlockAllocatorTest, SkipsReservedSpace) {
  BlockAllocator alloc;
  for (int i = 0; i < 5000; ++i) {
    const auto p = alloc.NextV4Block();
    EXPECT_FALSE(IsReservedV4Block(p.address().v4_value())) << p.ToString();
    EXPECT_EQ(p.length(), 24);
  }
  EXPECT_EQ(alloc.v4_allocated(), 5000u);
}

TEST(BlockAllocatorTest, V4BlocksAreUnique) {
  BlockAllocator alloc;
  std::unordered_set<netaddr::Prefix> seen;
  for (int i = 0; i < 3000; ++i) EXPECT_TRUE(seen.insert(alloc.NextV4Block()).second);
}

TEST(BlockAllocatorTest, V6BlocksUniqueAndWellFormed) {
  BlockAllocator alloc;
  std::unordered_set<netaddr::Prefix> seen;
  for (int i = 0; i < 3000; ++i) {
    const auto p = alloc.NextV6Block();
    EXPECT_EQ(p.length(), 48);
    EXPECT_TRUE(p.family() == netaddr::Family::kIpv6);
    EXPECT_TRUE(seen.insert(p).second);
  }
}

TEST(ReservedV4, KnownRanges) {
  EXPECT_TRUE(IsReservedV4Block(0x0A000000));  // 10.0.0.0
  EXPECT_TRUE(IsReservedV4Block(0x7F000100));  // 127.0.1.0
  EXPECT_TRUE(IsReservedV4Block(0xC0A80500));  // 192.168.5.0
  EXPECT_TRUE(IsReservedV4Block(0xAC1F0000));  // 172.31.0.0
  EXPECT_TRUE(IsReservedV4Block(0xE0000000));  // 224.0.0.0
  EXPECT_FALSE(IsReservedV4Block(0x08080800));  // 8.8.8.0
  EXPECT_FALSE(IsReservedV4Block(0xCB007200));  // 203.0.114.0
}

TEST(World, GenerationIsDeterministic) {
  const World a = World::Generate(WorldConfig::Tiny());
  const World b = World::Generate(WorldConfig::Tiny());
  ASSERT_EQ(a.subnets().size(), b.subnets().size());
  ASSERT_EQ(a.operators().size(), b.operators().size());
  for (std::size_t i = 0; i < a.subnets().size(); i += 97) {
    EXPECT_EQ(a.subnets()[i].block, b.subnets()[i].block);
    EXPECT_EQ(a.subnets()[i].demand_du, b.subnets()[i].demand_du);
  }
}

TEST(World, BlocksAreUniqueAndIndexed) {
  const World& w = TinyWorld();
  std::unordered_set<netaddr::Prefix> seen;
  for (const Subnet& s : w.subnets()) {
    EXPECT_TRUE(seen.insert(s.block).second) << s.block.ToString();
    const Subnet* found = w.FindSubnet(s.block);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->asn, s.asn);
  }
}

TEST(World, RibAgreesWithSubnets) {
  const World& w = TinyWorld();
  std::size_t checked = 0;
  for (std::size_t i = 0; i < w.subnets().size(); i += 53) {
    const Subnet& s = w.subnets()[i];
    const auto origin = w.rib().OriginOf(netaddr::NthAddress(s.block, 1));
    ASSERT_TRUE(origin.has_value());
    EXPECT_EQ(*origin, s.asn);
    ++checked;
  }
  EXPECT_GT(checked, 10u);
}

TEST(World, OperatorRangesAreContiguousAndExhaustive) {
  const World& w = TinyWorld();
  std::size_t covered = 0;
  for (const OperatorInfo& op : w.operators()) {
    ASSERT_LE(op.subnet_begin, op.subnet_end);
    for (const Subnet& s : w.SubnetsOf(op)) {
      EXPECT_EQ(s.asn, op.asn);
      ++covered;
    }
  }
  EXPECT_EQ(covered, w.subnets().size());
}

TEST(World, EveryOperatorRegisteredInAsDb) {
  const World& w = TinyWorld();
  for (const OperatorInfo& op : w.operators()) {
    const auto* rec = w.as_db().Find(op.asn);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->kind, op.kind);
    EXPECT_FALSE(rec->name.empty());
  }
}

TEST(World, ValidationCarriersChosen) {
  const World& w = TinyWorld();
  const auto carriers = w.validation_carriers();
  ASSERT_GE(carriers.size(), 2u);  // Tiny world may lack a Middle-East mixed op
  std::set<char> labels;
  std::set<asdb::AsNumber> asns;
  for (const auto& c : carriers) {
    labels.insert(c.label);
    asns.insert(c.asn);
    const OperatorInfo* op = w.FindOperator(c.asn);
    ASSERT_NE(op, nullptr);
    EXPECT_EQ(op->validation_label, c.label);
  }
  EXPECT_EQ(labels.size(), carriers.size());  // distinct labels
  EXPECT_EQ(asns.size(), carriers.size());    // distinct operators
}

TEST(World, CellularDemandMatchesConfig) {
  const World& w = TinyWorld();
  double cell = 0.0;
  double total = 0.0;
  for (const Subnet& s : w.subnets()) {
    if (s.truth_cellular) cell += s.demand_du;
    total += s.demand_du;
  }
  const double expected_cell = w.config().TotalCellularDemand();
  // Stray pools add a little; v6 carving preserves totals.
  EXPECT_NEAR(cell / expected_cell, 1.0, 0.05);
  EXPECT_GT(total, cell);
}

TEST(World, CgnatConcentration) {
  // Within every sizable cellular operator, the top 10% of cellular
  // blocks must carry the overwhelming majority of cellular demand.
  const World& w = TinyWorld();
  int checked = 0;
  for (const OperatorInfo& op : w.operators()) {
    if (op.cell_demand_du < 50.0) continue;
    std::vector<double> demands;
    for (const Subnet& s : w.SubnetsOf(op)) {
      if (s.truth_cellular && s.block.family() == netaddr::Family::kIpv4 &&
          s.demand_du > 0.0) {
        demands.push_back(s.demand_du);
      }
    }
    if (demands.size() < 20) continue;
    std::sort(demands.begin(), demands.end(), std::greater<>());
    double top = 0.0;
    double total = 0.0;
    const std::size_t k = demands.size() / 10;
    for (std::size_t i = 0; i < demands.size(); ++i) {
      total += demands[i];
      if (i < k) top += demands[i];
    }
    EXPECT_GT(top / total, 0.80) << op.country_iso;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(World, ProxyOperatorsExistAndTerminate) {
  const World& w = TinyWorld();
  int proxy_ops = 0;
  for (const OperatorInfo& op : w.operators()) {
    if (op.kind != OperatorKind::kMobileProxy) continue;
    ++proxy_ops;
    for (const Subnet& s : w.SubnetsOf(op)) {
      EXPECT_TRUE(s.proxy_terminating);
      EXPECT_FALSE(s.truth_cellular);
      EXPECT_GT(s.demand_du, 0.0);
    }
    const auto* rec = w.as_db().Find(op.asn);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->cls, asdb::AsClass::kContent);
  }
  EXPECT_EQ(proxy_ops, w.config().proxy_as_count);
}

TEST(World, CloudOperatorsMostlyBeaconSilent) {
  const World& w = TinyWorld();
  int cloud_ops = 0;
  for (const OperatorInfo& op : w.operators()) {
    if (op.kind != OperatorKind::kCloudHosting) continue;
    ++cloud_ops;
    int silent = 0;
    int egress = 0;
    for (const Subnet& s : w.SubnetsOf(op)) {
      if (s.beacon_scale == 0.0) ++silent;
      if (s.proxy_terminating) ++egress;
    }
    EXPECT_GT(silent, egress);
    EXPECT_GT(egress, 0);
  }
  EXPECT_EQ(cloud_ops, w.config().cloud_as_count);
}

TEST(World, InactiveCellularBlocksExist) {
  // Allocated-but-dormant cellular space drives Table 3's false
  // negatives; it must exist and carry no demand.
  const World& w = TinyWorld();
  int inactive = 0;
  for (const Subnet& s : w.subnets()) {
    if (s.truth_cellular && s.demand_du == 0.0) {
      ++inactive;
      EXPECT_EQ(s.beacon_scale, 0.0);
      EXPECT_FALSE(s.in_demand_snapshot);
    }
  }
  EXPECT_GT(inactive, 50);
}

TEST(World, CountryOfResolvesProfiles) {
  const World& w = TinyWorld();
  int with_country = 0;
  int infra = 0;
  for (const OperatorInfo& op : w.operators()) {
    for (const Subnet& s : w.SubnetsOf(op)) {
      const CountryProfile* p = w.CountryOf(s);
      if (p == nullptr) {
        ++infra;
      } else {
        ++with_country;
        EXPECT_EQ(p->iso2, op.country_iso);
      }
      break;  // one subnet per operator is enough
    }
  }
  EXPECT_GT(with_country, 0);
  EXPECT_GT(infra, 0);
}

TEST(World, TetherRatesWithinBounds) {
  const World& w = TinyWorld();
  for (const Subnet& s : w.subnets()) {
    if (s.truth_cellular && s.demand_du > 0.0 && s.tether_rate >= 0.0) {
      EXPECT_GE(s.tether_rate, 0.005);
      EXPECT_LE(s.tether_rate, 0.75);
    }
  }
}

TEST(World, MixedShareRoughlyHonoured) {
  const World& w = TinyWorld();
  int mixed = 0;
  int dedicated = 0;
  for (const OperatorInfo& op : w.operators()) {
    if (op.kind == OperatorKind::kMixed) ++mixed;
    if (op.kind == OperatorKind::kDedicatedCellular) ++dedicated;
  }
  EXPECT_GT(mixed, 0);
  EXPECT_GT(dedicated, 0);
}

}  // namespace
}  // namespace cellspot::simnet

namespace cellspot::simnet {
namespace {

TEST(World, TransitAggregatesDoNotStealOrigins) {
  // Backbone ASes announce /10 covers over access space; every block must
  // still resolve to its own origin through longest-prefix match, and
  // addresses outside any /24 but inside a transit cover resolve to the
  // transit AS.
  const World& w = TinyWorld();
  std::set<asdb::AsNumber> routed;  // origins of at least one route
  for (const auto& [prefix, asn] : w.rib().entries()) routed.insert(asn);
  int transit_ops = 0;
  int with_announcements = 0;
  for (const OperatorInfo& op : w.operators()) {
    if (op.kind == asdb::OperatorKind::kTransit) {
      ++transit_ops;
      if (routed.contains(op.asn)) ++with_announcements;
      EXPECT_EQ(op.subnet_begin, op.subnet_end);  // no eyeball blocks
    }
  }
  EXPECT_EQ(transit_ops, w.config().transit_as_count);
  // Colliding aggregates are re-announced by later backbones, so not
  // every transit AS keeps a route — but most must.
  EXPECT_GE(with_announcements * 2, transit_ops);
  for (std::size_t i = 0; i < w.subnets().size(); i += 97) {
    const Subnet& s = w.subnets()[i];
    EXPECT_EQ(w.rib().OriginOf(netaddr::NthAddress(s.block, 3)), s.asn);
  }
}

}  // namespace
}  // namespace cellspot::simnet
