#include "cellspot/core/as_pipeline.hpp"

#include <gtest/gtest.h>

#include "cellspot/core/sharded_aggregation.hpp"
#include "cellspot/exec/executor.hpp"

namespace cellspot::core {
namespace {

using dataset::BeaconBlockStats;
using netaddr::Prefix;

BeaconBlockStats Stats(std::uint64_t hits, std::uint64_t netinfo, std::uint64_t cellular) {
  BeaconBlockStats s;
  s.hits = hits;
  s.netinfo_hits = netinfo;
  s.cellular_labels = cellular;
  s.wifi_labels = netinfo - cellular;
  return s;
}

struct Fixture {
  std::vector<asdb::RoutingTable::Route> announcements;
  asdb::AsDatabase as_db;
  dataset::BeaconDataset beacons;
  dataset::DemandDataset demand;

  void AddAs(asdb::AsNumber asn, asdb::AsClass cls) {
    asdb::AsRecord r;
    r.asn = asn;
    r.name = "AS" + std::to_string(asn);
    r.cls = cls;
    as_db.Upsert(std::move(r));
  }

  void AddBlock(const char* prefix, asdb::AsNumber asn, BeaconBlockStats stats, double du) {
    const auto block = Prefix::Parse(prefix);
    announcements.emplace_back(block, asn);
    if (stats.hits > 0) beacons.Add(block, stats);
    if (du > 0.0) demand.Add(block, du);
  }

  std::vector<AsAggregate> Aggregate(const ClassifiedSubnets& classified) const {
    return AggregateCandidateAsesSharded(asdb::RoutingTable(announcements), classified,
                                         beacons, demand, exec::Executor::Shared());
  }
};

TEST(AggregateCandidateAses, OnlyAsesWithCellularBlocks) {
  Fixture f;
  f.AddAs(100, asdb::AsClass::kTransitAccess);
  f.AddAs(200, asdb::AsClass::kTransitAccess);
  f.AddBlock("198.51.101.0/24", 100, Stats(1000, 130, 120), 5.0);  // cellular
  f.AddBlock("198.51.102.0/24", 200, Stats(1000, 130, 2), 9.0);    // fixed only

  const auto classified = SubnetClassifier().Classify(f.beacons);
  const auto candidates = f.Aggregate(classified);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].asn, 100u);
  EXPECT_EQ(candidates[0].cell_blocks_v4, 1u);
  EXPECT_DOUBLE_EQ(candidates[0].cell_demand_du, 5.0);
}

TEST(AggregateCandidateAses, TotalsIncludeBeaconlessDemand) {
  Fixture f;
  f.AddAs(100, asdb::AsClass::kTransitAccess);
  f.AddBlock("198.51.101.0/24", 100, Stats(500, 70, 65), 5.0);
  f.AddBlock("198.51.102.0/24", 100, {}, 45.0);  // demand-only block

  const auto classified = SubnetClassifier().Classify(f.beacons);
  const auto candidates = f.Aggregate(classified);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_DOUBLE_EQ(candidates[0].total_demand_du, 50.0);
  EXPECT_DOUBLE_EQ(candidates[0].cell_demand_du, 5.0);
  EXPECT_NEAR(candidates[0].Cfd(), 0.1, 1e-12);
  EXPECT_EQ(candidates[0].demand_blocks, 2u);
  EXPECT_EQ(candidates[0].beacon_hits, 500u);
}

TEST(AggregateCandidateAses, CountsV6Separately) {
  Fixture f;
  f.AddAs(100, asdb::AsClass::kTransitAccess);
  f.AddBlock("198.51.101.0/24", 100, Stats(100, 40, 38), 1.0);
  f.AddBlock("2001:db8:1::/48", 100, Stats(100, 40, 39), 1.0);
  const auto classified = SubnetClassifier().Classify(f.beacons);
  const auto candidates = f.Aggregate(classified);
  ASSERT_EQ(candidates.size(), 1u);
  EXPECT_EQ(candidates[0].cell_blocks_v4, 1u);
  EXPECT_EQ(candidates[0].cell_blocks_v6, 1u);
  EXPECT_EQ(candidates[0].cellular_blocks.size(), 2u);
}

Fixture FilterFixture() {
  Fixture f;
  // AS 100: healthy cellular access network.
  f.AddAs(100, asdb::AsClass::kTransitAccess);
  f.AddBlock("198.51.101.0/24", 100, Stats(5000, 660, 600), 20.0);
  // AS 200: tiny cellular pool, fails rule 1 (< 0.1 DU).
  f.AddAs(200, asdb::AsClass::kTransitAccess);
  f.AddBlock("198.51.102.0/24", 200, Stats(2000, 260, 250), 0.05);
  // AS 300: enough demand but too few beacon responses (rule 2).
  f.AddAs(300, asdb::AsClass::kTransitAccess);
  f.AddBlock("198.51.103.0/24", 300, Stats(150, 20, 18), 3.0);
  // AS 400: proxy service, Content class (rule 3).
  f.AddAs(400, asdb::AsClass::kContent);
  f.AddBlock("198.51.104.0/24", 400, Stats(9000, 1200, 1000), 15.0);
  // AS 500: unknown class (rule 3).
  f.AddBlock("198.51.105.0/24", 500, Stats(9000, 1200, 1000), 15.0);
  return f;
}

TEST(ApplyAsFilters, RulesFireInPaperOrder) {
  Fixture f = FilterFixture();
  const auto classified = SubnetClassifier().Classify(f.beacons);
  auto candidates = f.Aggregate(classified);
  ASSERT_EQ(candidates.size(), 5u);

  const AsFilterOutcome outcome = ApplyAsFilters(std::move(candidates), f.as_db);
  EXPECT_EQ(outcome.input_count, 5u);
  EXPECT_EQ(outcome.removed_low_demand, 1u);
  EXPECT_EQ(outcome.removed_low_hits, 1u);
  EXPECT_EQ(outcome.removed_class, 2u);
  ASSERT_EQ(outcome.kept.size(), 1u);
  EXPECT_EQ(outcome.kept[0].asn, 100u);
}

TEST(ApplyAsFilters, Rule1TakesPrecedence) {
  // An AS failing both rule 1 and rule 2 is attributed to rule 1 (the
  // paper applies the heuristics sequentially).
  Fixture f;
  f.AddAs(100, asdb::AsClass::kTransitAccess);
  f.AddBlock("198.51.101.0/24", 100, Stats(50, 10, 9), 0.01);
  const auto classified = SubnetClassifier().Classify(f.beacons);
  const auto outcome = ApplyAsFilters(f.Aggregate(classified), f.as_db);
  EXPECT_EQ(outcome.removed_low_demand, 1u);
  EXPECT_EQ(outcome.removed_low_hits, 0u);
}

TEST(ApplyAsFilters, ClassRuleCanBeDisabled) {
  Fixture f = FilterFixture();
  const auto classified = SubnetClassifier().Classify(f.beacons);
  auto candidates = f.Aggregate(classified);
  AsFilterConfig config;
  config.require_transit_access_class = false;
  const auto outcome = ApplyAsFilters(std::move(candidates), f.as_db, config);
  EXPECT_EQ(outcome.removed_class, 0u);
  EXPECT_EQ(outcome.kept.size(), 3u);
}

TEST(ApplyAsFilters, CustomThresholds) {
  Fixture f = FilterFixture();
  const auto classified = SubnetClassifier().Classify(f.beacons);
  auto candidates = f.Aggregate(classified);
  AsFilterConfig config;
  config.min_cell_demand_du = 30.0;  // nobody passes
  const auto outcome = ApplyAsFilters(std::move(candidates), f.as_db, config);
  EXPECT_EQ(outcome.removed_low_demand, 5u);
  EXPECT_TRUE(outcome.kept.empty());
}

TEST(IsDedicatedTest, CfdThreshold) {
  AsAggregate as;
  as.cell_demand_du = 95.0;
  as.total_demand_du = 100.0;
  EXPECT_TRUE(IsDedicated(as));
  as.cell_demand_du = 89.0;
  EXPECT_FALSE(IsDedicated(as));
  as.total_demand_du = 0.0;
  EXPECT_FALSE(IsDedicated(as));
}

TEST(AsAggregateMetrics, SubnetFraction) {
  AsAggregate as;
  as.cell_blocks_v4 = 3;
  as.observed_blocks_v4 = 10;
  as.observed_blocks_v6 = 2;
  EXPECT_DOUBLE_EQ(as.CellSubnetFraction(), 0.25);
}

}  // namespace
}  // namespace cellspot::core
