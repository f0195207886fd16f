#include <gtest/gtest.h>

#include <sstream>

#include "cellspot/dataset/beacon_dataset.hpp"
#include "cellspot/dataset/demand_dataset.hpp"

namespace cellspot::dataset {
namespace {

using netaddr::Family;
using netaddr::Prefix;

TEST(BeaconBlockStats, RatioHandlesZero) {
  BeaconBlockStats s;
  EXPECT_DOUBLE_EQ(s.CellularRatio(), 0.0);
  s.netinfo_hits = 10;
  s.cellular_labels = 9;
  s.hits = 20;
  EXPECT_DOUBLE_EQ(s.CellularRatio(), 0.9);
}

TEST(BeaconDataset, AddAccumulates) {
  BeaconDataset d;
  const auto block = Prefix::Parse("203.0.114.0/24");
  d.Add(block, {.hits = 10, .netinfo_hits = 4, .cellular_labels = 3, .wifi_labels = 1});
  d.Add(block, {.hits = 5, .netinfo_hits = 2, .cellular_labels = 1, .wifi_labels = 1});
  const auto* s = d.Find(block);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->hits, 15u);
  EXPECT_EQ(s->netinfo_hits, 6u);
  EXPECT_EQ(s->cellular_labels, 4u);
  EXPECT_EQ(d.block_count(), 1u);
  EXPECT_EQ(d.total_hits(), 15u);
  EXPECT_EQ(d.total_netinfo_hits(), 6u);
}

TEST(BeaconDataset, RejectsNonBlocks) {
  BeaconDataset d;
  EXPECT_THROW(d.Add(Prefix::Parse("10.0.0.0/16"), {.hits = 1}), std::invalid_argument);
  EXPECT_THROW(d.Add(Prefix::Parse("2001:db8::/32"), {.hits = 1}), std::invalid_argument);
}

TEST(BeaconDataset, RejectsInconsistentStats) {
  BeaconDataset d;
  const auto block = Prefix::Parse("203.0.114.0/24");
  EXPECT_THROW(d.Add(block, {.hits = 1, .netinfo_hits = 2}), std::invalid_argument);
  EXPECT_THROW(d.Add(block, {.hits = 5, .netinfo_hits = 2, .cellular_labels = 3}),
               std::invalid_argument);
}

TEST(BeaconDataset, FamilyCounts) {
  BeaconDataset d;
  d.Add(Prefix::Parse("203.0.114.0/24"), {.hits = 1});
  d.Add(Prefix::Parse("203.0.115.0/24"), {.hits = 1});
  d.Add(Prefix::Parse("2001:db8:1::/48"), {.hits = 1});
  EXPECT_EQ(d.block_count(Family::kIpv4), 2u);
  EXPECT_EQ(d.block_count(Family::kIpv6), 1u);
}

TEST(BeaconDataset, CsvRoundTrip) {
  BeaconDataset d;
  d.Add(Prefix::Parse("198.51.101.0/24"),
        {.hits = 100, .netinfo_hits = 13, .cellular_labels = 11, .wifi_labels = 2});
  d.Add(Prefix::Parse("2001:db8:7::/48"),
        {.hits = 7, .netinfo_hits = 1, .wifi_labels = 1});
  std::stringstream ss;
  d.SaveCsv(ss);
  const BeaconDataset loaded = BeaconDataset::LoadCsv(ss);
  EXPECT_EQ(loaded.block_count(), 2u);
  const auto* s = loaded.Find(Prefix::Parse("198.51.101.0/24"));
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->cellular_labels, 11u);
  EXPECT_EQ(loaded.total_hits(), d.total_hits());
}

TEST(DemandDataset, AddAndNormalize) {
  DemandDataset d;
  d.Add(Prefix::Parse("198.51.101.0/24"), 30.0);
  d.Add(Prefix::Parse("198.51.102.0/24"), 10.0);
  EXPECT_DOUBLE_EQ(d.total(), 40.0);
  d.Normalize();
  EXPECT_DOUBLE_EQ(d.total(), kTotalDemandUnits);
  EXPECT_DOUBLE_EQ(d.DemandOf(Prefix::Parse("198.51.101.0/24")), 75000.0);
  EXPECT_DOUBLE_EQ(d.DemandOf(Prefix::Parse("198.51.102.0/24")), 25000.0);
  EXPECT_DOUBLE_EQ(d.DemandOf(Prefix::Parse("198.51.103.0/24")), 0.0);
}

TEST(DemandDataset, NormalizeEmptyIsNoop) {
  DemandDataset d;
  d.Normalize();
  EXPECT_DOUBLE_EQ(d.total(), 0.0);
}

TEST(DemandDataset, RejectsBadInput) {
  DemandDataset d;
  EXPECT_THROW(d.Add(Prefix::Parse("10.0.0.0/8"), 1.0), std::invalid_argument);
  EXPECT_THROW(d.Add(Prefix::Parse("198.51.101.0/24"), -1.0), std::invalid_argument);
}

TEST(DemandDataset, AccumulatesSameBlock) {
  DemandDataset d;
  const auto block = Prefix::Parse("198.51.101.0/24");
  d.Add(block, 1.0);
  d.Add(block, 2.5);
  EXPECT_DOUBLE_EQ(d.DemandOf(block), 3.5);
  EXPECT_EQ(d.block_count(), 1u);
}

TEST(DemandDataset, CsvRoundTrip) {
  DemandDataset d;
  d.Add(Prefix::Parse("198.51.101.0/24"), 12.25);
  d.Add(Prefix::Parse("2001:db8:9::/48"), 0.001);
  std::stringstream ss;
  d.SaveCsv(ss);
  const DemandDataset loaded = DemandDataset::LoadCsv(ss);
  EXPECT_EQ(loaded.block_count(), 2u);
  EXPECT_NEAR(loaded.DemandOf(Prefix::Parse("198.51.101.0/24")), 12.25, 1e-6);
  EXPECT_NEAR(loaded.DemandOf(Prefix::Parse("2001:db8:9::/48")), 0.001, 1e-9);
}

}  // namespace
}  // namespace cellspot::dataset

namespace cellspot::dataset {
namespace {

TEST(BeaconDatasetMerge, ShardsCombineAssociatively) {
  const auto block_a = netaddr::Prefix::Parse("198.51.101.0/24");
  const auto block_b = netaddr::Prefix::Parse("198.51.102.0/24");
  BeaconDataset shard1;
  shard1.Add(block_a, {.hits = 10, .netinfo_hits = 2, .cellular_labels = 2});
  BeaconDataset shard2;
  shard2.Add(block_a, {.hits = 5, .netinfo_hits = 1, .wifi_labels = 1});
  shard2.Add(block_b, {.hits = 7});

  // Shards combine by adding each one's rows in order.
  BeaconDataset merged;
  for (const BeaconDataset* shard : {&shard1, &shard2}) {
    for (const auto& [block, stats] : shard->rows()) merged.Add(block, stats);
  }
  EXPECT_EQ(merged.block_count(), 2u);
  EXPECT_EQ(merged.total_hits(), 22u);
  const auto* a = merged.Find(block_a);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->hits, 15u);
  EXPECT_EQ(a->netinfo_hits, 3u);
  EXPECT_EQ(a->cellular_labels, 2u);
}

TEST(DemandDatasetMerge, SumsRawDemand) {
  const auto block = netaddr::Prefix::Parse("198.51.101.0/24");
  DemandDataset a;
  a.Add(block, 3.0);
  DemandDataset b;
  b.Add(block, 5.0);
  b.Add(netaddr::Prefix::Parse("2001:db8::/48"), 2.0);
  for (const auto& [b_block, du] : b.rows()) a.Add(b_block, du);
  EXPECT_DOUBLE_EQ(a.DemandOf(block), 8.0);
  EXPECT_DOUBLE_EQ(a.total(), 10.0);
  EXPECT_EQ(a.block_count(), 2u);
}

}  // namespace
}  // namespace cellspot::dataset
