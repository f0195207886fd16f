// Integration consistency: the per-hit streaming path and the aggregate
// path must describe the same world (same per-block hit counts and label
// totals for every fully streamed block).
#include <gtest/gtest.h>

#include <unordered_map>

#include "cellspot/cdn/beacon_generator.hpp"
#include "cellspot/cdn/beacon_log.hpp"
#include "cellspot/netinfo/availability.hpp"

namespace cellspot::cdn {
namespace {

TEST(StreamVsAggregate, FullyStreamedBlocksMatchDataset) {
  const simnet::World world = simnet::World::Generate(simnet::WorldConfig::Tiny());
  const BeaconGenerator gen(world);
  const dataset::BeaconDataset aggregate = gen.GenerateDataset();

  // Stream a prefix of the hit sequence and re-aggregate it.
  dataset::BeaconDataset streamed;
  netaddr::Prefix last_block;
  gen.StreamHits(
      [&](const netaddr::Prefix& block, const BeaconHit& hit) {
        AccumulateHit(streamed, hit);
        last_block = block;
        // The hit's client address must aggregate into the same block.
        EXPECT_EQ(netaddr::BlockOf(hit.client_ip), block);
      },
      150000);

  std::size_t compared = 0;
  for (const auto& [block, s] : streamed.rows()) {
    if (block == last_block) continue;  // possibly truncated by the cap
    const auto* full = aggregate.Find(block);
    ASSERT_NE(full, nullptr) << block.ToString();
    EXPECT_EQ(s.hits, full->hits) << block.ToString();
    EXPECT_EQ(s.netinfo_hits, full->netinfo_hits) << block.ToString();
    EXPECT_EQ(s.cellular_labels, full->cellular_labels) << block.ToString();
    EXPECT_EQ(s.wifi_labels, full->wifi_labels) << block.ToString();
    ++compared;
  }
  EXPECT_GT(compared, 20u);
}

TEST(StreamVsAggregate, StreamedDaysCoverTheWindow) {
  const simnet::World world = simnet::World::Generate(simnet::WorldConfig::Tiny());
  const BeaconGenerator gen(world);
  std::unordered_map<int, int> day_histogram;
  gen.StreamHits(
      [&](const netaddr::Prefix&, const BeaconHit& hit) { ++day_histogram[hit.day]; },
      60000);
  // All 31 days of December appear in a 60k-hit sample.
  EXPECT_EQ(day_histogram.size(), 31u);
}

TEST(StreamVsAggregate, NetinfoHitsUseApiCapableBrowsersOnly) {
  const simnet::World world = simnet::World::Generate(simnet::WorldConfig::Tiny());
  BeaconGenerator gen(world);
  gen.StreamHits(
      [&](const netaddr::Prefix&, const BeaconHit& hit) {
        if (hit.has_netinfo) {
          EXPECT_GT(netinfo::NetInfoAvailability(hit.browser,
                                                 world.config().study_month),
                    0.0)
              << std::string(netinfo::BrowserName(hit.browser));
        }
      },
      30000);
}

}  // namespace
}  // namespace cellspot::cdn
