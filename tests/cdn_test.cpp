#include <gtest/gtest.h>

#include <sstream>

#include "cellspot/cdn/beacon_generator.hpp"
#include "cellspot/cdn/beacon_log.hpp"
#include "cellspot/cdn/demand_generator.hpp"
#include "cellspot/cdn/netinfo_series.hpp"
#include "cellspot/util/error.hpp"

namespace cellspot::cdn {
namespace {

const simnet::World& TinyWorld() {
  static const simnet::World world = simnet::World::Generate(simnet::WorldConfig::Tiny());
  return world;
}

const dataset::BeaconDataset& TinyBeacons() {
  static const dataset::BeaconDataset beacons = BeaconGenerator(TinyWorld()).GenerateDataset();
  return beacons;
}

TEST(BeaconGenerator, Deterministic) {
  const auto a = BeaconGenerator(TinyWorld()).GenerateDataset();
  const auto b = BeaconGenerator(TinyWorld()).GenerateDataset();
  EXPECT_EQ(a.block_count(), b.block_count());
  EXPECT_EQ(a.total_hits(), b.total_hits());
  EXPECT_EQ(a.total_netinfo_hits(), b.total_netinfo_hits());
}

TEST(BeaconGenerator, NetinfoCoverageMatchesTimeline) {
  const auto& d = TinyBeacons();
  ASSERT_GT(d.total_hits(), 0u);
  const double coverage =
      static_cast<double>(d.total_netinfo_hits()) / static_cast<double>(d.total_hits());
  // Dec 2016: ~13.2% of hits carry Network Information data.
  EXPECT_NEAR(coverage, 0.132, 0.015);
}

TEST(BeaconGenerator, CellularBlocksScoreHighRatios) {
  const auto& world = TinyWorld();
  const auto& d = TinyBeacons();
  int checked = 0;
  for (const simnet::Subnet& s : world.subnets()) {
    if (!s.truth_cellular || s.demand_du < 1.0 || s.beacon_scale <= 0.0) continue;
    if (s.tether_rate > 0.3) continue;
    const auto* stats = d.Find(s.block);
    if (stats == nullptr || stats->netinfo_hits < 50) continue;
    EXPECT_GT(stats->CellularRatio(), 0.5) << s.block.ToString();
    ++checked;
  }
  EXPECT_GT(checked, 10);
}

TEST(BeaconGenerator, FixedBlocksScoreLowRatios) {
  const auto& world = TinyWorld();
  const auto& d = TinyBeacons();
  int checked = 0;
  for (const simnet::Subnet& s : world.subnets()) {
    if (s.truth_cellular || s.proxy_terminating || s.tether_rate >= 0.0) continue;
    if (s.demand_du < 1.0 || s.beacon_scale <= 0.0) continue;
    const auto* stats = d.Find(s.block);
    if (stats == nullptr || stats->netinfo_hits < 50) continue;
    EXPECT_LT(stats->CellularRatio(), 0.1) << s.block.ToString();
    ++checked;
  }
  EXPECT_GT(checked, 10);
}

TEST(BeaconGenerator, ProxyBlocksLookCellular) {
  const auto& world = TinyWorld();
  const auto& d = TinyBeacons();
  int checked = 0;
  for (const simnet::Subnet& s : world.subnets()) {
    if (!s.proxy_terminating || s.demand_du <= 0.0) continue;
    const auto* stats = d.Find(s.block);
    if (stats == nullptr || stats->netinfo_hits < 30) continue;
    EXPECT_GT(stats->CellularRatio(), 0.6) << s.block.ToString();
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(BeaconGenerator, SilentBlocksProduceNoHits) {
  const auto& world = TinyWorld();
  const auto& d = TinyBeacons();
  for (const simnet::Subnet& s : world.subnets()) {
    if (s.beacon_scale == 0.0) {
      EXPECT_EQ(d.Find(s.block), nullptr) << s.block.ToString();
    }
  }
}

TEST(BeaconGenerator, ExpectedCellularLabelFraction) {
  const auto& world = TinyWorld();
  for (const simnet::Subnet& s : world.subnets()) {
    const double f = ExpectedCellularLabelFraction(world, s);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    if (s.proxy_terminating) {
      EXPECT_DOUBLE_EQ(f, world.config().proxy_cell_label_fraction);
    } else if (!s.truth_cellular && s.tether_rate < 0.0) {
      EXPECT_LT(f, 0.01);
    }
  }
}

TEST(BeaconGenerator, StreamHitsRespectsCapAndBlocks) {
  const auto& world = TinyWorld();
  BeaconGenerator gen(world);
  std::uint64_t count = 0;
  const std::uint64_t emitted = gen.StreamHits(
      [&](const netaddr::Prefix& block, const BeaconHit& hit) {
        ++count;
        EXPECT_TRUE(block.Contains(hit.client_ip));
        EXPECT_GE(hit.day, 0);
        EXPECT_LT(hit.day, 31);
      },
      5000);
  EXPECT_EQ(emitted, count);
  EXPECT_LE(emitted, 5000u);
  EXPECT_GT(emitted, 0u);
}

TEST(BeaconLog, LineRoundTrip) {
  BeaconHit hit;
  hit.client_ip = netaddr::IpAddress::Parse("198.51.101.77");
  hit.day = 12;
  hit.browser = netinfo::Browser::kChromeMobile;
  hit.has_netinfo = true;
  hit.connection = netinfo::ConnectionType::kCellular;
  const std::string line = FormatBeaconLogLine(hit);
  EXPECT_EQ(line, "12,198.51.101.77,chrome-mobile,cellular");
  const BeaconHit parsed = ParseBeaconLogLine(line);
  EXPECT_EQ(parsed.client_ip, hit.client_ip);
  EXPECT_EQ(parsed.day, hit.day);
  EXPECT_EQ(parsed.browser, hit.browser);
  EXPECT_TRUE(parsed.has_netinfo);
  EXPECT_EQ(parsed.connection, hit.connection);
}

TEST(BeaconLog, NoNetinfoUsesDash) {
  BeaconHit hit;
  hit.client_ip = netaddr::IpAddress::Parse("2001:db8::9");
  hit.day = 0;
  hit.browser = netinfo::Browser::kSafariMobile;
  hit.has_netinfo = false;
  const std::string line = FormatBeaconLogLine(hit);
  EXPECT_EQ(line, "0,2001:db8::9,safari-mobile,-");
  const BeaconHit parsed = ParseBeaconLogLine(line);
  EXPECT_FALSE(parsed.has_netinfo);
}

TEST(BeaconLog, ParseRejectsMalformed) {
  EXPECT_THROW((void)ParseBeaconLogLine("1,2,3"), ParseError);
  EXPECT_THROW((void)ParseBeaconLogLine("99,1.2.3.4,chrome-mobile,wifi"), ParseError);
  EXPECT_THROW((void)ParseBeaconLogLine("1,nonsense,chrome-mobile,wifi"), ParseError);
  EXPECT_THROW((void)ParseBeaconLogLine("1,1.2.3.4,netscape,wifi"), ParseError);
  EXPECT_THROW((void)ParseBeaconLogLine("1,1.2.3.4,chrome-mobile,5g"), ParseError);
}

TEST(BeaconLog, StreamedLogAggregatesConsistently) {
  const auto& world = TinyWorld();
  BeaconGenerator gen(world);
  std::stringstream log;
  gen.StreamHits(
      [&](const netaddr::Prefix&, const BeaconHit& hit) {
        log << FormatBeaconLogLine(hit) << '\n';
      },
      20000);
  const dataset::BeaconDataset agg = AggregateBeaconLog(log);
  EXPECT_GT(agg.block_count(), 0u);
  EXPECT_GT(agg.total_hits(), 0u);
  EXPECT_LE(agg.total_netinfo_hits(), agg.total_hits());
}

TEST(DemandGenerator, DeterministicAndNormalized) {
  const auto a = DemandGenerator(TinyWorld()).GenerateDataset();
  const auto b = DemandGenerator(TinyWorld()).GenerateDataset();
  EXPECT_EQ(a.block_count(), b.block_count());
  EXPECT_NEAR(a.total(), dataset::kTotalDemandUnits, 1e-6);
  EXPECT_NEAR(b.total(), dataset::kTotalDemandUnits, 1e-6);
}

TEST(DemandGenerator, TracksWorldDemandShares) {
  const auto& world = TinyWorld();
  const auto demand = DemandGenerator(world).GenerateDataset();
  double cell = 0.0;
  for (const auto& [block, du] : demand.rows()) {
    const simnet::Subnet* s = world.FindSubnet(block);
    ASSERT_NE(s, nullptr);
    if (s->truth_cellular) cell += du;
  }
  double world_cell = 0.0;
  double world_total = 0.0;
  for (const simnet::Subnet& s : world.subnets()) {
    if (!s.in_demand_snapshot || s.demand_du <= 0.0) continue;
    if (s.truth_cellular) world_cell += s.demand_du;
    world_total += s.demand_du;
  }
  const double expected = world_cell / world_total * dataset::kTotalDemandUnits;
  EXPECT_NEAR(cell / expected, 1.0, 0.05);
}

TEST(DemandGenerator, ExcludesInactiveAndOffSnapshot) {
  const auto& world = TinyWorld();
  const auto demand = DemandGenerator(world).GenerateDataset();
  for (const simnet::Subnet& s : world.subnets()) {
    if (s.demand_du <= 0.0 || !s.in_demand_snapshot) {
      EXPECT_DOUBLE_EQ(demand.DemandOf(s.block), 0.0) << s.block.ToString();
    }
  }
}

TEST(NetinfoSeries, MatchesModelWithLowNoise) {
  const auto series = SimulateAdoptionSeries({2015, 9}, {2017, 6}, 2000000, 42);
  ASSERT_EQ(series.size(), 22u);
  EXPECT_EQ(series.front().month, (util::YearMonth{2015, 9}));
  EXPECT_EQ(series.back().month, (util::YearMonth{2017, 6}));
  for (const AdoptionPoint& p : series) {
    EXPECT_NEAR(p.total, netinfo::NetInfoFraction(p.month), 0.01);
  }
  // Growth over the window (Fig 1's rising trend).
  EXPECT_GT(series.back().total, series.front().total);
}

TEST(NetinfoSeries, RejectsBadArguments) {
  EXPECT_THROW(SimulateAdoptionSeries({2017, 1}, {2016, 1}, 100, 1), std::invalid_argument);
  EXPECT_THROW(SimulateAdoptionSeries({2016, 1}, {2016, 2}, 0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace cellspot::cdn
