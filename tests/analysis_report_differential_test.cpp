// The per-block reports of analysis::reports against the row-by-row
// versions they replaced (tests/support/reference_reports.hpp): every
// report field for field, doubles bit for bit, at 1, 2 and 8 threads —
// on the Tiny experiment, on hand-made edge cases (unrouted rows, an
// origin with no AS record, a record with no ISO, a cellular block in
// an AS that was not kept, tied ratios with different demand, zero
// demand, the reserved ASN 0) and on empty datasets. Each comparison
// reports only its first differing row, so a broken report fails fast.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cellspot/analysis/reports.hpp"
#include "cellspot/core/classifier.hpp"
#include "cellspot/exec/executor.hpp"
#include "support/reference_reports.hpp"

namespace cellspot::analysis {
namespace {

using netaddr::Prefix;

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Fails with the first row whose key differs, and only that row.
template <typename Row, typename Key>
void ExpectSameRows(const std::vector<Row>& got, const std::vector<Row>& want, Key key,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (key(got[i]) != key(want[i])) {
      ADD_FAILURE() << what << ": first difference at row " << i << " of " << got.size()
                    << ": got " << ::testing::PrintToString(key(got[i])) << ", want "
                    << ::testing::PrintToString(key(want[i]));
      return;
    }
  }
}

auto CdfKey(const std::pair<double, double>& p) {
  return std::make_tuple(Bits(p.first), Bits(p.second));
}

auto SummaryKey(const DatasetSummary& s) {
  return std::make_tuple(s.beacon_v4_blocks, s.beacon_v6_blocks, s.demand_v4_blocks,
                         s.demand_v6_blocks, Bits(s.beacon_coverage_of_demand_v4),
                         Bits(s.beacon_coverage_of_demand_weight));
}

auto ContinentKey(const ContinentSubnetRow& r) {
  return std::make_tuple(static_cast<int>(r.continent), r.cell_v4, r.cell_v6,
                         Bits(r.pct_active_v4), Bits(r.pct_active_v6));
}

auto CountryKey(const CountryDemand& c) {
  return std::make_tuple(c.iso, static_cast<int>(c.continent), Bits(c.cell_du),
                         Bits(c.total_du), c.excluded);
}

auto PointKey(const OperatorBlockPoint& p) {
  return std::make_tuple(Bits(p.ratio), Bits(p.demand_du));
}

auto ConcentrationKey(const SubnetConcentration& c) {
  return std::make_tuple(c.blocks_for_99pct_cell, Bits(c.cellular_gini), Bits(c.fixed_gini));
}

void ExpectSameCdfs(const RatioDistributions& got, const RatioDistributions& want) {
  ExpectSameRows(got.v4_subnets.points(), want.v4_subnets.points(), CdfKey, "Fig 2 v4_subnets");
  ExpectSameRows(got.v6_subnets.points(), want.v6_subnets.points(), CdfKey, "Fig 2 v6_subnets");
  ExpectSameRows(got.v4_demand.points(), want.v4_demand.points(), CdfKey, "Fig 2 v4_demand");
  ExpectSameRows(got.v6_demand.points(), want.v6_demand.points(), CdfKey, "Fig 2 v6_demand");
}

void ExpectSameConcentration(const SubnetConcentration& got, const SubnetConcentration& want) {
  ExpectSameRows(got.cellular_demands, want.cellular_demands, Bits, "Fig 8 cellular");
  ExpectSameRows(got.fixed_demands, want.fixed_demands, Bits, "Fig 8 fixed");
  EXPECT_EQ(ConcentrationKey(got), ConcentrationKey(want)) << "Fig 8 summary";
}

/// Every rewritten report at 1, 2 and 8 threads against the reference;
/// `asns` are the operators of Figs 6 and 8.
void ExpectReportsMatchReference(const Experiment& exp,
                                 const std::vector<asdb::AsNumber>& asns) {
  const DatasetSummary summary = test_support::ReferenceSummarizeDatasets(exp);
  const auto continents = test_support::ReferenceContinentSubnetReport(exp);
  const auto countries = test_support::ReferenceCountryDemandReport(exp);
  const RatioDistributions ratios = test_support::ReferenceRatioCdfReport(exp);
  std::vector<std::vector<OperatorBlockPoint>> breakdowns;
  std::vector<SubnetConcentration> concentrations;
  for (const asdb::AsNumber asn : asns) {
    breakdowns.push_back(test_support::ReferenceOperatorRatioBreakdown(exp, asn));
    concentrations.push_back(test_support::ReferenceSubnetConcentrationReport(exp, asn));
  }

  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    exec::Executor executor(threads);
    EXPECT_EQ(SummaryKey(SummarizeDatasets(exp, executor)), SummaryKey(summary)) << "Table 2";
    ExpectSameRows(ContinentSubnetReport(exp, executor), continents, ContinentKey, "Table 4");
    ExpectSameRows(CountryDemandReport(exp, executor), countries, CountryKey, "countries");
    ExpectSameCdfs(RatioCdfReport(exp, executor), ratios);
    for (std::size_t k = 0; k < asns.size(); ++k) {
      SCOPED_TRACE(::testing::Message() << "AS" << asns[k]);
      ExpectSameRows(OperatorRatioBreakdown(exp, asns[k], executor), breakdowns[k], PointKey,
                     "Fig 6");
      ExpectSameConcentration(SubnetConcentrationReport(exp, asns[k], executor),
                              concentrations[k]);
    }
  }
}

const Experiment& TinyExp() {
  static const Experiment exp = RunExperiment(simnet::WorldConfig::Tiny());
  return exp;
}

TEST(ReportDifferential, TinyExperiment) {
  const Experiment& exp = TinyExp();
  // The reserved ASN 0, which unrouted rows resolve to, and one no
  // route announces.
  std::vector<asdb::AsNumber> asns = {0, 4294900000u};
  for (const simnet::World::Carrier& carrier : exp.world.validation_carriers()) {
    asns.push_back(carrier.asn);
  }
  for (std::size_t i = 0; i < exp.filtered.kept.size() && i < 8; ++i) {
    asns.push_back(exp.filtered.kept[i].asn);
  }
  const simnet::OperatorInfo* carrier_a = FindCarrier(exp, 'A');
  ASSERT_NE(carrier_a, nullptr);
  ASSERT_FALSE(test_support::ReferenceOperatorRatioBreakdown(exp, carrier_a->asn).empty());
  ASSERT_FALSE(
      test_support::ReferenceSubnetConcentrationReport(exp, carrier_a->asn).cellular_demands.empty());
  ASSERT_GT(test_support::ReferenceCountryDemandReport(exp).size(), 1u);
  ExpectReportsMatchReference(exp, asns);
}

/// Blocks of the edge-case fixture, in dataset order. Every beacon row
/// has 8 API-enabled hits, so `cellular_labels` of 4 or more classify
/// it cellular; a negative `du` leaves the block out of DEMAND.
struct EdgeBlock {
  const char* block;
  int cellular_labels;  // < 0: not in BEACON
  double du;            // < 0: not in DEMAND
};

constexpr EdgeBlock kEdgeBlocks[] = {
    {"10.0.0.0/24", 6, 6.0},        // 64500, XX (excluded), kept
    {"10.0.1.0/24", 6, 3.0},        // 64501: a record with no ISO
    {"192.0.2.0/24", 6, 5.0},       // 64502: routed, no AS record, kept
    {"198.51.100.0/24", 6, 7.0},    // unrouted
    {"203.0.113.0/24", -1, 0.5},    // unrouted, demand only
    {"2001:db8::/48", 6, 4.0},      // 64503, DE: cellular, AS not kept
    {"172.16.0.0/24", 6, 1.0},      // 64504, DE, kept: ratio 0.75 ...
    {"172.16.1.0/24", 6, 2.0},      // ... tied with other demand
    {"2001:db8:1::/48", 2, 2.5},    // 64503: fixed
    {"172.16.2.0/24", 2, 0.0},      // 64504: zero demand
    {"172.16.3.0/24", 6, 3.0},      // 64504: a third 0.75
    {"100.64.0.0/24", 2, 1.5},      // 64505, FR, not kept
    {"172.16.4.0/24", 6, -1.0},     // 64504: beacon only
    {"2001:db9::/48", 6, 1.0},      // unrouted v6
    {"172.16.5.0/24", 1, 2.0},      // 64504: fixed
};

/// World has no setters: generation and the snapshot decoder are its
/// only writers, and neither routes an origin without an AS record. The
/// fixture therefore swaps its own RIB, records and excluded country
/// into a default-constructed world through the accessors, which is well
/// defined because the experiment is not const.
Experiment EdgeCaseExperiment() {
  Experiment exp;
  asdb::AsDatabase as_db;
  as_db.Upsert({.asn = 64500, .name = "A", .country_iso = "XX",
                .continent = geo::Continent::kAsia});
  as_db.Upsert({.asn = 64501, .name = "B", .country_iso = "",
                .continent = geo::Continent::kEurope});
  as_db.Upsert({.asn = 64503, .name = "D", .country_iso = "DE",
                .continent = geo::Continent::kEurope});
  as_db.Upsert({.asn = 64504, .name = "E", .country_iso = "DE",
                .continent = geo::Continent::kEurope});
  as_db.Upsert({.asn = 64505, .name = "F", .country_iso = "FR",
                .continent = geo::Continent::kEurope});
  const_cast<asdb::AsDatabase&>(exp.world.as_db()) = std::move(as_db);
  const_cast<asdb::RoutingTable&>(exp.world.rib()) =
      asdb::RoutingTable({{Prefix::Parse("10.0.0.0/16"), 64500},
                          {Prefix::Parse("10.0.1.0/24"), 64501},
                          {Prefix::Parse("192.0.2.0/24"), 64502},
                          {Prefix::Parse("2001:db8::/32"), 64503},
                          {Prefix::Parse("172.16.0.0/16"), 64504},
                          {Prefix::Parse("100.64.0.0/16"), 64505}});
  const_cast<simnet::WorldConfig&>(exp.world.config()).countries = {
      {.iso2 = "XX", .exclude_from_analysis = true}};

  for (const EdgeBlock& b : kEdgeBlocks) {
    const Prefix block = Prefix::Parse(b.block);
    if (b.cellular_labels >= 0) {
      const auto cellular = static_cast<std::uint64_t>(b.cellular_labels);
      exp.beacons.Add(block, {.hits = 20, .netinfo_hits = 8, .cellular_labels = cellular,
                              .wifi_labels = 8 - cellular});
    }
    if (b.du >= 0.0) exp.demand.Add(block, b.du);
  }
  exp.demand.Normalize();
  exp.classified = core::SubnetClassifier().Classify(exp.beacons);
  for (const asdb::AsNumber asn : {64500u, 64502u, 64504u}) {
    exp.filtered.kept.emplace_back().asn = asn;
  }
  return exp;
}

TEST(ReportDifferential, HandMadeEdgeCases) {
  const Experiment exp = EdgeCaseExperiment();
  ExpectReportsMatchReference(exp, {0, 64500, 64501, 64502, 64503, 64504, 64505, 64599});

  // The fixture reaches the cases it names, not merely what the
  // reference does.
  exec::Executor executor(2);
  const auto countries = CountryDemandReport(exp, executor);
  ASSERT_EQ(countries.size(), 3u);  // no row for 64501 (no ISO) or 64502 (no record)
  EXPECT_EQ(countries[0].iso, "DE");
  EXPECT_NEAR(countries[0].CellFraction(), 6.0 / 14.5, 1e-12);  // 64503's cellular row not kept
  EXPECT_EQ(countries[1].iso, "FR");
  EXPECT_EQ(countries[1].cell_du, 0.0);
  EXPECT_EQ(countries[2].iso, "XX");
  EXPECT_TRUE(countries[2].excluded);
  EXPECT_EQ(countries[2].CellFraction(), 1.0);

  const auto continents = ContinentSubnetReport(exp, executor);
  const auto& europe = continents[static_cast<std::size_t>(geo::Continent::kEurope)];
  EXPECT_EQ(europe.cell_v4, 5u);  // 64501's, and 64504's four
  EXPECT_EQ(europe.cell_v6, 1u);
  EXPECT_EQ(continents[static_cast<std::size_t>(geo::Continent::kAsia)].cell_v4, 1u);

  // ASN 0 marks unrouted rows; it owns none of them.
  EXPECT_TRUE(OperatorRatioBreakdown(exp, 0, executor).empty());
  const auto unrouted = SubnetConcentrationReport(exp, 0, executor);
  EXPECT_TRUE(unrouted.cellular_demands.empty() && unrouted.fixed_demands.empty());
  EXPECT_EQ(OperatorRatioBreakdown(exp, 64502, executor).size(), 1u);  // no record needed
  const auto breakdown = OperatorRatioBreakdown(exp, 64504, executor);
  ASSERT_EQ(breakdown.size(), 6u);
  EXPECT_EQ(breakdown.back().ratio, 0.75);
  const auto concentration = SubnetConcentrationReport(exp, 64504, executor);
  EXPECT_EQ(concentration.cellular_demands.size(), 3u);
  EXPECT_EQ(concentration.fixed_demands.size(), 1u);  // the zero-demand block is left out
}

TEST(ReportDifferential, EmptyDatasets) {
  Experiment exp = EdgeCaseExperiment();
  exp.beacons = {};
  exp.demand = {};
  exp.classified = {};
  ExpectReportsMatchReference(exp, {0, 64504});
  exec::Executor executor(8);
  EXPECT_TRUE(CountryDemandReport(exp, executor).empty());
  EXPECT_TRUE(RatioCdfReport(exp, executor).v4_demand.empty());
  for (const ContinentSubnetRow& row : ContinentSubnetReport(exp, executor)) {
    EXPECT_EQ(row.cell_v4 + row.cell_v6, 0u);
  }
}

}  // namespace
}  // namespace cellspot::analysis
