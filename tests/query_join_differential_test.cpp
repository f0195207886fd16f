// query::BuildTables against the row-by-row join it replaced
// (tests/support/reference_build_tables.hpp): every column of all three
// tables, rendered to CSV through query::RenderTable, must match byte for
// byte at 1, 2 and 8 threads — on the Tiny experiment, on the `cellspot
// report` shape (no RIB, AS records or filter outcome), and on a world
// where some blocks are unrouted and some origins have no AsRecord, and
// on empty artifacts and one row per table.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cellspot/analysis/experiment.hpp"
#include "cellspot/core/as_pipeline.hpp"
#include "cellspot/core/classifier.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/query/source.hpp"
#include "cellspot/query/table.hpp"
#include "cellspot/util/sink.hpp"
#include "support/reference_build_tables.hpp"

namespace cellspot::query {
namespace {

std::string RenderCsv(const Table& t) {
  std::stringstream out;
  const auto sink = util::MakeTableSink(util::TableFormat::kCsv, out);
  RenderTable(t, *sink);
  return out.str();
}

/// The two tables render to the same CSV bytes. On a mismatch it
/// reports the first differing line, with its row index, and nothing
/// else, so a broken join fails fast with a short log.
void ExpectSameRendering(const Table& got, const Table& want, const std::string& what) {
  const std::string got_csv = RenderCsv(got);
  const std::string want_csv = RenderCsv(want);
  if (got_csv == want_csv) return;
  std::stringstream got_in(got_csv);
  std::stringstream want_in(want_csv);
  std::string got_line;
  std::string want_line;
  for (std::size_t line = 0;; ++line) {
    const bool has_got = static_cast<bool>(std::getline(got_in, got_line));
    const bool has_want = static_cast<bool>(std::getline(want_in, want_line));
    if (has_got && has_want && got_line == want_line) continue;
    ADD_FAILURE() << what << ": first difference at "
                  << (line == 0 ? std::string("the header") : "row " + std::to_string(line - 1))
                  << "\n  got:  " << (has_got ? got_line : "<end>")
                  << "\n  want: " << (has_want ? want_line : "<end>");
    return;
  }
}

/// BuildTables at 1, 2 and 8 threads equals the reference join, table
/// by table, and the string dictionaries do not depend on the thread
/// count.
void ExpectMatchesReference(const ArtifactRefs& refs) {
  exec::Executor one(1);
  const TableSet ref = test_support::ReferenceBuildTables(refs, one);
  std::vector<std::string> first_dicts;
  for (const unsigned threads : {1u, 2u, 8u}) {
    exec::Executor executor(threads);
    const TableSet got = BuildTables(refs, executor);
    std::vector<std::string> dicts;
    for (const char* name : {"beacon", "demand", "classified"}) {
      const Table& table = got.Find(name);
      ASSERT_EQ(table.row_count(), ref.Find(name).row_count()) << name;
      ExpectSameRendering(table, ref.Find(name),
                          std::string(name) + " at " + std::to_string(threads) + " threads");
      EXPECT_EQ(table.FindColumn("block")->type, ColumnType::kPrefix);
      for (const Column& c : table.columns()) {
        for (const std::string& s : c.dict) dicts.push_back(c.name + "=" + s);
      }
    }
    if (first_dicts.empty()) first_dicts = dicts;
    EXPECT_EQ(dicts, first_dicts) << threads;
  }
}

const analysis::Experiment& TinyExp() {
  static const analysis::Experiment exp =
      analysis::RunExperiment(simnet::WorldConfig::Tiny());
  return exp;
}

ArtifactRefs ExperimentRefs(const analysis::Experiment& exp) {
  ArtifactRefs refs;
  refs.rib = &exp.world.rib();
  refs.as_db = &exp.world.as_db();
  refs.beacons = &exp.beacons;
  refs.demand = &exp.demand;
  refs.classified = &exp.classified;
  refs.filtered = &exp.filtered;
  for (const simnet::CountryProfile& country : exp.world.config().countries) {
    if (country.exclude_from_analysis) refs.excluded_isos.push_back(country.iso2);
  }
  return refs;
}

TEST(QueryJoinDifferential, TinyExperiment) {
  ArtifactRefs refs = ExperimentRefs(TinyExp());
  ExpectMatchesReference(refs);
  // Tiny excludes no country; flag one so `excluded` is exercised too.
  ASSERT_TRUE(refs.excluded_isos.empty());
  refs.excluded_isos.push_back(TinyExp().world.config().countries.front().iso2);
  ExpectMatchesReference(refs);
}

TEST(QueryJoinDifferential, ReportShapeWithoutRibAsRecordsOrFilter) {
  ArtifactRefs refs = ExperimentRefs(TinyExp());
  refs.rib = nullptr;
  refs.as_db = nullptr;
  refs.filtered = nullptr;
  ExpectMatchesReference(refs);
}

TEST(QueryJoinDifferential, UnroutedBlocksAndRecordlessOrigins) {
  // 64500 has a record in an excluded country, 64501 one without an ISO
  // (global infrastructure), 64502 none at all; 198.51.100.0/24 and
  // 2001:db8:ffff::/48 are not announced.
  asdb::AsDatabase as_db;
  as_db.Upsert({.asn = 64500, .name = "A", .country_iso = "XX",
                .continent = geo::Continent::kAsia});
  as_db.Upsert({.asn = 64501, .name = "B", .country_iso = "",
                .continent = geo::Continent::kEurope});
  as_db.Upsert({.asn = 64503, .name = "D", .country_iso = "DE",
                .continent = geo::Continent::kEurope});
  const asdb::RoutingTable rib({{netaddr::Prefix::Parse("10.0.0.0/16"), 64500},
                                {netaddr::Prefix::Parse("10.0.1.0/24"), 64501},
                                {netaddr::Prefix::Parse("192.0.2.0/24"), 64502},
                                {netaddr::Prefix::Parse("2001:db8::/32"), 64503}});

  dataset::BeaconDataset beacons;
  dataset::DemandDataset demand;
  const char* blocks[] = {"10.0.0.0/24",      "10.0.1.0/24",   "192.0.2.0/24",
                          "198.51.100.0/24",  "2001:db8::/48", "2001:db8:ffff::/48"};
  for (std::size_t i = 0; i < std::size(blocks); ++i) {
    const netaddr::Prefix block = netaddr::Prefix::Parse(blocks[i]);
    // Blocks 0 and 3 are in both datasets, 1 and 4 beacon-only, 2 and 5
    // demand-only; the even beacon blocks classify cellular (ratio 0.75).
    if (i % 3 != 2) {
      const std::uint64_t cellular = i % 2 == 0 ? 6 : 2;
      beacons.Add(block, {.hits = 10 + i, .netinfo_hits = 8, .cellular_labels = cellular,
                          .wifi_labels = 8 - cellular, .mobile_browser_hits = i});
    }
    if (i % 3 != 1) demand.Add(block, 1.0 + static_cast<double>(i));
  }
  demand.Add(netaddr::Prefix::Parse("203.0.113.0/24"), 0.5);  // demand-only, unrouted
  demand.Normalize();
  const core::ClassifiedSubnets classified = core::SubnetClassifier().Classify(beacons);
  core::AsFilterOutcome filtered;
  for (const asdb::AsNumber asn : {64500u, 64502u}) filtered.kept.emplace_back().asn = asn;

  ArtifactRefs refs;
  refs.rib = &rib;
  refs.as_db = &as_db;
  refs.beacons = &beacons;
  refs.demand = &demand;
  refs.classified = &classified;
  refs.filtered = &filtered;
  refs.excluded_isos = {"XX"};
  ExpectMatchesReference(refs);

  // The join resolved what the fixture says, not merely what the
  // reference does.
  exec::Executor executor(2);
  const TableSet tables = BuildTables(refs, executor);
  // Demand normalises raw 1 + 3 + 4 + 6 + 0.5 = 14.5 to 100,000 DU.
  EXPECT_EQ(RenderCsv(tables.demand),
            "block,family,asn,country,continent,du,cellular,kept,excluded,in_beacon,cell_du\n"
            "10.0.0.0/24,v4,64500,XX,AS,6896.551724,1,1,1,1,6896.551724\n"
            "192.0.2.0/24,v4,64502,,,20689.655172,0,1,0,0,0.000000\n"
            "198.51.100.0/24,v4,0,,,27586.206897,0,0,0,1,0.000000\n"
            "2001:db8:ffff::/48,v6,64503,DE,EU,41379.310345,0,0,0,0,0.000000\n"
            "203.0.113.0/24,v4,0,,,3448.275862,0,0,0,0,0.000000\n");
  EXPECT_EQ(RenderCsv(tables.beacon),
            "block,family,asn,country,continent,hits,netinfo_hits,cellular_labels,wifi_labels,"
            "ethernet_labels,other_labels,mobile_browser_hits,ratio,du,cellular\n"
            "10.0.0.0/24,v4,64500,XX,AS,10,8,6,2,0,0,0,0.750000,6896.551724,1\n"
            "10.0.1.0/24,v4,64501,,EU,11,8,2,6,0,0,1,0.250000,0.000000,0\n"
            "198.51.100.0/24,v4,0,,,13,8,2,6,0,0,3,0.250000,27586.206897,0\n"
            "2001:db8::/48,v6,64503,DE,EU,14,8,6,2,0,0,4,0.750000,0.000000,1\n");
}

TEST(QueryJoinDifferential, EmptyArtifacts) {
  const asdb::RoutingTable rib({{netaddr::Prefix::Parse("10.0.0.0/8"), 64500}});
  const dataset::BeaconDataset beacons;
  const dataset::DemandDataset demand;
  const core::ClassifiedSubnets classified;
  ArtifactRefs refs;
  refs.beacons = &beacons;
  refs.demand = &demand;
  refs.classified = &classified;
  ExpectMatchesReference(refs);  // no RIB
  refs.rib = &rib;
  ExpectMatchesReference(refs);
  exec::Executor executor(2);
  const TableSet tables = BuildTables(refs, executor);
  for (const char* name : {"beacon", "demand", "classified"}) {
    EXPECT_EQ(tables.Find(name).row_count(), 0u) << name;
  }
}

TEST(QueryJoinDifferential, OneRowPerTable) {
  asdb::AsDatabase as_db;
  as_db.Upsert({.asn = 64500, .name = "A", .country_iso = "DE",
                .continent = geo::Continent::kEurope});
  const asdb::RoutingTable rib({{netaddr::Prefix::Parse("10.0.0.0/8"), 64500}});
  const netaddr::Prefix block = netaddr::Prefix::Parse("10.1.2.0/24");
  dataset::BeaconDataset beacons;
  beacons.Add(block, {.hits = 9, .netinfo_hits = 4, .cellular_labels = 3, .wifi_labels = 1});
  dataset::DemandDataset demand;
  demand.Add(block, 2.5);
  const core::ClassifiedSubnets classified = core::SubnetClassifier().Classify(beacons);
  ASSERT_EQ(classified.ratios().size(), 1u);
  core::AsFilterOutcome filtered;
  filtered.kept.emplace_back().asn = 64500;

  ArtifactRefs refs;
  refs.rib = &rib;
  refs.as_db = &as_db;
  refs.beacons = &beacons;
  refs.demand = &demand;
  refs.classified = &classified;
  refs.filtered = &filtered;
  ExpectMatchesReference(refs);
  exec::Executor executor(8);
  const TableSet tables = BuildTables(refs, executor);
  for (const char* name : {"beacon", "demand", "classified"}) {
    const Table& table = tables.Find(name);
    ASSERT_EQ(table.row_count(), 1u) << name;
    EXPECT_EQ(table.FindColumn("asn")->u64, std::vector<std::uint64_t>{64500}) << name;
    EXPECT_EQ(table.FindColumn("block")->prefix, std::vector<netaddr::Prefix>{block}) << name;
  }
}

}  // namespace
}  // namespace cellspot::query
