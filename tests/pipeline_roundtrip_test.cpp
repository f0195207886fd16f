// Full-pipeline persistence contract (what the CLI relies on): export a
// world's datasets to CSV, reload everything from disk, re-run the
// pipeline on the loaded artifacts, and obtain the same result as the
// in-memory run.
#include <gtest/gtest.h>

#include <fstream>
#include <set>

#include "cellspot/analysis/experiment.hpp"
#include "cellspot/asdb/serialization.hpp"
#include "cellspot/cdn/beacon_log.hpp"
#include "cellspot/core/sharded_aggregation.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/util/csv.hpp"
#include "cellspot/util/rng.hpp"

namespace cellspot {
namespace {

TEST(PipelineRoundTrip, CsvPathMatchesInMemoryPath) {
  const analysis::Experiment mem = analysis::RunExperiment(simnet::WorldConfig::Tiny());
  const std::string dir = ::testing::TempDir();

  // Export the four artifacts the consumer pipeline needs.
  {
    std::ofstream out(dir + "/beacon.csv");
    mem.beacons.SaveCsv(out);
  }
  {
    std::ofstream out(dir + "/demand.csv");
    mem.demand.SaveCsv(out);
  }
  {
    std::ofstream out(dir + "/asdb.csv");
    asdb::SaveAsDatabaseCsv(mem.world.as_db(), out);
  }
  {
    std::ofstream out(dir + "/rib.csv");
    asdb::SaveRoutingTableCsv(mem.world.rib(), out);
  }

  // Reload and re-run, simulator-free.
  std::ifstream beacon_in(dir + "/beacon.csv");
  const auto beacons = dataset::BeaconDataset::LoadCsv(beacon_in);
  std::ifstream demand_in(dir + "/demand.csv");
  const auto demand = dataset::DemandDataset::LoadCsv(demand_in);
  std::ifstream asdb_in(dir + "/asdb.csv");
  const auto as_db = asdb::LoadAsDatabaseCsv(asdb_in);
  std::ifstream rib_in(dir + "/rib.csv");
  const auto rib = asdb::LoadRoutingTableCsv(rib_in);

  const auto classified = core::SubnetClassifier().Classify(beacons);
  const auto candidates = core::AggregateCandidateAsesSharded(rib, classified, beacons, demand,
                                                              exec::Executor::Shared());
  const auto filtered = core::ApplyAsFilters(candidates, as_db);

  // Same classification...
  EXPECT_EQ(classified.cellular().size(), mem.classified.cellular().size());
  for (const netaddr::Prefix& block : mem.classified.cellular()) {
    EXPECT_TRUE(classified.IsCellular(block)) << block.ToString();
  }
  // ...same candidate set and same kept set.
  EXPECT_EQ(candidates.size(), mem.candidates.size());
  std::set<asdb::AsNumber> kept_mem;
  for (const auto& as : mem.filtered.kept) kept_mem.insert(as.asn);
  std::set<asdb::AsNumber> kept_csv;
  for (const auto& as : filtered.kept) kept_csv.insert(as.asn);
  EXPECT_EQ(kept_csv, kept_mem);
  // Demand-derived quantities survive the round trip within float noise.
  for (std::size_t i = 0; i < filtered.kept.size(); ++i) {
    EXPECT_NEAR(filtered.kept[i].cell_demand_du, mem.filtered.kept[i].cell_demand_du,
                1e-3)
        << filtered.kept[i].asn;
  }
}

TEST(ParserRobustness, GarbageNeverCrashes) {
  // Feed structured garbage to every external-input parser: they must
  // either parse or throw a typed error, never crash or accept nonsense.
  util::Rng rng(20260705);
  const char charset[] = "0123456789abcdef.:/-,x \"";
  for (int i = 0; i < 3000; ++i) {
    std::string junk;
    const auto len = rng.UniformInt(0, 40);
    for (std::uint64_t c = 0; c < len; ++c) {
      junk.push_back(charset[rng.UniformInt(0, sizeof(charset) - 2)]);
    }
    // Non-throwing parsers must simply return empty.
    (void)netaddr::IpAddress::TryParse(junk);
    (void)netaddr::Prefix::TryParse(junk);
    // Throwing parsers must throw std::exception-derived types only.
    try {
      (void)cdn::ParseBeaconLogLine(junk);
    } catch (const std::exception&) {
    }
    try {
      (void)util::ParseCsvLine(junk);
    } catch (const std::exception&) {
    }
  }
}

}  // namespace
}  // namespace cellspot
