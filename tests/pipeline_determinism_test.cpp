// The pipeline's central guarantee: every stage produces byte-identical
// output at any thread count, so "turn on threads" is never a science
// decision. Also covers the staged API itself — on-demand prerequisites,
// one pipeline.<stage> span per executed stage, re-run invalidation —
// and the CELLSPOT_SCALE guard.
#include "cellspot/analysis/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cellspot/analysis/export.hpp"
#include "cellspot/analysis/reports.hpp"
#include "cellspot/evolution/churn.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/obs/metrics.hpp"

namespace cellspot {
namespace {

analysis::Pipeline::Config TestConfig() {
  return {.world = simnet::WorldConfig::Tiny(), .classifier = {}, .filters = {}, .snapshot_dir = {}};
}

std::string BeaconCsv(const analysis::Experiment& e) {
  std::ostringstream out;
  e.beacons.SaveCsv(out);
  return out.str();
}

std::string DemandCsv(const analysis::Experiment& e) {
  std::ostringstream out;
  e.demand.SaveCsv(out);
  return out.str();
}

std::vector<asdb::AsNumber> KeptAsns(const analysis::Experiment& e) {
  std::vector<asdb::AsNumber> asns;
  for (const core::AsAggregate& as : e.filtered.kept) asns.push_back(as.asn);
  return asns;
}

using StageRuns = std::map<std::string, std::uint64_t>;

/// Executions per pipeline stage since the global registry's last
/// reset, read from the "pipeline.<stage>" span rows.
StageRuns RecordedStageRuns() {
  StageRuns runs;
  for (const auto& row : obs::MetricsRegistry::Global().Snapshot().spans) {
    const std::string_view path = row.path;
    const std::string_view leaf = path.substr(path.rfind('/') + 1);
    if (leaf.starts_with("pipeline.")) {
      runs[std::string(leaf.substr(std::string_view("pipeline.").size()))] += row.count;
    }
  }
  return runs;
}

const StageRuns kEveryStageOnce = {{"aggregate", 1}, {"build_world", 1},
                                   {"classify", 1},  {"compile_lpm", 1},
                                   {"filter", 1},    {"generate_datasets", 1}};

TEST(PipelineDeterminism, IdenticalResultsAtOneTwoAndEightThreads) {
  exec::Executor ex1(1);
  analysis::Pipeline reference(TestConfig(), ex1);
  reference.Run();
  const analysis::Experiment& ref = reference.experiment();

  for (const unsigned threads : {2u, 8u}) {
    exec::Executor ex(threads);
    analysis::Pipeline pipeline(TestConfig(), ex);
    pipeline.Run();
    const analysis::Experiment& e = pipeline.experiment();

    // World: same subnets in the same order with the same labels.
    ASSERT_EQ(e.world.subnets().size(), ref.world.subnets().size());
    for (std::size_t i = 0; i < ref.world.subnets().size(); ++i) {
      const simnet::Subnet& a = ref.world.subnets()[i];
      const simnet::Subnet& b = e.world.subnets()[i];
      ASSERT_EQ(a.block, b.block) << "subnet " << i << " threads " << threads;
      ASSERT_EQ(a.asn, b.asn);
      ASSERT_EQ(a.truth_cellular, b.truth_cellular);
      ASSERT_EQ(a.demand_du, b.demand_du);
    }

    // Datasets: CSV exports are byte-identical (same content AND same
    // unordered-map iteration order, i.e. same insertion sequence).
    EXPECT_EQ(BeaconCsv(e), BeaconCsv(ref)) << "threads " << threads;
    EXPECT_EQ(DemandCsv(e), DemandCsv(ref)) << "threads " << threads;

    // Classification: identical cellular sets and per-block ratios.
    EXPECT_TRUE(std::ranges::equal(e.classified.cellular(), ref.classified.cellular()));
    EXPECT_TRUE(std::ranges::equal(e.classified.ratios(), ref.classified.ratios()));

    // Aggregation + filtering: identical candidate and kept AS lists in
    // identical order, and identical removal accounting.
    ASSERT_EQ(e.candidates.size(), ref.candidates.size());
    for (std::size_t i = 0; i < ref.candidates.size(); ++i) {
      ASSERT_EQ(e.candidates[i].asn, ref.candidates[i].asn);
      ASSERT_EQ(e.candidates[i].cell_demand_du, ref.candidates[i].cell_demand_du);
    }
    EXPECT_EQ(KeptAsns(e), KeptAsns(ref));
    EXPECT_EQ(e.filtered.removed_low_demand, ref.filtered.removed_low_demand);
    EXPECT_EQ(e.filtered.removed_low_hits, ref.filtered.removed_low_hits);
    EXPECT_EQ(e.filtered.removed_class, ref.filtered.removed_class);
  }
}

/// Every figure writer that depends only on the experiment, in one
/// stream: any unordered iteration in the report/export layer would
/// show up as a byte diff between thread counts.
std::string FigureCsvBundle(const analysis::Experiment& e, exec::Executor& executor) {
  constexpr auto kCsv = util::TableFormat::kCsv;
  std::ostringstream out;
  analysis::WriteFig2Csv(e, out, kCsv, executor);
  analysis::WriteFig4Csv(e, out);
  analysis::WriteFig5Csv(e, out);
  analysis::WriteFig6Csv(e, out, kCsv, executor);
  analysis::WriteFig7Csv(e, out);
  analysis::WriteFig8Csv(e, out, kCsv, executor);
  analysis::WriteCountryCsv(e, out, kCsv, executor);
  return out.str();
}

TEST(PipelineDeterminism, ReportsExportsAndChurnAreThreadCountInvariant) {
  exec::Executor ex1(1);
  analysis::Pipeline reference(TestConfig(), ex1);
  reference.Run();
  const analysis::Experiment& ref = reference.experiment();

  exec::Executor ex8(8);
  analysis::Pipeline pipeline(TestConfig(), ex8);
  pipeline.Run();
  const analysis::Experiment& e = pipeline.experiment();

  // Report layer: ranked-AS and per-country tables must match field by
  // field, in the same row order (reports.cpp iterates StableMaps).
  const auto ref_rank = analysis::RankAsesByCellDemand(ref);
  const auto rank = analysis::RankAsesByCellDemand(e);
  ASSERT_EQ(rank.size(), ref_rank.size());
  for (std::size_t i = 0; i < rank.size(); ++i) {
    EXPECT_EQ(rank[i].asn, ref_rank[i].asn) << "rank " << i;
    EXPECT_EQ(rank[i].country_iso, ref_rank[i].country_iso);
    EXPECT_EQ(rank[i].cell_demand_du, ref_rank[i].cell_demand_du);
    EXPECT_EQ(rank[i].share_of_global_cell, ref_rank[i].share_of_global_cell);
  }
  const auto ref_country = analysis::CountryDemandReport(ref, ex1);
  const auto country = analysis::CountryDemandReport(e, ex8);
  ASSERT_EQ(country.size(), ref_country.size());
  for (std::size_t i = 0; i < country.size(); ++i) {
    EXPECT_EQ(country[i].iso, ref_country[i].iso) << "row " << i;
    EXPECT_EQ(country[i].cell_du, ref_country[i].cell_du);
    EXPECT_EQ(country[i].total_du, ref_country[i].total_du);
  }

  // Export layer: the figure CSVs are byte-identical.
  EXPECT_EQ(FigureCsvBundle(e, ex8), FigureCsvBundle(ref, ex1));

  // Evolution layer: churn simulations seeded from worlds built at
  // different thread counts stay in lockstep (churn.cpp's pass-2
  // demand reallocation iterates StableMaps).
  evolution::TemporalSimulator sim_ref(ref.world);
  evolution::TemporalSimulator sim(e.world);
  for (int m = 0; m < 3; ++m) {
    sim_ref.AdvanceMonth();
    sim.AdvanceMonth();
  }
  EXPECT_EQ(sim.CellularDemand(), sim_ref.CellularDemand());
  EXPECT_EQ(sim.FixedDemand(), sim_ref.FixedDemand());
  std::ostringstream demand_ref, demand_run;
  sim_ref.GenerateDemand().SaveCsv(demand_ref);
  sim.GenerateDemand().SaveCsv(demand_run);
  EXPECT_EQ(demand_run.str(), demand_ref.str());
}

TEST(PipelineDeterminism, MatchesRunExperimentWrapper) {
  const analysis::Experiment direct = analysis::RunExperiment(TestConfig().world);

  exec::Executor ex(2);
  analysis::Pipeline pipeline(TestConfig(), ex);
  pipeline.Run();
  const analysis::Experiment& staged = pipeline.experiment();

  EXPECT_EQ(BeaconCsv(staged), BeaconCsv(direct));
  EXPECT_TRUE(std::ranges::equal(staged.classified.cellular(), direct.classified.cellular()));
  EXPECT_EQ(KeptAsns(staged), KeptAsns(direct));
}

TEST(PipelineStages, RunOnDemandAndRecordTimings) {
  obs::MetricsRegistry::Global().ResetForTest();
  analysis::Pipeline pipeline(TestConfig());
  // Asking for the last stage pulls in every prerequisite, once each.
  pipeline.Filter();
  EXPECT_EQ(RecordedStageRuns(), kEveryStageOnce);
  for (const auto& row : obs::MetricsRegistry::Global().Snapshot().spans) {
    if (row.depth != 0 || !row.path.starts_with("pipeline.")) continue;
    EXPECT_GE(row.total_ms, 0.0) << row.path;
    EXPECT_GT(row.items, 0u) << row.path;
  }

  // Re-running a cached stage is a no-op: no new stage spans.
  pipeline.Filter();
  pipeline.Classify();
  EXPECT_EQ(RecordedStageRuns(), kEveryStageOnce);
}

TEST(PipelineStages, SetClassifierInvalidatesDownstreamOnly) {
  obs::MetricsRegistry::Global().ResetForTest();
  analysis::Pipeline pipeline(TestConfig());
  pipeline.Run();
  const std::size_t baseline_cellular = pipeline.experiment().classified.cellular().size();

  // A maximally strict classifier: no block has this much evidence.
  pipeline.set_classifier({.threshold = 1.0, .min_netinfo_hits = 1000000000});
  EXPECT_EQ(RecordedStageRuns(), kEveryStageOnce);  // nothing re-ran yet
  pipeline.Run();
  EXPECT_EQ(pipeline.experiment().classified.cellular().size(), 0u);
  EXPECT_TRUE(pipeline.experiment().filtered.kept.empty());
  // World + datasets were kept: only classify/aggregate/filter re-ran.
  StageRuns want = kEveryStageOnce;
  want["classify"] = want["aggregate"] = want["filter"] = 2;
  EXPECT_EQ(RecordedStageRuns(), want);

  // Restoring the default reproduces the original classification.
  pipeline.set_classifier({});
  pipeline.Run();
  EXPECT_EQ(pipeline.experiment().classified.cellular().size(), baseline_cellular);
}

TEST(PipelineStages, SetFiltersInvalidatesOnlyFilter) {
  obs::MetricsRegistry::Global().ResetForTest();
  analysis::Pipeline pipeline(TestConfig());
  pipeline.Run();
  const std::size_t candidates = pipeline.experiment().candidates.size();
  ASSERT_GT(candidates, 0u);

  core::AsFilterConfig none;
  none.min_cell_demand_du = 0.0;
  none.min_beacon_hits = 0;
  none.require_transit_access_class = false;
  pipeline.set_filters(none);
  pipeline.Run();
  // With every rule disabled the kept set is exactly the candidate set.
  EXPECT_EQ(pipeline.experiment().filtered.kept.size(), candidates);
  StageRuns want = kEveryStageOnce;
  want["filter"] = 2;  // only filter re-ran
  EXPECT_EQ(RecordedStageRuns(), want);
}

TEST(PaperScale, EnvOverridesAndRejectsGarbage) {
  ::unsetenv("CELLSPOT_SCALE");
  EXPECT_EQ(analysis::PaperScaleFromEnv(0.05), 0.05);

  ::setenv("CELLSPOT_SCALE", "0.02", 1);
  EXPECT_EQ(analysis::PaperScaleFromEnv(0.05), 0.02);

  for (const char* bad : {"abc", "0", "-1", "0x5"}) {
    ::setenv("CELLSPOT_SCALE", bad, 1);
    EXPECT_THROW((void)analysis::PaperScaleFromEnv(0.05), std::invalid_argument)
        << "value '" << bad << "'";
  }
  ::unsetenv("CELLSPOT_SCALE");
}

}  // namespace
}  // namespace cellspot
