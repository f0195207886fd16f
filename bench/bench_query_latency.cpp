// Query engine latency benchmark.
//
// Each rep is a COLD query session against on-disk snapshots: decode the
// world/datasets/classified containers, build the columnar tables, run
// all three paper presets plus one ad-hoc grouped plan. The snapshots
// are written once outside the timed region, so rep wall times measure
// decode + table build + plan evaluation only. Per-stage latencies
// ("query.load_bundle", "query.build_tables", then "query.filter" …
// "query.sort") accumulate in the metrics registry and land in the
// --json-out / --metrics-out documents as histograms.
#include <cstdio>
#include <filesystem>

#include "bench_common.hpp"
#include "cellspot/query/engine.hpp"
#include "cellspot/query/presets.hpp"
#include "cellspot/query/source.hpp"
#include "cellspot/snapshot/serde.hpp"
#include "cellspot/snapshot/snapshot.hpp"

namespace {

using namespace cellspot;

void PrintStage(const char* name) {
  const obs::LatencyHistogram& h = obs::MetricsRegistry::Global().latency(name);
  std::printf("  %-18s n=%-4llu p50 %7.3f ms  p90 %7.3f ms  max %7.3f ms\n", name,
              static_cast<unsigned long long>(h.count()), h.ApproxQuantileMs(0.5),
              h.ApproxQuantileMs(0.9), h.max_ms());
}

}  // namespace

int main(int argc, char** argv) {
  const simnet::WorldConfig config = simnet::WorldConfig::Tiny();
  const analysis::Experiment exp = analysis::RunExperiment(config);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "cellspot_bench_query_snaps";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::filesystem::path world_path = dir / "world.snap";
  const std::filesystem::path datasets_path = dir / "datasets.snap";
  const std::filesystem::path classified_path = dir / "classified.snap";
  snapshot::WriteSnapshotFile(world_path, snapshot::EncodeWorld(exp.world));
  snapshot::WriteSnapshotFile(datasets_path,
                              snapshot::EncodeDatasets(exp.beacons, exp.demand));
  snapshot::WriteSnapshotFile(classified_path,
                              snapshot::EncodeClassified(exp.classified));

  const int rc = bench::RunBench(argc, argv, "query_latency", [&]() -> std::uint64_t {
    exec::Executor& executor = exec::Executor::Shared();
    const query::SnapshotBundle bundle = query::LoadBundleFromFiles(
        world_path, datasets_path, classified_path, {}, executor);
    const query::TableSet tables = query::BuildTables(bundle, executor);

    std::uint64_t rows = 0;
    for (const query::Preset preset :
         {query::Preset::kTable2, query::Preset::kFig2Cdf, query::Preset::kCountryShare}) {
      rows += query::RunPreset(preset, tables, executor).row_count();
    }

    // Ad-hoc plan: top-20 ASes by cellular demand — the CLI's
    // `--group-by asn --agg sum(cell_du),sum(du) --top 20` example.
    query::Plan plan;
    plan.filters.push_back({"kept", query::CompareOp::kEq, query::Value::U64(1)});
    plan.group_by = {"asn"};
    plan.aggregates.push_back({query::AggKind::kSum, "cell_du", 0.5, ""});
    plan.aggregates.push_back({query::AggKind::kSum, "du", 0.5, ""});
    plan.order_by.push_back({"sum(cell_du)", true});
    plan.limit = 20;
    rows += query::Engine(tables.demand, executor).Run(plan).row_count();

    bench::PrintHeader("query_latency", "cold snapshot load + presets + ad-hoc plan",
                       config);
    std::printf("world: %zu demand blocks, %zu beacon blocks\n",
                bundle.demand.block_count(), bundle.beacons.block_count());
    std::printf("per-stage latency (cumulative across executions):\n");
    PrintStage("query.load_bundle");
    PrintStage("query.build_tables");
    PrintStage("query.filter");
    PrintStage("query.group");
    PrintStage("query.aggregate");
    PrintStage("query.sort");
    return rows;
  });
  std::filesystem::remove_all(dir);
  return rc;
}
