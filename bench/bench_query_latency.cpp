// Query engine latency benchmark.
//
// Each rep is a COLD query session against on-disk snapshots: decode the
// world/datasets/classified containers, build the columnar tables, run
// all three paper presets plus one ad-hoc grouped plan. The snapshots
// are written once outside the timed region, so rep wall times measure
// decode + table build + plan evaluation only. Each stage is a span
// ("query.load_bundle", "query.build_tables", then "query.filter" …
// "query.sort"); its row (n, total, min, max) accumulates in the metrics
// registry and lands in the --json-out / --metrics-out documents.
#include <cstdio>
#include <filesystem>
#include <string_view>

#include "bench_common.hpp"
#include "cellspot/query/engine.hpp"
#include "cellspot/query/presets.hpp"
#include "cellspot/query/source.hpp"
#include "cellspot/snapshot/serde.hpp"
#include "cellspot/snapshot/snapshot.hpp"

namespace {

using namespace cellspot;

void PrintStage(const obs::MetricsSnapshot& snap, std::string_view path) {
  obs::MetricsSnapshot::SpanRow row;
  for (const obs::MetricsSnapshot::SpanRow& r : snap.spans) {
    if (r.path == path) row = r;
  }
  const double mean = row.count > 0 ? row.total_ms / static_cast<double>(row.count) : 0.0;
  std::printf("  %-18.*s n=%-4llu mean %7.3f ms  min %7.3f ms  max %7.3f ms\n",
              static_cast<int>(path.size()), path.data(),
              static_cast<unsigned long long>(row.count), mean, row.min_ms, row.max_ms);
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
    std::printf("per-stage spans (cumulative across executions):\n");
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
    for (const char* stage : {"query.load_bundle", "query.build_tables", "query.filter",
                              "query.group", "query.aggregate", "query.sort"}) {
      PrintStage(snap, stage);
    }
    return rows;
  });
  std::filesystem::remove_all(dir);
  return rc;
}
