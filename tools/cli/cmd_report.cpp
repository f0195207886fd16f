// report: country-level cellular demand summary. Since the query-engine
// redesign this command is a thin client of query::Engine — the CSV
// inputs are joined into the columnar demand table and the summary is
// one grouped plan, so `report` and `cellspot query --preset
// country_share` share every line of evaluation code.
#include <cstdio>
#include <string>
#include <utility>

#include "cellspot/core/as_pipeline.hpp"
#include "cellspot/core/classifier.hpp"
#include "cellspot/core/sharded_aggregation.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/query/engine.hpp"
#include "cellspot/query/plan.hpp"
#include "cellspot/query/source.hpp"
#include "cellspot/util/sink.hpp"
#include "cellspot/util/strings.hpp"
#include "cli/command.hpp"
#include "cli/exit_codes.hpp"
#include "cli/ingest.hpp"
#include "cli/options.hpp"
#include "cli/output.hpp"

namespace cellspot::cli {

int CmdReport(const Options& opts) {
  auto inputs = LoadInputs(opts);
  if (!inputs) return kExitError;

  const auto classified = core::SubnetClassifier().Classify(inputs->beacons);
  auto candidates = core::AggregateCandidateAsesSharded(
      inputs->rib, classified, inputs->beacons, inputs->demand, exec::Executor::Shared());
  const auto outcome = core::ApplyAsFilters(std::move(candidates), inputs->as_db);

  query::ArtifactRefs refs;
  refs.rib = &inputs->rib;
  refs.as_db = &inputs->as_db;
  refs.beacons = &inputs->beacons;
  refs.demand = &inputs->demand;
  refs.classified = &classified;
  refs.filtered = &outcome;
  const query::TableSet tables = query::BuildTables(refs, exec::Executor::Shared());

  query::Plan plan;
  plan.filters.push_back(
      {"country", query::CompareOp::kNe, query::Value::Str("")});
  plan.group_by = {"country"};
  plan.aggregates.push_back({query::AggKind::kSum, "cell_du", 0.5, "cell_du"});
  plan.aggregates.push_back({query::AggKind::kSum, "du", 0.5, "total_du"});
  plan.order_by.push_back({"country", false});
  const query::Table result = query::Engine(tables.demand).Run(plan);

  auto target = MakeSinkTarget(opts, util::TableFormat::kHuman);
  if (!target) return kExitError;
  auto sink = target->MakeSink("Cellular demand by country");
  sink->Begin({"country", "total_du", "cell_du", "cell_percent"});
  const query::Column* iso = result.FindColumn("country");
  const query::Column* cell = result.FindColumn("cell_du");
  const query::Column* total = result.FindColumn("total_du");
  double world_cell = 0.0;
  double world_total = 0.0;
  for (std::size_t i = 0; i < iso->size(); ++i) {
    world_cell += cell->f64[i];
    world_total += total->f64[i];
    sink->Row({std::string(iso->Str(i)), util::FormatDouble(total->f64[i], 1),
               util::FormatDouble(cell->f64[i], 1),
               util::FormatPercent(total->f64[i] > 0 ? cell->f64[i] / total->f64[i] : 0.0,
                                   1)});
  }
  sink->End();
  std::fprintf(stderr, "Global: %s cellular of %.0f DU | cellular ASes kept: %zu\n",
               util::FormatPercent(world_total > 0 ? world_cell / world_total : 0.0, 1)
                   .c_str(),
               world_total, outcome.kept.size());
  return kExitOk;
}

}  // namespace cellspot::cli
