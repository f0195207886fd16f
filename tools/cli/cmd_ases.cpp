// ases: run the AS pipeline (aggregate + the three §6 filters).
#include <cstdio>
#include <string>
#include <utility>

#include "cellspot/core/as_pipeline.hpp"
#include "cellspot/core/classifier.hpp"
#include "cellspot/core/sharded_aggregation.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/util/sink.hpp"
#include "cellspot/util/strings.hpp"
#include "cli/command.hpp"
#include "cli/exit_codes.hpp"
#include "cli/ingest.hpp"
#include "cli/options.hpp"
#include "cli/output.hpp"

namespace cellspot::cli {

int CmdAses(const Options& opts) {
  auto inputs = LoadInputs(opts);
  if (!inputs) return kExitError;

  core::ClassifierConfig classifier_config;
  classifier_config.threshold = opts.GetDouble("threshold", 0.5);
  const auto classified =
      core::SubnetClassifier(classifier_config).Classify(inputs->beacons);
  auto candidates = core::AggregateCandidateAsesSharded(
      inputs->rib, classified, inputs->beacons, inputs->demand, exec::Executor::Shared());

  core::AsFilterConfig filter_config;
  filter_config.min_cell_demand_du = opts.GetDouble("min-demand", 0.1);
  filter_config.min_beacon_hits = opts.GetUint("min-hits", 300);
  filter_config.require_transit_access_class = !opts.Has("no-class-rule");
  const auto outcome =
      core::ApplyAsFilters(std::move(candidates), inputs->as_db, filter_config);

  std::fprintf(stderr,
               "candidates %zu -> removed %zu (demand) + %zu (hits) + %zu (class) "
               "-> kept %zu\n",
               outcome.input_count, outcome.removed_low_demand,
               outcome.removed_low_hits, outcome.removed_class, outcome.kept.size());

  auto target = MakeSinkTarget(opts, util::TableFormat::kCsv);
  if (!target) return kExitError;
  auto sink = target->MakeSink("cellular ASes");
  sink->Begin({"asn", "name", "country", "cell_blocks", "cell_demand_du", "cfd",
               "dedicated"});
  for (const core::AsAggregate& as : outcome.kept) {
    const asdb::AsRecord* record = inputs->as_db.Find(as.asn);
    sink->Row({std::to_string(as.asn), record != nullptr ? record->name : "",
               record != nullptr ? record->country_iso : "",
               std::to_string(as.cell_blocks_v4 + as.cell_blocks_v6),
               util::FormatDouble(as.cell_demand_du, 4),
               util::FormatDouble(as.Cfd(), 4), core::IsDedicated(as) ? "1" : "0"});
  }
  sink->End();
  return kExitOk;
}

}  // namespace cellspot::cli
