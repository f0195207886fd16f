// classify: per-block cellular classification from a beacon CSV.
#include <cstdio>
#include <optional>
#include <string>

#include "cellspot/core/classifier.hpp"
#include "cellspot/dataset/beacon_dataset.hpp"
#include "cellspot/util/sink.hpp"
#include "cellspot/util/strings.hpp"
#include "cli/command.hpp"
#include "cli/exit_codes.hpp"
#include "cli/ingest.hpp"
#include "cli/options.hpp"
#include "cli/output.hpp"

namespace cellspot::cli {

int CmdClassify(const Options& opts) {
  auto ingest = MakeIngestSetup(opts);
  if (!ingest) return kExitUsage;
  std::optional<dataset::BeaconDataset> beacons;
  try {
    beacons = LoadFile<dataset::BeaconDataset>(opts, "beacons", [&](std::istream& in) {
      return dataset::BeaconDataset::LoadCsv(in,
                                             util::LoadOptions{.report = &ingest->report});
    });
  } catch (...) {
    ingest->PrintSummary();
    throw;
  }
  ingest->PrintSummary();
  if (!beacons) return kExitError;

  core::ClassifierConfig config;
  config.threshold = opts.GetDouble("threshold", 0.5);
  config.min_netinfo_hits = opts.GetUint("min-hits", 1);
  const core::SubnetClassifier classifier(config);
  const auto classified = classifier.Classify(*beacons);

  auto target = MakeSinkTarget(opts, util::TableFormat::kCsv);
  if (!target) return kExitError;
  auto sink = target->MakeSink("classified blocks");
  sink->Begin({"block", "ratio", "netinfo_hits", "cellular"});
  for (const auto& [block, s] : beacons->rows()) {
    if (s.netinfo_hits < config.min_netinfo_hits) continue;
    sink->Row({block.ToString(), util::FormatDouble(s.CellularRatio(), 4),
               std::to_string(s.netinfo_hits),
               classified.IsCellular(block) ? "1" : "0"});
  }
  sink->End();
  std::fprintf(stderr, "classified %zu blocks, %zu cellular (threshold %.2f)\n",
               classified.ratios().size(), classified.cellular().size(),
               config.threshold);
  return kExitOk;
}

}  // namespace cellspot::cli
