// generate: build a synthetic world and export its datasets as CSV
// (beacon.csv, demand.csv, rib.csv, asdb.csv, truth.csv).
#include <cstdio>
#include <fstream>
#include <string>

#include "cellspot/analysis/pipeline.hpp"
#include "cellspot/asdb/serialization.hpp"
#include "cellspot/simnet/world.hpp"
#include "cellspot/util/csv.hpp"
#include "cli/command.hpp"
#include "cli/exit_codes.hpp"
#include "cli/ingest.hpp"
#include "cli/options.hpp"

namespace cellspot::cli {

int CmdGenerate(const Options& opts) {
  const auto dir = OutputDir(opts, "generate");
  if (!dir) return kExitUsage;
  simnet::WorldConfig config =
      opts.Has("tiny") ? simnet::WorldConfig::Tiny()
                       : simnet::WorldConfig::Paper(opts.GetDouble("scale", 0.01));
  config.seed = opts.GetUint("seed", config.seed);

  std::printf("generating world (scale %.3g, seed %llu)...\n", config.scale,
              static_cast<unsigned long long>(config.seed));
  analysis::Pipeline pipeline({.world = config, .snapshot_dir = SnapshotDir(opts)});
  pipeline.GenerateDatasets();
  const simnet::World& world = pipeline.experiment().world;
  const auto& beacons = pipeline.experiment().beacons;
  const auto& demand = pipeline.experiment().demand;

  auto save = [&](const std::string& name, auto writer) -> bool {
    const std::string path = *dir + "/" + name;
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    writer(out);
    std::printf("  wrote %s\n", path.c_str());
    return true;
  };

  const bool ok =
      save("beacon.csv", [&](std::ostream& out) { beacons.SaveCsv(out); }) &&
      save("demand.csv", [&](std::ostream& out) { demand.SaveCsv(out); }) &&
      save("asdb.csv",
           [&](std::ostream& out) { asdb::SaveAsDatabaseCsv(world.as_db(), out); }) &&
      save("rib.csv",
           [&](std::ostream& out) { asdb::SaveRoutingTableCsv(world.rib(), out); }) &&
      save("truth.csv", [&](std::ostream& out) {
        util::CsvWriter writer(out);
        writer.WriteRow({"block", "asn", "cellular"});
        for (const simnet::Subnet& s : world.subnets()) {
          writer.WriteRow({s.block.ToString(), std::to_string(s.asn),
                           s.truth_cellular ? "1" : "0"});
        }
      });
  return ok ? kExitOk : kExitError;
}

}  // namespace cellspot::cli
