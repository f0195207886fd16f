// figures: run the full pipeline and export every paper figure series.
#include <cstdio>
#include <utility>

#include "cellspot/analysis/export.hpp"
#include "cellspot/analysis/pipeline.hpp"
#include "cellspot/dns/dns_simulator.hpp"
#include "cellspot/exec/executor.hpp"
#include "cellspot/util/sink.hpp"
#include "cli/command.hpp"
#include "cli/exit_codes.hpp"
#include "cli/ingest.hpp"
#include "cli/options.hpp"

namespace cellspot::cli {

int CmdFigures(const Options& opts) {
  const auto dir = OutputDir(opts, "figures");
  if (!dir) return kExitUsage;
  util::TableFormat format = util::TableFormat::kCsv;
  if (const auto name = opts.Get("format"); name && !name->empty()) {
    const auto parsed = util::ParseTableFormat(*name);
    if (!parsed) {
      throw OptionError("--format: expected csv|json|human, got '" + *name + "'");
    }
    format = *parsed;
  }
  simnet::WorldConfig config = simnet::WorldConfig::Paper(opts.GetDouble("scale", 0.01));
  config.seed = opts.GetUint("seed", config.seed);
  std::printf("running pipeline (scale %.3g)...\n", config.scale);
  analysis::Pipeline pipeline({.world = config, .snapshot_dir = SnapshotDir(opts)});
  pipeline.Run();
  exec::Executor& executor = pipeline.executor();
  const analysis::Experiment exp = std::move(pipeline).TakeExperiment();
  const dns::DnsSimulator dns_sim(exp.world);
  try {
    for (const std::string& file :
         analysis::ExportAllFigures(exp, dns_sim, *dir, format, executor)) {
      std::printf("  wrote %s\n", file.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return kExitError;
  }
  return kExitOk;
}

}  // namespace cellspot::cli
