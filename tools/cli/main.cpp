// cellspot — command-line frontend to the Cell-Spotting pipeline.
//
// Dispatches argv[1] through the subcommand registry (command.cpp); each
// subcommand lives in its own cmd_*.cpp. classify/ases/report never
// touch the simulator: point them at CSVs exported from `generate`, or
// at files you produced from your own RUM logs and RIB dumps (the §2
// "easily replicated" workflow). `query` reads binary snapshots (or a
// stream checkpoint) and never invokes the pipeline at all.
#include <cstdio>
#include <string>

#include "cellspot/exec/executor.hpp"
#include "cellspot/obs/metrics.hpp"
#include "cellspot/query/error.hpp"
#include "cellspot/snapshot/snapshot.hpp"
#include "cellspot/util/error.hpp"
#include "cellspot/util/ingest.hpp"
#include "cli/command.hpp"
#include "cli/exit_codes.hpp"
#include "cli/options.hpp"

int main(int argc, char** argv) {
  using namespace cellspot;
  if (argc < 2) return cli::PrintUsage();
  const cli::Command* command = cli::FindCommand(argv[1]);
  const cli::Options opts(argc, argv, 2);
  if (command == nullptr || !opts.ok()) return cli::PrintUsage();
  try {
    // Global: worker count for every parallel stage (same effect as
    // CELLSPOT_THREADS). Must be applied before the first use of the
    // shared executor.
    const auto threads = opts.GetUint("threads", 0);
    if (opts.Has("threads") && (threads == 0 || threads > 1024)) {
      throw cli::OptionError("--threads: expected a positive thread count, got '" +
                             opts.GetOr("threads", "") + "'");
    }
    exec::Executor::SetDefaultThreadCount(static_cast<unsigned>(threads));
    // Global: dump a cellspot-metrics/2 snapshot at process exit when
    // --metrics-out FILE (or $CELLSPOT_METRICS) names a destination.
    obs::InstallMetricsExporterAtExit(opts.GetOr("metrics-out", ""));
    return command->run(opts);
  } catch (const cli::OptionError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return cli::kExitUsage;
  } catch (const util::IngestBudgetError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return cli::kExitBudgetExceeded;
  } catch (const ParseError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return cli::kExitParseFailure;
  } catch (const query::QueryError& e) {
    std::fprintf(stderr, "query error (%s): %s\n",
                 std::string(query::QueryErrorCodeName(e.code())).c_str(), e.what());
    return cli::kExitQuery;
  } catch (const snapshot::SnapshotError& e) {
    std::fprintf(stderr, "snapshot error (%s): %s\n",
                 std::string(snapshot::SnapshotErrorReasonName(e.reason())).c_str(),
                 e.what());
    return cli::kExitQuery;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return cli::kExitError;
  }
}
