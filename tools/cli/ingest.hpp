// Shared ingestion plumbing for the CSV-input subcommands: the
// --on-error/--max-error-rate/--quarantine-file policy, fault-annotated
// file loading, and the beacon/demand/rib/asdb input bundle.
#pragma once

#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>

#include "cellspot/asdb/as_database.hpp"
#include "cellspot/dataset/beacon_dataset.hpp"
#include "cellspot/dataset/demand_dataset.hpp"
#include "cellspot/util/error.hpp"
#include "cellspot/util/ingest.hpp"
#include "cli/options.hpp"

namespace cellspot::cli {

/// Per-run ingestion state. One report (and budget) spans every input
/// file of the command.
struct IngestSetup {
  util::IngestReport report;
  std::ofstream quarantine;
  std::string quarantine_path;

  /// Print the per-category rejection table to stderr (lenient modes).
  void PrintSummary() const;
};

/// Build from the ingestion flags; nullptr (after printing the problem)
/// on a bad flag value. Heap-allocated: the report holds a pointer to
/// the quarantine stream, so the setup's address must never move.
std::unique_ptr<IngestSetup> MakeIngestSetup(const Options& opts);

/// Open the file `--<key>` names and run `loader` on it, annotating
/// parse/budget errors with the path. nullopt (after printing) when the
/// flag is missing or the file cannot be opened.
template <typename T, typename Loader>
std::optional<T> LoadFile(const Options& opts, const std::string& key, Loader loader) {
  const auto path = opts.Get(key);
  if (!path || path->empty()) {
    std::fprintf(stderr, "missing --%s FILE\n", key.c_str());
    return std::nullopt;
  }
  std::ifstream in(*path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path->c_str());
    return std::nullopt;
  }
  try {
    return loader(in);
  } catch (const util::IngestBudgetError& e) {
    // Prepend the path; main maps the exception type to its exit code.
    throw util::IngestBudgetError(*path + ": " + e.what());
  } catch (const ParseError& e) {
    throw ParseError(*path + ": " + e.what(), e.category());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "failed to load %s: %s\n", path->c_str(), e.what());
    throw;
  }
}

/// The four CSV inputs the ases/report commands join.
struct PipelineInputs {
  dataset::BeaconDataset beacons;
  dataset::DemandDataset demand;
  asdb::RoutingTable rib;
  asdb::AsDatabase as_db;
};

std::optional<PipelineInputs> LoadInputs(const Options& opts);

/// Snapshot-cache directory for simulator-backed commands:
/// --snapshot-dir wins, else CELLSPOT_SNAPSHOT_DIR, else "" (off).
std::string SnapshotDir(const Options& opts);

/// The directory --out names, for the commands that write their files
/// into it (generate, figures). nullopt, after printing why, when the
/// flag is missing or names no existing directory: the caller exits
/// kExitUsage before any work, so a bad --out costs no run and leaves
/// the snapshot cache untouched.
std::optional<std::string> OutputDir(const Options& opts, const char* command);

}  // namespace cellspot::cli
