#include "cli/ingest.hpp"

#include <filesystem>
#include <system_error>
#include <utility>

#include "cellspot/analysis/pipeline.hpp"
#include "cellspot/asdb/serialization.hpp"

namespace cellspot::cli {

void IngestSetup::PrintSummary() const {
  if (report.policy() == util::IngestPolicy::kStrict) return;
  std::fprintf(stderr, "%s", report.RenderTable().c_str());
  if (!quarantine_path.empty() && report.lines_rejected() > 0) {
    std::fprintf(stderr, "quarantined %llu lines to %s\n",
                 static_cast<unsigned long long>(report.lines_rejected()),
                 quarantine_path.c_str());
  }
}

std::unique_ptr<IngestSetup> MakeIngestSetup(const Options& opts) {
  const std::string on_error = opts.GetOr("on-error", "fail");
  util::IngestPolicy policy;
  if (on_error == "fail") policy = util::IngestPolicy::kStrict;
  else if (on_error == "skip") policy = util::IngestPolicy::kSkip;
  else if (on_error == "quarantine") policy = util::IngestPolicy::kQuarantine;
  else {
    std::fprintf(stderr, "--on-error: expected fail|skip|quarantine, got '%s'\n",
                 on_error.c_str());
    return nullptr;
  }

  util::IngestLimits limits;
  limits.max_error_rate = opts.GetDouble("max-error-rate", 0.05);
  if (limits.max_error_rate < 0.0 || limits.max_error_rate > 1.0) {
    std::fprintf(stderr, "--max-error-rate: expected a fraction in [0,1]\n");
    return nullptr;
  }

  auto setup = std::make_unique<IngestSetup>();
  std::ostream* quarantine = nullptr;
  if (policy == util::IngestPolicy::kQuarantine) {
    setup->quarantine_path = opts.GetOr("quarantine-file", "cellspot.quarantine");
    setup->quarantine.open(setup->quarantine_path);
    if (!setup->quarantine) {
      std::fprintf(stderr, "cannot write quarantine file %s\n",
                   setup->quarantine_path.c_str());
      return nullptr;
    }
    quarantine = &setup->quarantine;
  }
  setup->report = util::IngestReport(policy, limits, quarantine);
  return setup;
}

std::optional<PipelineInputs> LoadInputs(const Options& opts) {
  auto ingest = MakeIngestSetup(opts);
  if (!ingest) return std::nullopt;
  std::optional<PipelineInputs> result;
  try {
    auto beacons =
        LoadFile<dataset::BeaconDataset>(opts, "beacons", [&](std::istream& in) {
          return dataset::BeaconDataset::LoadCsv(
              in, util::LoadOptions{.report = &ingest->report});
        });
    auto demand =
        LoadFile<dataset::DemandDataset>(opts, "demand", [&](std::istream& in) {
          return dataset::DemandDataset::LoadCsv(
              in, util::LoadOptions{.report = &ingest->report});
        });
    auto rib = LoadFile<asdb::RoutingTable>(opts, "rib", [&](std::istream& in) {
      return asdb::LoadRoutingTableCsv(in, util::LoadOptions{.report = &ingest->report});
    });
    auto as_db = LoadFile<asdb::AsDatabase>(opts, "asdb", [&](std::istream& in) {
      return asdb::LoadAsDatabaseCsv(in, util::LoadOptions{.report = &ingest->report});
    });
    if (beacons && demand && rib && as_db) {
      result = PipelineInputs{std::move(*beacons), std::move(*demand), std::move(*rib),
                              std::move(*as_db)};
    }
  } catch (...) {
    ingest->PrintSummary();
    throw;
  }
  ingest->PrintSummary();
  return result;
}

std::string SnapshotDir(const Options& opts) {
  return opts.GetOr("snapshot-dir", analysis::SnapshotDirFromEnv());
}

std::optional<std::string> OutputDir(const Options& opts, const char* command) {
  const auto dir = opts.Get("out");
  if (!dir || dir->empty()) {
    std::fprintf(stderr, "%s: missing --out DIR (must exist)\n", command);
    return std::nullopt;
  }
  std::error_code ec;
  if (!std::filesystem::is_directory(*dir, ec)) {
    std::fprintf(stderr, "%s: --out %s is not an existing directory\n", command, dir->c_str());
    return std::nullopt;
  }
  return dir;
}

}  // namespace cellspot::cli
