// Snapshot-backed query sources: decode CSPT artifacts (world, datasets,
// classification) into a bundle, then join them into the columnar tables
// the engine scans. Loading never invokes the batch pipeline — a cold
// snapshot (or a PR-7 stream checkpoint) is all a query needs.
#pragma once

#include <filesystem>
#include <string_view>
#include <vector>

#include "cellspot/core/as_pipeline.hpp"
#include "cellspot/core/classifier.hpp"
#include "cellspot/dataset/beacon_dataset.hpp"
#include "cellspot/dataset/demand_dataset.hpp"
#include "cellspot/query/table.hpp"
#include "cellspot/simnet/world.hpp"

namespace cellspot::exec {
class Executor;
}

namespace cellspot::query {

/// Knobs applied when the classified artifact must be recomputed (no
/// classified snapshot given), to pick a directory's classified entry,
/// and for the AS join columns.
struct BundleOptions {
  core::ClassifierConfig classifier = {};
  core::AsFilterConfig filters = {};
};

/// Everything a query joins against, decoded from snapshots (or
/// exported from a restored stream checkpoint).
struct SnapshotBundle {
  simnet::World world;
  dataset::BeaconDataset beacons;
  dataset::DemandDataset demand;
  core::ClassifiedSubnets classified;
  std::vector<core::AsAggregate> candidates;
  core::AsFilterOutcome filtered;
};

/// Load from explicit snapshot files, each decoded from its mapping
/// (the classified shards in parallel on `executor`). `classified_path`
/// may be empty: the classification is then recomputed from the beacon
/// dataset with `options.classifier` (deterministic, so equal to the
/// snapshot). One 'query.load_bundle' span, with one
/// 'snapshot.load.<artifact>' span per file read (items = file bytes).
/// Throws SnapshotError for container defects, QueryError{kBadSource}
/// for structural problems.
[[nodiscard]] SnapshotBundle LoadBundleFromFiles(const std::filesystem::path& world_path,
                                                 const std::filesystem::path& datasets_path,
                                                 const std::filesystem::path& classified_path,
                                                 const BundleOptions& options,
                                                 exec::Executor& executor);

/// Load from a stage-cache/snapshot directory: expects exactly one
/// world.*.snap and one datasets.*.snap. Ambiguity or absence is
/// QueryError{kBadSource}. Once the world is decoded, its RIB adopts the
/// directory's compiled engine (snapshot::StageCache::TryLoadLpm); a
/// missing, foreign or damaged lpm entry is a cache miss and the engine
/// compiles on first use. The classification is the entry at
/// StageCache::ClassifiedPath(world config, options.classifier), so it
/// always follows `options.classifier`: classified entries under other
/// keys are ignored, an absent entry is recomputed from the beacons,
/// and a damaged one is a SnapshotError (never quarantined).
[[nodiscard]] SnapshotBundle LoadBundleFromDir(const std::filesystem::path& dir,
                                               const BundleOptions& options,
                                               exec::Executor& executor);

/// Load the world from a snapshot, then restore the newest usable
/// stream checkpoint from `checkpoint_dir` and take the daemon's
/// exports as datasets + classification. QueryError{kBadSource} when no
/// usable checkpoint exists (wrong config hash, corrupt, or absent).
[[nodiscard]] SnapshotBundle LoadBundleFromCheckpoint(
    const std::filesystem::path& world_path, const std::filesystem::path& checkpoint_dir,
    const BundleOptions& options, exec::Executor& executor);

/// The decoded artifacts a table join needs, by reference — lets the
/// CLI report path (CSV inputs, no World) reuse the same join.
struct ArtifactRefs {
  const asdb::RoutingTable* rib = nullptr;           // may be null: asn column stays 0
  const asdb::AsDatabase* as_db = nullptr;           // may be null: country/continent empty
  const dataset::BeaconDataset* beacons = nullptr;   // required
  const dataset::DemandDataset* demand = nullptr;    // required
  const core::ClassifiedSubnets* classified = nullptr;  // required
  const core::AsFilterOutcome* filtered = nullptr;   // may be null: kept column stays 0
  std::vector<std::string> excluded_isos;            // countries flagged §7.1
};

[[nodiscard]] ArtifactRefs MakeArtifactRefs(const SnapshotBundle& bundle);

/// The three joined tables. Column sets are documented in DESIGN.md §12;
/// row order is the underlying artifact's iteration order.
class TableSet {
 public:
  Table beacon;
  Table demand;
  Table classified;

  /// Throws QueryError{kUnknownTable} for anything but
  /// "beacon" / "demand" / "classified".
  [[nodiscard]] const Table& Find(std::string_view name) const;
};

/// Join artifacts into columnar tables. Every column is written at its
/// row index in parallel (AS origins resolved in chunk batches), so rows
/// land in artifact iteration order regardless of thread count. `block`
/// is a prefix column, `family` a {v4, v6} dictionary, and `country`/
/// `continent` dictionaries built once from the AS records. One
/// "query.build_tables" span (items = rows).
[[nodiscard]] TableSet BuildTables(const ArtifactRefs& refs, exec::Executor& executor);
[[nodiscard]] TableSet BuildTables(const SnapshotBundle& bundle, exec::Executor& executor);

}  // namespace cellspot::query
