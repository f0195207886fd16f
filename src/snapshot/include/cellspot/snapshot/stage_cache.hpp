// Persistent cache of pipeline stage outputs, one snapshot file per
// (stage, config) pair under a caller-chosen directory:
//
//   <dir>/world.<key>.snap        simnet::World
//   <dir>/datasets.<key>.snap     BEACON + DEMAND datasets
//   <dir>/classified.<key>.snap   classification output
//   <dir>/lpm.<key>.snap          compiled flat LPM engine for the RIB
//
// Every entry loads the same way: the file is mapped and validated
// (ReadSnapshotFile) and decoded from the mapping. The mapping is
// released when the decode returns, except for the lpm entry, whose
// engine views the mapped payload and pins it (FlatLpm::View), so a
// warm start adopts the compiled engine without rebuilding or copying.
//
// <key> is 16 hex digits of FNV-1a-64 over the snapshot format version,
// the RNG stream version (util::kRngStreamVersion) and the canonical
// byte encoding of every config the stage depends on: WorldKey for the
// world, datasets and lpm entries, ClassifiedKey (which adds the
// classifier config) for the classified entry. Changing any knob,
// bumping the format or changing what a seed draws keys a different
// file, so stale snapshots are simply never opened. Stream checkpoints
// share ClassifiedKey as their compatibility hash.
//
// Loads are corruption-tolerant: any SnapshotError is reported on
// stderr, counted under obs 'snapshot.miss.<reason>', the offending
// file is quarantined in place (renamed '*.corrupt') and the caller
// regenerates. A hit counts 'snapshot.hit' and adds the file's size to
// 'snapshot.bytes_read'. Saves are best-effort: failures are counted
// ('snapshot.save_error') and swallowed. The cache never throws. Each
// load and save is one 'snapshot.load.<stage>' / 'snapshot.save.<stage>'
// trace span whose items are the bytes read or written.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string_view>
#include <utility>

#include "cellspot/asdb/as_database.hpp"
#include "cellspot/core/classifier.hpp"
#include "cellspot/dataset/beacon_dataset.hpp"
#include "cellspot/dataset/demand_dataset.hpp"
#include "cellspot/simnet/world.hpp"
#include "cellspot/util/ordered_mutex.hpp"

namespace cellspot::exec {
class Executor;
}

namespace cellspot::snapshot {

/// FNV-1a 64-bit, the cache-key hash. Exposed for tests.
[[nodiscard]] std::uint64_t Fnv1a64(std::string_view bytes,
                                    std::uint64_t seed = 0xcbf29ce484222325ULL) noexcept;

/// The key of the world, datasets and lpm entries.
[[nodiscard]] std::uint64_t WorldKey(const simnet::WorldConfig& config);

/// The key of the classified entry: the world key extended by the
/// classifier config.
[[nodiscard]] std::uint64_t ClassifiedKey(const simnet::WorldConfig& config,
                                          const core::ClassifierConfig& classifier);

class StageCache {
 public:
  /// Creates `dir` (and parents) if needed. When creation fails the
  /// cache disables itself with a stderr warning instead of throwing —
  /// a broken cache directory must never take the pipeline down.
  explicit StageCache(std::filesystem::path dir);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const std::filesystem::path& dir() const noexcept { return dir_; }

  /// Cache-key paths, for tests and diagnostics.
  [[nodiscard]] std::filesystem::path WorldPath(const simnet::WorldConfig& config) const;
  [[nodiscard]] std::filesystem::path DatasetsPath(const simnet::WorldConfig& config) const;
  [[nodiscard]] std::filesystem::path ClassifiedPath(
      const simnet::WorldConfig& config, const core::ClassifierConfig& classifier) const;

  [[nodiscard]] std::optional<simnet::World> TryLoadWorld(
      const simnet::WorldConfig& config);
  void StoreWorld(const simnet::World& world);

  [[nodiscard]] std::optional<std::pair<dataset::BeaconDataset, dataset::DemandDataset>>
  TryLoadDatasets(const simnet::WorldConfig& config);
  void StoreDatasets(const simnet::WorldConfig& config,
                     const dataset::BeaconDataset& beacons,
                     const dataset::DemandDataset& demand);

  /// The per-shard sections decode in parallel on `executor` (nullptr
  /// decodes sequentially), with identical results either way.
  [[nodiscard]] std::optional<core::ClassifiedSubnets> TryLoadClassified(
      const simnet::WorldConfig& config, const core::ClassifierConfig& classifier,
      exec::Executor* executor = nullptr);
  void StoreClassified(const simnet::WorldConfig& config,
                       const core::ClassifierConfig& classifier,
                       const core::ClassifiedSubnets& classified);

  [[nodiscard]] std::filesystem::path LpmPath(const simnet::WorldConfig& config) const;

  /// The cached compiled engine, served zero-copy (the returned FlatLpm
  /// pins the mapping).
  [[nodiscard]] std::optional<asdb::RoutingTable::FlatRib> TryLoadLpm(
      const simnet::WorldConfig& config);
  void StoreLpm(const simnet::WorldConfig& config, const asdb::RoutingTable& rib);

 private:
  /// The one load routine behind every TryLoad*: a quiet miss when the
  /// file is absent, otherwise decode(ReadSnapshotFile(path)) with the
  /// corruption handling described at the top of this file. Defined
  /// (and only used) in stage_cache.cpp.
  template <typename Decode>
  [[nodiscard]] auto TryLoad(const std::filesystem::path& path, std::string_view stage,
                             Decode decode) const;

  /// Serialize the corrupt-file rename against itself: concurrent
  /// loaders of a shared cache directory may discover the same corrupt
  /// snapshot, and two racing renames would turn one quarantine into a
  /// spurious second failure report.
  [[nodiscard]] bool Quarantine(const std::filesystem::path& path) const;

  std::filesystem::path dir_;
  bool enabled_ = false;
  mutable util::OrderedMutex quarantine_mu_{"snapshot.StageCache.quarantine"};
};

}  // namespace cellspot::snapshot
