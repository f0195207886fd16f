// Writers/readers between the in-memory pipeline artifacts and the
// snapshot container: simnet::World, the BEACON/DEMAND datasets, the
// classification output and the compiled RIB engine. Encoders return
// owned Sections; decoders read a validated SnapshotImage. Decoding
// validates as it goes (enum ranges, stats consistency, full payload
// consumption) and throws SnapshotError; a decoded artifact iterates in
// exactly the order its source did, so downstream exports are
// byte-identical to a cold run.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cellspot/asdb/as_database.hpp"
#include "cellspot/core/classifier.hpp"
#include "cellspot/dataset/beacon_dataset.hpp"
#include "cellspot/dataset/demand_dataset.hpp"
#include "cellspot/simnet/world.hpp"
#include "cellspot/snapshot/snapshot.hpp"

namespace cellspot::exec {
class Executor;
}

namespace cellspot::snapshot {

/// Canonical byte encoding of a WorldConfig — embedded in world
/// snapshots and hashed (with the format version) into cache keys, so
/// any config change, however small, keys a different snapshot.
[[nodiscard]] std::string EncodeWorldConfig(const simnet::WorldConfig& config);
[[nodiscard]] simnet::WorldConfig DecodeWorldConfig(std::string_view payload);

/// Canonical byte encoding of a ClassifierConfig (cache-key input for
/// the classification stage).
[[nodiscard]] std::string EncodeClassifierConfig(const core::ClassifierConfig& config);

[[nodiscard]] std::vector<Section> EncodeWorld(const simnet::World& world);
[[nodiscard]] simnet::World DecodeWorld(const SnapshotImage& image);

[[nodiscard]] std::vector<Section> EncodeDatasets(const dataset::BeaconDataset& beacons,
                                                  const dataset::DemandDataset& demand);
[[nodiscard]] std::pair<dataset::BeaconDataset, dataset::DemandDataset> DecodeDatasets(
    const SnapshotImage& image);

/// Marker/manifest section of the classified layout: varint shard
/// count, then total ratio and cellular row counts (the decoder
/// cross-checks both). Row payloads live in "classified.ratios.<k>" /
/// "classified.cellular.<k>", 0 <= k < shards.
inline constexpr std::string_view kClassifiedShardsSection = "classified.shards";

/// Shard count EncodeClassified writes. A layout knob only: any value
/// round-trips to the identical object, and the decoder takes the
/// count from the snapshot's manifest.
inline constexpr std::size_t kClassifiedStoreShards = 8;

/// Split the classified rows into `shard_count` contiguous ranges of
/// their insertion order, one pair of sections per shard, plus the
/// manifest. Ordered concatenation at decode reproduces the exact row
/// order, so a decoded object re-encodes byte-identically at any shard
/// count; meanwhile a warm load can decode the shards in parallel
/// (DecodeClassified with an executor).
[[nodiscard]] std::vector<Section> EncodeClassifiedSharded(
    const core::ClassifiedSubnets& classified, std::size_t shard_count);

/// EncodeClassifiedSharded at kClassifiedStoreShards: the layout the
/// stage cache stores, and the byte-comparison currency of the
/// determinism tests and stream exports.
[[nodiscard]] std::vector<Section> EncodeClassified(const core::ClassifiedSubnets& classified);

/// Decode the classified layout, the per-shard sections in parallel on
/// `executor` (nullptr decodes sequentially); validation and the
/// resulting object are identical either way. A snapshot without the
/// manifest section is SnapshotError{kMalformed}.
[[nodiscard]] core::ClassifiedSubnets DecodeClassified(const SnapshotImage& image,
                                                       exec::Executor* executor = nullptr);

/// Section name of the compiled flat LPM engine (see netaddr::FlatLpm
/// for the payload layout). Big-endian fixed-width addresses inside the
/// payload make it position-independent: it can be served as-is from a
/// mapped snapshot at any alignment.
inline constexpr std::string_view kLpmRibSection = "lpm.rib";

/// Encode the routing table's compiled engine (built on demand via
/// rib.Flat()) as a one-section snapshot.
[[nodiscard]] std::vector<Section> EncodeRibLpm(const asdb::RoutingTable& rib);

/// Zero-copy engine over the image's lpm.rib payload, pinning the
/// image's bytes (for a file, the mapping) for the engine's lifetime.
/// Throws SnapshotError{kMalformed} on any structural defect
/// (netaddr::FlatLpmError translated).
[[nodiscard]] asdb::RoutingTable::FlatRib DecodeRibLpm(const SnapshotImage& image);

/// Friend hook into the private state of World, DemandDataset and
/// ClassifiedSubnets; implementation detail of the functions above.
struct Access;

}  // namespace cellspot::snapshot
